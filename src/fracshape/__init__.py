"""Numerical laboratory for spectral shape optimization under the
fractional Dirichlet Laplacian on a uniform cell grid."""

__version__ = "0.1.0"

from .errors import (BudgetError, DomainEmptyError, FracshapeError,
                     NumericError, ParameterError, StructuralError)
from .grid import (DomainMask, Grid, GridFunction, build_grid, empty_mask,
                   full_mask, mask_from_indices)
from .forms import (FracParams, StiffnessOperator, assemble_stiffness,
                    fourier_seminorm_sq, gagliardo_sq, normalization_constant,
                    weighted_gagliardo_sq)
from .solvers import (DirichletOperator, Spectrum, TorsionFunction,
                      apply_resolvent, eigenpairs, resolvent_norm_diff,
                      restrict, solve_torsion, torsion_resolvent_bound_check)
from .concentration import (FunctionSequence, SplitPair, TrichotomyReport, classify,
                            cutoff_defect, dichotomy_split, flattening_bump_sequence,
                            lieb_translation_search, make_cutoffs, make_sequence,
                            separating_pair_sequence, translating_bump_sequence)
from .shapeopt import (AnnealingSchedule, DichotomyReport, FunctionalSpec, ShapeTrajectory,
                       ball_mask, connected_components, detect_dichotomy, eval_functional,
                       make_functional, minimize_shape, two_ball_experiment)
from .audit import CheckResult, bounds_audit, check_names
