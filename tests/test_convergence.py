"""Continuum anchors: the discrete spectrum against an exact value of the
fractional Laplacian, not against another discretization.

A / h^dim approximates (-Delta)^s / C_{s,N}, so eigenvalues come out as
lambda / C_{s,N}.  The anchor is lambda_1 of (-Delta)^{1/2} on (-1, 1),
1.1577738836977 (Kulczycki, Kwasnicki, Malecki & Stos, Proc. LMS 2010;
Kwasnicki, J. Funct. Anal. 2012, arXiv:1012.1133).  On a box of half
width 4 the relative error halves with h, -7.00e-3, -3.48e-3, -1.73e-3 and
-8.63e-4 at 256 to 2,048 cells, and one Richardson step on the last two
lands 4.6e-6 from the published value.
"""

from dataclasses import replace

import numpy as np

from fracshape.forms import assemble_stiffness, normalization_constant
from fracshape.grid import DomainMask, build_grid
from fracshape.solvers import eigenpairs, restrict

KWASNICKI_LAMBDA1 = 1.1577738836977
LADDER = (256, 512, 1024, 2048)   # box cells; (-1, 1) holds a quarter of them


def _lambda1_ladder(assemble=assemble_stiffness) -> list:
    """C_{1/2,1} lambda_1 of the mask (-1, 1) in a box of half width 4, at
    each resolution of LADDER."""
    values = []
    for n in LADDER:
        g = build_grid(1, 4.0, n)
        mask = DomainMask(g, np.abs(g.cell_centers[:, 0]) < 1.0)
        lam = eigenpairs(restrict(assemble(g, 0.5), mask), 1).eigenvalues[0]
        values.append(lam * normalization_constant(0.5, 1))
    return values


def _anchor_misses(values: list) -> list:
    """The anchor's failed conditions: first-order error ratios outside
    [1.9, 2.1], and a Richardson value more than 1e-5 (relative) from the
    published lambda_1."""
    errors = [v / KWASNICKI_LAMBDA1 - 1.0 for v in values]
    misses = [f"error ratio {a / b:.3f} at {n} cells"
              for a, b, n in zip(errors, errors[1:], LADDER[1:])
              if not 1.9 <= a / b <= 2.1]
    richardson = 2.0 * values[-1] - values[-2]
    miss = richardson / KWASNICKI_LAMBDA1 - 1.0
    if not abs(miss) <= 1e-5:
        misses.append(f"Richardson value misses by {miss:.3e}")
    return misses


def test_lambda1_converges_to_published_value():
    assert _anchor_misses(_lambda1_ladder()) == []


def _tail_free(grid, s):
    """The stiffness form with rho = A 1 zeroed: d_i = sum_j k_ij."""
    op = assemble_stiffness(grid, s)
    return replace(op, diag=op.diag - op.tail)


def test_lambda1_anchor_fails_without_exterior_tail():
    # negative control: with the exterior tail zeroed the Richardson value
    # misses by -13.9%, and the error stops halving
    misses = _anchor_misses(_lambda1_ladder(_tail_free))
    assert len(misses) == 4    # three error ratios near 1, and the Richardson value
    assert misses[-1].startswith("Richardson value misses by -1.39")
