"""Dirichlet-restricted operators and their solvers.

Restricting the stiffness form to a cell mask keeps the principal submatrix
on active cells; couplings to inactive cells stay in the diagonal (they
contribute k_ij u_i^2 because u_j = 0 there), so the restriction is always
strictly positive definite.

Everything here is dense LAPACK on the restricted matrix: linear systems go
through its cached Cholesky factor, eigenpairs through a subset `eigh`, and
resolvent-difference norms through `eigvalsh` of the symmetric difference.
Each result is checked against a residual tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, eigvalsh

from .errors import DomainEmptyError, NumericError, ParameterError, StructuralError
from .forms import StiffnessOperator
from .grid import DomainMask, GridFunction, l2_distance

SOLVE_RTOL = 1e-10
EIG_RTOL = 1e-8
DUALITY_SEED = 0x5EED   # fixed test function of the duality identity


@dataclass
class DirichletOperator:
    """Stiffness form restricted to the active cells of a mask."""

    base: StiffnessOperator
    mask: DomainMask
    active_index: np.ndarray = field(repr=False)
    _matrix: np.ndarray | None = field(default=None, repr=False)
    _cho: tuple | None = field(default=None, repr=False)

    @property
    def grid(self):
        return self.base.grid

    @property
    def n_active(self) -> int:
        return self.active_index.size

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            a = self.active_index
            m = -self.base.offdiag[np.ix_(a, a)]
            np.fill_diagonal(m, self.base.diag[a])
            self._matrix = m
        return self._matrix

    def _factor(self):
        if self._cho is None:
            self._cho = cho_factor(self.matrix())
        return self._cho

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Direct solve on active cells via the cached Cholesky factor."""
        return cho_solve(self._factor(), rhs)

    def scatter(self, active_values: np.ndarray) -> GridFunction:
        """Embed active-cell values into a full-grid function (zero outside)."""
        full = np.zeros(self.grid.n_cells)
        full[self.active_index] = active_values
        return GridFunction(self.grid, full)


def restrict(op: StiffnessOperator, mask: DomainMask) -> DirichletOperator:
    """Dirichlet restriction of the Gagliardo form to a nonempty mask."""
    if mask.grid != op.grid:
        raise StructuralError("mask and operator live on different grids")
    if mask.is_empty:
        raise DomainEmptyError("cannot restrict to an empty mask")
    return DirichletOperator(base=op, mask=mask, active_index=mask.active_indices)


@dataclass(frozen=True)
class TorsionFunction:
    """Solution of the discrete problem A w = 1 (in the L2 pairing) on a mask."""

    mask: DomainMask
    values: GridFunction
    residual: float


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and residuals of a Dirichlet operator.

    `vectors` holds the eigenvectors on the active cells; the full-grid,
    sign-normalized eigenfunctions are built on first access, so callers
    that need only eigenvalues (annealing) never scatter.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    op: DirichletOperator = field(repr=False)
    vectors: np.ndarray = field(repr=False)

    @cached_property
    def eigenfunctions(self) -> list:
        return [self.op.scatter(_sign_normalize(v)) for v in self.vectors.T]


def _checked_solve(op: DirichletOperator, b: np.ndarray) -> tuple:
    """Solve A x = b by the cached factor; also return ||A x - b|| / ||b||."""
    x = op.solve(b)
    norm_b = np.linalg.norm(b)
    residual = np.linalg.norm(op.matrix() @ x - b) / norm_b if norm_b > 0 else 0.0
    if residual > SOLVE_RTOL:
        raise NumericError(
            f"direct solve missed the residual tolerance: {residual:.3e}",
            achieved=float(residual),
        )
    return x, float(residual)


def solve_torsion(op: DirichletOperator) -> TorsionFunction:
    """Solve A w = h^dim on the mask; w >= 0 by the discrete maximum principle."""
    b = np.full(op.n_active, op.grid.cell_volume)
    x, residual = _checked_solve(op, b)
    return TorsionFunction(mask=op.mask, values=op.scatter(x), residual=residual)


def apply_resolvent(op: DirichletOperator, f: GridFunction) -> GridFunction:
    """R f: solve A u = h^dim f on the mask, extend by zero outside."""
    if f.grid != op.grid:
        raise StructuralError("f and operator live on different grids")
    b = op.grid.cell_volume * f.values[op.active_index]
    x, _ = _checked_solve(op, b)
    return op.scatter(x)


def _sign_normalize(vec: np.ndarray) -> np.ndarray:
    peak = np.argmax(np.abs(vec))
    return vec if vec[peak] >= 0 else -vec


def eigenpairs(op: DirichletOperator, k: int) -> Spectrum:
    """Smallest k eigenpairs of A u = lambda h^dim u on the mask, ascending.

    Eigenfunctions are normalized in the h^dim-weighted L2 inner product,
    with the entry of largest modulus made positive.  Residuals are
    ||A v - lambda v|| / |lambda| for A scaled by h^-dim.
    """
    n = op.n_active
    if not (1 <= k <= n):
        raise ParameterError(f"k must lie in [1, {n}], got {k}")
    h_meas = op.grid.cell_volume
    a_mat = op.matrix() / h_meas
    vals, vecs = eigh(a_mat, subset_by_index=[0, k - 1])
    residuals = np.linalg.norm(a_mat @ vecs - vecs * vals, axis=0) / np.abs(vals)
    if np.any(residuals > EIG_RTOL):
        raise NumericError("eigensolver missed the residual tolerance",
                           achieved=float(np.max(residuals)))
    # eigh returns unit vectors: rescale to unit h^dim-weighted L2 norm
    vecs = vecs / np.sqrt(h_meas)
    return Spectrum(eigenvalues=vals, residuals=residuals, op=op, vectors=vecs)


def eigenvalues_or_inf(base: StiffnessOperator, mask: DomainMask, k: int) -> np.ndarray:
    """Eigenvalues with the empty-set convention lambda_k = +inf."""
    if mask.is_empty:
        return np.full(k, np.inf)
    op = restrict(base, mask)
    kk = min(k, op.n_active)
    vals = eigenpairs(op, kk).eigenvalues
    if kk < k:
        vals = np.concatenate([vals, np.full(k - kk, np.inf)])
    return vals


def _dense_resolvent(op: DirichletOperator | None, indices: np.ndarray) -> np.ndarray:
    """Resolvent matrix restricted to `indices` (rows/cols outside are zero)."""
    block = np.zeros((indices.size, indices.size))
    if op is None:
        return block
    h_meas = op.grid.cell_volume
    inv = h_meas * np.linalg.inv(op.matrix())
    rows = np.searchsorted(indices, op.active_index)
    block[np.ix_(rows, rows)] = inv
    return block


def resolvent_norm_diff(op_a: DirichletOperator | None,
                        op_b: DirichletOperator | None) -> float:
    """Operator norm of R_A - R_B on L2 of the full grid.

    Either operator may be None (the empty set; null resolvent).  The
    difference is symmetric, so its norm is its largest |eigenvalue|.
    """
    ops = [op for op in (op_a, op_b) if op is not None]
    if not ops:
        return 0.0
    if len({op.grid for op in ops}) > 1:
        raise StructuralError("operators live on different grids")
    indices = np.unique(np.concatenate([op.active_index for op in ops]))
    d = _dense_resolvent(op_a, indices) - _dense_resolvent(op_b, indices)
    return float(np.abs(eigvalsh(d)).max())


@dataclass(frozen=True)
class ResolventTorsionReport:
    lhs: float              # operator-norm distance of the resolvents
    rhs: float              # L2 distance of the torsion functions
    constant: float         # observed ratio lhs / rhs (0 when rhs = 0)
    duality_residual: float


def torsion_resolvent_bound_check(op_a: DirichletOperator,
                                  op_b: DirichletOperator) -> ResolventTorsionReport:
    """Compare the resolvent gap with the torsion L2 distance on nested masks.

    Also checks the duality identity int(R_A f - R_B f) = int f (w_A - w_B)
    for a fixed non-constant f (seeded), with resolvents and torsion
    functions from separate solves.
    """
    if not op_b.mask.is_subset_of(op_a.mask):
        raise StructuralError("second operator's mask must be nested in the first")
    lhs = resolvent_norm_diff(op_a, op_b)
    w_a = solve_torsion(op_a).values
    w_b = solve_torsion(op_b).values
    rhs = l2_distance(w_a, w_b)
    grid = op_a.grid
    rng = np.random.default_rng(DUALITY_SEED)
    f = GridFunction(grid, rng.standard_normal(grid.n_cells))
    r_a = apply_resolvent(op_a, f)
    r_b = apply_resolvent(op_b, f)
    meas = grid.cell_volume
    left = meas * np.sum(r_a.values - r_b.values)
    right = meas * (f.values @ (w_a.values - w_b.values))
    constant = lhs / rhs if rhs > 0 else 0.0
    return ResolventTorsionReport(lhs=lhs, rhs=rhs, constant=constant,
                                  duality_residual=float(abs(left - right)))


def alpha_exponent_fit(pairs) -> float:
    """Least-squares log-log slope of resolvent gap against torsion distance.

    `pairs` is a sequence of (lhs, rhs) from torsion_resolvent_bound_check
    over a family of shrinking perturbations.  Reported, never asserted.
    """
    pts = [(l, r) for l, r in pairs if l > 0 and r > 0]
    if len(pts) < 2:
        return float("nan")
    logs = np.log(np.asarray(pts))
    slope = np.polyfit(logs[:, 1], logs[:, 0], 1)[0]
    return float(slope)


def poincare_constant(op: DirichletOperator) -> float:
    """Optimal C with ||u||_L2 <= C [u]; equals lambda_1^(-1/2)."""
    return float(1.0 / np.sqrt(eigenpairs(op, 1).eigenvalues[0]))


def capacity_estimate(base: StiffnessOperator, mask: DomainMask) -> float:
    """Discrete capacity: minimize the Gagliardo form over u >= 1 on the mask.

    The minimizer is u = 1 on the mask and its discrete-harmonic extension
    off it.  This is exact because A is a Stieltjes matrix: the extension
    lies in [0, 1], so (A u)_i >= rho_i > 0 on the mask and u satisfies the
    KKT conditions of the constrained problem.
    """
    if mask.grid != base.grid:
        raise StructuralError("mask and operator live on different grids")
    if mask.is_empty:
        return 0.0
    grid = base.grid
    if mask.n_active == grid.n_cells:
        # every cell constrained: the minimizer is u = 1 on the whole box
        # and only the exterior tail contributes
        return float(base.tail.sum())
    multi = grid.multi_index(mask.active_indices)
    if multi.min() < 1 or multi.max() > grid.resolution - 2:
        raise ParameterError(
            "mask must keep at least one cell of margin to the box boundary"
        )
    a_mat = base.matrix()
    on, off = mask.cells, ~mask.cells
    u = np.ones(grid.n_cells)
    u[off] = cho_solve(cho_factor(a_mat[np.ix_(off, off)]),
                       -a_mat[np.ix_(off, on)].sum(axis=1))
    return float(u @ (a_mat @ u))
