"""Dirichlet-restricted operators and their solvers.

Restricting the stiffness form to a cell mask is one gather: the principal
submatrix of the box matrix A on the active cells.  Couplings to inactive
cells already sit in A's diagonal (they contribute k_ij u_i^2 because
u_j = 0 there), so the restriction is always strictly positive definite.

Everything here is dense LAPACK on the restricted matrix, called directly
rather than through scipy's `cho_factor`/`cho_solve`/`eigvalsh` wrappers,
whose per-call checks cost more than the small solves themselves: linear
systems go through a cached `dpotrf` factor and `dpotrs`, eigenpairs through
one subset `dsyevr` call site (`_lowest_eigh`, shared with the annealing
loop), and resolvent-difference norms through an eigenvalue-only `dsyevr`
call on the symmetric difference.  The calls are the wrappers' own, so the
results are the same to the bit.  LAPACK does not check for NaN; every
result is checked against a residual tolerance instead, which a NaN fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DomainEmptyError, NumericError, ParameterError, StructuralError
from .forms import StiffnessOperator
from .grid import DomainMask, GridFunction, l2_distance

SOLVE_RTOL = 1e-10
EIG_RTOL = 1e-8
DUALITY_SEED = 0x5EED   # fixed test function of the duality identity
# the LAPACK drivers behind scipy.linalg.eigh/eigvalsh and cho_factor/cho_solve
_SYEVR, _SYEVR_LWORK, _POTRF, _POTRS = get_lapack_funcs(
    ("syevr", "syevr_lwork", "potrf", "potrs"), dtype=np.float64)


@dataclass(frozen=True)
class DirichletOperator:
    """Stiffness form restricted to the active cells of a mask."""

    base: StiffnessOperator
    mask: DomainMask
    active_index: np.ndarray = field(repr=False)

    @property
    def grid(self):
        return self.base.grid

    @property
    def n_active(self) -> int:
        return self.active_index.size

    @cached_property
    def _matrix(self) -> np.ndarray:
        a = self.active_index
        m = self.base.matrix()[a[:, None], a]
        m.flags.writeable = False
        return m

    @cached_property
    def _cho(self) -> np.ndarray:
        """Upper Cholesky factor: the dpotrf call of `cho_factor`."""
        c, info = _POTRF(self._matrix, lower=0, clean=0)
        if info != 0:
            raise NumericError(f"dpotrf failed: info = {info}")
        return c

    def matrix(self) -> np.ndarray:
        """Restricted matrix: cached and read-only; do not copy."""
        return self._matrix

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Direct solve on active cells via the cached Cholesky factor: the
        dpotrs call of `cho_solve`."""
        x, info = _POTRS(self._cho, rhs, lower=0)
        if info != 0:
            raise NumericError(f"dpotrs failed: info = {info}")
        return x

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
    r = op.matrix() @ x - b
    # np.linalg.norm of a vector without its wrapper, the same bits
    norm_b = np.sqrt(b @ b)
    residual = np.sqrt(r @ r) / norm_b if norm_b > 0 else 0.0
    if not residual <= SOLVE_RTOL:     # NaN fails too
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
    with the entry of largest modulus made positive.  `_lowest_eigh` runs on
    the cached, unscaled A (not overwritten: `solve` reuses it) and returns
    mu = lambda h^dim.  Residuals are ||A v - mu v|| / |mu|, the same as for
    A / h^dim.
    """
    n = op.n_active
    if not (1 <= k <= n):
        raise ParameterError(f"k must lie in [1, {n}], got {k}")
    h_meas = op.grid.cell_volume
    mu, vecs, residuals = _lowest_eigh(op.matrix(), k)
    # dsyevr returns unit vectors: rescale to unit h^dim-weighted L2 norm
    vecs = vecs / np.sqrt(h_meas)
    return Spectrum(eigenvalues=mu / h_meas, residuals=residuals, op=op, vectors=vecs)


@cache
def _syevr_workspace(n: int) -> tuple:
    """LAPACK's optimal (lwork, liwork) of dsyevr at size n."""
    work, iwork, info = _SYEVR_LWORK(n, lower=1)
    if info != 0:
        raise NumericError(f"dsyevr workspace query failed: info = {info}")
    return int(work), int(iwork)


def _lowest_eigh(a_mat: np.ndarray, k: int) -> tuple:
    """Lowest k eigenpairs (mu ascending, unit vectors) of the symmetric
    a_mat and their residuals ||A v - mu v|| / |mu|, checked against EIG_RTOL.

    The one eigenpair call site, shared by `eigenpairs` and the annealing
    loop: the dsyevr call of `scipy.linalg.eigh(a_mat, subset_by_index=[0,
    k - 1])` without the wrapper's per-call checks, so the results are the
    same to the bit.  Eigenvectors stay on: the residual check needs them,
    and dsyevr's eigenvalue-only path rounds differently.  dsyevr does not
    check for NaN, so a NaN entry shows only as a NaN residual, which fails
    the check.
    """
    lwork, liwork = _syevr_workspace(a_mat.shape[0])
    mu, vecs, _, _, info = _SYEVR(a_mat, compute_v=1, range="I", lower=1,
                                  il=1, iu=k, lwork=lwork, liwork=liwork)
    if info != 0:
        raise NumericError(f"dsyevr failed: info = {info}")
    mu = mu[:k]
    # np.linalg.norm(r, axis=0) without its wrapper, the same bits
    r = a_mat @ vecs - vecs * mu
    residuals = np.sqrt(np.add.reduce(r * r, axis=0)) / np.abs(mu)
    if not residuals.max() <= EIG_RTOL:     # NaN fails too
        raise NumericError("eigensolver missed the residual tolerance",
                           achieved=float(residuals.max()))
    return mu, vecs, residuals


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
    difference is symmetric, so its norm is its largest |eigenvalue|, from
    the dsyevr call of `eigvalsh`.
    """
    ops = [op for op in (op_a, op_b) if op is not None]
    if not ops:
        return 0.0
    if len({op.grid for op in ops}) > 1:
        raise StructuralError("operators live on different grids")
    indices = np.unique(np.concatenate([op.active_index for op in ops]))
    d = _dense_resolvent(op_a, indices) - _dense_resolvent(op_b, indices)
    lwork, liwork = _syevr_workspace(indices.size)
    w, _, _, _, info = _SYEVR(d, compute_v=0, range="A", lower=1,
                              lwork=lwork, liwork=liwork)
    if info != 0:
        raise NumericError(f"dsyevr failed: info = {info}")
    return float(np.abs(w).max())


@dataclass(frozen=True)
class ResolventTorsionReport:
    lhs: float              # operator-norm distance of the resolvents
    rhs: float              # L2 distance of the torsion functions
    duality_residual: float


def torsion_resolvent_bound_check(op_a: DirichletOperator,
                                  op_b: DirichletOperator) -> ResolventTorsionReport:
    """Compare the resolvent gap with the torsion L2 distance on nested masks.

    Also checks the duality identity (`duality_residual`), with resolvents
    and torsion functions from separate solves.
    """
    if not op_b.mask.is_subset_of(op_a.mask):
        raise StructuralError("second operator's mask must be nested in the first")
    lhs = resolvent_norm_diff(op_a, op_b)
    w_a = solve_torsion(op_a).values
    w_b = solve_torsion(op_b).values
    return ResolventTorsionReport(lhs=lhs, rhs=l2_distance(w_a, w_b),
                                  duality_residual=duality_residual(op_a, op_b, w_a, w_b))


def duality_residual(op_a: DirichletOperator, op_b: DirichletOperator,
                     w_a: GridFunction, w_b: GridFunction) -> float:
    """|int(R_A f - R_B f) - int f (w_A - w_B)| for a fixed non-constant f
    (seeded), given the torsion functions w_A, w_B of the two operators."""
    grid = op_a.grid
    rng = np.random.default_rng(DUALITY_SEED)
    f = GridFunction(grid, rng.standard_normal(grid.n_cells))
    r_a = apply_resolvent(op_a, f)
    r_b = apply_resolvent(op_b, f)
    meas = grid.cell_volume
    left = meas * np.sum(r_a.values - r_b.values)
    right = meas * (f.values @ (w_a.values - w_b.values))
    return float(abs(left - right))
