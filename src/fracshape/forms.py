"""Discrete Gagliardo energy: singular kernel weights, exterior tail, and
the closed-form normalization constant C_{s,N} of the fractional Laplacian.

The quadratic form on grid functions is

    Q(u) = sum_{i<j} k_ij (u_i - u_j)^2 + sum_i rho_i u_i^2,

with k_ij = h^(2*dim) / |x_i - x_j|^(dim+2s) (mid-point rule, no singular
diagonal term) and rho_i the exterior-tail weight coming from the zero
extension outside the box.  Q counts each unordered cell pair once, i.e.
it discretizes one half of the symmetric double integral; the Fourier-side
evaluation below uses the same convention so the two routes agree.
Q(u) = u^T A u for the box matrix A (A_ij = -k_ij, A_ii = sum_j k_ij +
rho_i), stored as its offset stencil and closed-form diagonal; every
Dirichlet operator is a principal submatrix gathered from them.

Face-adjacent couplings carry an extra factor 1 + c(s, dim) that restores
the near-field energy the bare mid-point rule misses (the lattice sum
undershoots the singular integral by c * xi^2 * h^(2-2s) at leading order;
c is the regularized lattice zeta value, -zeta(2s-1) in 1D and
-zeta(s)*beta(s) in 2D).  Without it the smooth-function energy is off by
O(h^(2-2s)), which is several percent already at s = 0.7, h ~ 1/16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import BudgetError, ParameterError, StructuralError
from .grid import Grid, GridFunction, lattice_points, row_blocks

# Box budget.  Assembly peaks at 2.6 MiB (tracemalloc, 2D 64^2, this size),
# but the full-box product builds the dense n x n A (128 MiB), as a mask
# covering most of the box does its restricted copies and factors.
# `check_dense_budget` applies it, for assembly and cli.validate_config;
# grid.MAX_CELLS bounds sampled grids.
MAX_DENSE_CELLS = 4096
# The exterior-tail shell and the Fourier-side DFT lattice span PADDING
# box widths per axis.
PADDING = 4

# unit-sphere measure sigma_{dim-1}
_SPHERE_MEASURE = {1: 2.0, 2: 2.0 * np.pi}


def check_dense_budget(grid: Grid) -> Grid:
    """`grid`, if it has at most MAX_DENSE_CELLS cells; else a BudgetError."""
    if grid.n_cells > MAX_DENSE_CELLS:
        raise BudgetError(f"grid has {grid.n_cells} cells, over the dense-assembly "
                          f"budget of {MAX_DENSE_CELLS}")
    return grid


def _check_s(s: float) -> float:
    if not (0.0 < s < 1.0):
        raise ParameterError(f"s must lie in (0, 1), got {s}")
    return float(s)


def normalization_constant(s: float, dim: int) -> float:
    """C_{s,N} = (int (1 - cos zeta_1)/|zeta|^(N+2s) dzeta)^(-1), N = dim.

    Closed form C_{s,N} = s 4^s Gamma(N/2 + s) / (pi^(N/2) Gamma(1 - s))
    (Di Nezza, Palatucci & Valdinoci, Hitchhiker's guide to the fractional
    Sobolev spaces, arXiv:1104.4345, section 3).
    """
    s = float(FracParams(s, dim).s)
    return (s * 4.0 ** s * math.gamma(dim / 2.0 + s)
            / (math.pi ** (dim / 2.0) * math.gamma(1.0 - s)))


@dataclass(frozen=True)
class FracParams:
    """Fractional order and ambient dimension."""

    s: float
    dim: int

    def __post_init__(self):
        _check_s(self.s)
        if self.dim not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {self.dim}")


@dataclass(frozen=True)
class StiffnessOperator:
    """Symmetric positive-definite form A of the discrete Gagliardo energy,
    a Stieltjes M-matrix.  A_ij = -k_ij depends only on the offset c_i - c_j:
    `stencil` holds it at every offset of the box, shape (2r - 1)^dim for r
    cells a side, 0 at the centre.  `diag` holds d_i = sum_j k_ij + rho_i.
    """

    grid: Grid
    params: FracParams
    stencil: np.ndarray = field(repr=False)
    diag: np.ndarray = field(repr=False)

    @cached_property
    def _codes(self) -> np.ndarray:
        """Each cell's flat index in the stencil's shape."""
        return np.ravel_multi_index(self.grid.multi_index(np.arange(self.grid.n_cells)).T,
                                    self.stencil.shape)

    def couplings(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """A_ij off the diagonal for broadcast cell indices i, j; 0 where
        i == j.  The offset c_i - c_j sits at code_i - code_j + centre."""
        return self.stencil.take(self._codes[rows] + self.stencil.size // 2 - self._codes[cols])

    def submatrix(self, cells: np.ndarray) -> np.ndarray:
        """The principal submatrix of A on the flat cell indices `cells`."""
        a = self.couplings(cells[:, None], cells)
        a.flat[::cells.size + 1] = self.diag[cells]
        return a

    def matrix(self) -> np.ndarray:
        """The dense A, built on first call: read-only; do not copy."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        cells = np.arange(self.grid.n_cells)
        a = np.empty((cells.size,) * 2)
        for rows in row_blocks(cells.size, cells.size):
            a[rows] = self.couplings(cells[rows, None], cells)
        np.fill_diagonal(a, self.diag)
        a.flags.writeable = False
        return a

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix() @ u

    @cached_property
    def tail(self) -> np.ndarray:
        """The per-cell exterior weights rho = A 1, strictly positive."""
        return self.apply(np.ones(self.grid.n_cells))


@lru_cache(maxsize=None)
def adjacent_correction_factor(s: float, dim: int) -> float:
    """Multiplier 1 + c(s, dim) applied to face-adjacent couplings."""
    import mpmath

    if dim == 1:
        c = -mpmath.zeta(2.0 * s - 1.0)
    else:
        # Epstein zeta of Z^2 at exponent s: sum (m^2+n^2)^-s = 4 zeta(s) beta(s)
        beta = 4.0 ** (-s) * (mpmath.zeta(s, 0.25) - mpmath.zeta(s, 0.75))
        c = -mpmath.zeta(s) * beta
    return float(1.0 + c)


def assemble_stiffness(grid: Grid, s: float) -> StiffnessOperator:
    """Assemble the discrete Gagliardo form on the full grid.

    The stencil is -k(z) = -h^(dim-2s) |z|^-(dim+2s) at each whole-cell
    offset z of the box, faces weighted f = adjacent_correction_factor, and
    d_i = h^(dim-2s) (S(R_i) + 2 dim (f - 1)) + h^dim sigma (h R_i)^-2s / (2s).
    d_i sums k_ij over the box and the exterior tail rho_i: k over the
    padded shell (PADDING box widths per axis) within R_i = pad_w - max|c_i|
    plus the radial remainder beyond R_i.  The shell extends the lattice by
    whole cells and the ball of radius R_i >= 3w holds the box, so box and
    shell are every offset z in the ball, S(R_i) = sum_{0 < |z| h <= R_i}
    |z|^-(dim+2s), with the 2 dim face neighbours weighted f.  R_i / h is a
    half-integer, so no offset ties with the boundary.  S is summed once
    per distinct R_i, over the same |z|^-(dim+2s) the stencil holds.
    """
    s = _check_s(s)
    check_dense_budget(grid)
    h, dim, n = grid.h, grid.dim, grid.resolution
    extra = (PADDING - 1) * n // 2
    # R_i / h: pad_w / h = n/2 + extra, |c_i| / h = |k + 1/2 - n/2| per axis
    multi = grid.multi_index(np.arange(grid.n_cells))
    r = n / 2 + extra - np.max(np.abs(multi + 0.5 - n / 2), axis=1)
    radii, ring = np.unique(r, return_inverse=True)
    top = int(radii[-1])
    # |z|^-(dim+2s) at every offset z with |z_a| <= top, and 0 at z = 0
    z = lattice_points(np.arange(-top, top + 1), dim)
    q = np.sum(z * z, axis=1).astype(float)
    q[q.size // 2] = np.inf
    terms = q ** (-(dim + 2.0 * s) / 2.0)
    lattice = np.array([terms[q <= radius * radius].sum() for radius in radii])
    factor = adjacent_correction_factor(s, dim)
    far = _SPHERE_MEASURE[dim] * (h * r) ** (-2.0 * s) / (2.0 * s)
    diag = (h ** (dim - 2.0 * s) * (lattice[ring] + 2 * dim * (factor - 1.0))
            + h ** dim * far)
    # the box's offsets, |z_a| < n, are the central cube of the lattice
    cube, box = (2 * top + 1,) * dim, (slice(top + 1 - n, top + n),) * dim
    k = terms.reshape(cube)[box] * h ** (dim - 2.0 * s)
    k[q.reshape(cube)[box] == 1.0] *= factor
    stencil = np.negative(k, out=k)
    stencil.flat[stencil.size // 2] = 0.0
    stencil.flags.writeable = diag.flags.writeable = False
    return StiffnessOperator(grid=grid, params=FracParams(s, dim), stencil=stencil, diag=diag)


def _check_same_grid(op: StiffnessOperator, u: GridFunction) -> None:
    if op.grid != u.grid:
        raise StructuralError("function and operator live on different grids")


def gagliardo_sq(op: StiffnessOperator, u: GridFunction) -> float:
    """Q(u) = sum_{i<j} k_ij (u_i - u_j)^2 + sum_i rho_i u_i^2 = u^T A u."""
    _check_same_grid(op, u)
    v = u.values
    return float(np.dot(v, op.apply(v)))


def weighted_gagliardo_sq(op: StiffnessOperator, u: GridFunction,
                          weights: np.ndarray) -> float:
    """Pair sum with the symmetrized per-cell weight (w_i^2 + w_j^2)/2.

    Discretizes int int w(x)^2 |u(x)-u(y)|^2 / |x-y|^(dim+2s) under the same
    one-per-pair convention as gagliardo_sq, plus the w^2-weighted tail.
    """
    _check_same_grid(op, u)
    v = u.values
    w2 = np.asarray(weights, dtype=float) ** 2
    if w2.shape != v.shape:
        raise StructuralError(f"weights have shape {w2.shape}, the grid has {v.size} cells")
    # with A = diag(row + rho) - k the pair sum needs no row sums of k
    v2 = v * v
    return float(np.dot(w2, v * op.apply(v) - 0.5 * op.apply(v2)
                        + 0.5 * op.tail * v2))


def fourier_seminorm_sq(grid: Grid, params: FracParams, u: GridFunction) -> float:
    """Frequency-side evaluation of the Gagliardo energy.

    Computes (1/C_{s,N}) * int |xi|^(2s) |Fu(xi)|^2 dxi on a zero-padded DFT
    lattice, with Fu the angular-frequency transform and the 1/(2*pi)^dim
    Plancherel weight folded in.  The singular factor |xi|^(2s) is
    integrated exactly over each frequency bin; the remaining error comes
    from the finite period of the padded lattice and decreases with
    resolution (at fixed cell width) and with PADDING.  Matches the
    one-per-pair convention of gagliardo_sq.
    """
    if grid != u.grid:
        raise StructuralError("function and grid do not match")
    if params.dim != grid.dim:
        raise ParameterError(
            f"params are for dim {params.dim}, grid has dim {grid.dim}"
        )
    h = grid.h
    s = params.s
    n = PADDING * grid.resolution
    xi_axis = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    d_xi = 2.0 * np.pi / (n * h)
    padded = np.zeros((n,) * grid.dim)
    padded[(slice(0, grid.resolution),) * grid.dim] = u.values.reshape(grid.shape)
    uhat = h ** grid.dim * np.fft.fftn(padded)
    if grid.dim == 1:
        lo = np.maximum(np.abs(xi_axis) - d_xi / 2.0, 0.0)
        hi = np.abs(xi_axis) + d_xi / 2.0
        weights = (hi ** (1.0 + 2.0 * s) - lo ** (1.0 + 2.0 * s)) / (1.0 + 2.0 * s)
    else:
        xi_mag = np.sqrt(xi_axis[:, None] ** 2 + xi_axis[None, :] ** 2)
        weights = xi_mag ** (2.0 * s) * d_xi ** 2
        # zero bin: integrate |xi|^(2s) over the equal-area disc
        r0 = d_xi / np.sqrt(np.pi)
        weights[0, 0] = 2.0 * np.pi * r0 ** (2.0 + 2.0 * s) / (2.0 + 2.0 * s)
    total = np.sum(weights * np.abs(uhat) ** 2)
    c_norm = normalization_constant(s, grid.dim)
    return float(total / ((2.0 * np.pi) ** grid.dim * c_norm))
