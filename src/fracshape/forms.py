"""Discrete Gagliardo energy: singular kernel weights, exterior tail, and
the normalization constant of the fractional Laplacian.

The quadratic form on grid functions is

    Q(u) = sum_{i<j} k_ij (u_i - u_j)^2 + sum_i rho_i u_i^2,

with k_ij = h^(2*dim) / |x_i - x_j|^(dim+2s) (mid-point rule, no singular
diagonal term) and rho_i the exterior-tail weight coming from the zero
extension outside the box.  Q counts each unordered cell pair once, i.e.
it discretizes one half of the symmetric double integral; the Fourier-side
evaluation below uses the same convention so the two routes agree.

Face-adjacent couplings carry an extra factor 1 + c(s, dim) that restores
the near-field energy the bare mid-point rule misses (the lattice sum
undershoots the singular integral by c * xi^2 * h^(2-2s) at leading order;
c is the regularized lattice zeta value, -zeta(2s-1) in 1D and
-zeta(s)*beta(s) in 2D).  Without it the smooth-function energy is off by
O(h^(2-2s)), which is several percent already at s = 0.7, h ~ 1/16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy import integrate, special

from .errors import BudgetError, NumericError, ParameterError, StructuralError
from .grid import Grid, GridFunction, lattice_points

# Dense assembly budget.  Assembly peaks at two n x n float arrays
# (tracemalloc: 16 MiB on a 2D 32^2 grid, 256 MiB at 64^2, this size); the
# solvers' restricted copies and factors add a few more.
# cli.validate_config applies it; grid.MAX_CELLS bounds sampled grids.
MAX_DENSE_CELLS = 4096
# The exterior-tail shell and the Fourier-side DFT lattice span PADDING
# box widths per axis.
PADDING = 4

# unit-sphere measure sigma_{dim-1}
_SPHERE_MEASURE = {1: 2.0, 2: 2.0 * np.pi}


def _check_s(s: float) -> float:
    if not (0.0 < s < 1.0):
        raise ParameterError(f"s must lie in (0, 1), got {s}")
    return float(s)


@lru_cache(maxsize=None)
def _norm_constant_cached(s: float, dim: int) -> float:
    # Integrand near the origin is replaced by its zeta_1^2/2 Taylor leading
    # term below `delta`; the relative replacement error is O(delta^2) < 1e-10.
    delta = 1e-3
    rtol = 1e-8
    if dim == 1:
        # I = 2 * int_0^inf (1 - cos z) z^(-1-2s) dz
        head = delta ** (2.0 - 2.0 * s) / (2.0 * (2.0 - 2.0 * s))
        mid, mid_err = integrate.quad(
            lambda z: (1.0 - np.cos(z)) * z ** (-1.0 - 2.0 * s), delta, 1.0,
            epsabs=0.0, epsrel=1e-12, limit=200,
        )
        # int_1^inf z^(-1-2s) dz = 1/(2s); oscillatory part via QAWF
        osc, osc_err = integrate.quad(
            lambda z: z ** (-1.0 - 2.0 * s), 1.0, np.inf,
            weight="cos", wvar=1.0, limit=400,
        )
        integral = 2.0 * (head + mid + 1.0 / (2.0 * s) - osc)
        err = 2.0 * (mid_err + osc_err)
    else:
        # Angular reduction: I = 2*pi * int_0^inf (1 - J0(r)) r^(-1-2s) dr
        head = delta ** (2.0 - 2.0 * s) / (4.0 * (2.0 - 2.0 * s))
        mid, mid_err = integrate.quad(
            lambda r: (1.0 - special.j0(r)) * r ** (-1.0 - 2.0 * s), delta, 1.0,
            epsabs=0.0, epsrel=1e-12, limit=200,
        )
        # int_1^inf J0(r) r^(-1-2s) dr: alternating panels between consecutive
        # J0 zeros, summed with acceleration by mpmath.quadosc.
        import mpmath

        osc = float(
            mpmath.quadosc(
                lambda r: mpmath.besselj(0, r) * r ** (-1.0 - 2.0 * s),
                [1, mpmath.inf],
                zeros=lambda n: mpmath.besseljzero(0, int(n)),
            )
        )
        osc_err = 1e-12 * abs(osc)
        integral = 2.0 * np.pi * (head + mid + 1.0 / (2.0 * s) - osc)
        err = 2.0 * np.pi * (mid_err + osc_err)
    if not np.isfinite(integral) or integral <= 0.0:
        raise NumericError("quadrature for C_{s,N} returned a non-positive value")
    if err / integral > rtol:
        raise NumericError(
            "quadrature for C_{s,N} missed the relative tolerance",
            achieved=err / integral,
        )
    return 1.0 / integral


def normalization_constant(s: float, dim: int) -> float:
    """C_{s,N} = (int (1 - cos zeta_1)/|zeta|^(dim+2s) dzeta)^(-1) by quadrature."""
    s = _check_s(s)
    if dim not in (1, 2):
        raise ParameterError(f"dim must be 1 or 2, got {dim}")
    return _norm_constant_cached(s, dim)


@dataclass(frozen=True)
class FracParams:
    """Fractional order, ambient dimension, and the normalization constant."""

    s: float
    dim: int
    c_norm: float

    def __post_init__(self):
        _check_s(self.s)
        if self.dim not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {self.dim}")
        if not (self.c_norm > 0):
            raise ParameterError(f"c_norm must be > 0, got {self.c_norm}")


def make_frac_params(s: float, dim: int) -> FracParams:
    return FracParams(s=float(s), dim=int(dim), c_norm=normalization_constant(s, dim))


@dataclass(frozen=True)
class StiffnessOperator:
    """Symmetric positive-definite form of the discrete Gagliardo energy.

    offdiag holds the full symmetric coupling matrix k_ij (zero diagonal);
    tail holds the strictly positive per-cell exterior weights rho_i.
    """

    grid: Grid
    params: FracParams
    offdiag: np.ndarray = field(repr=False)
    tail: np.ndarray = field(repr=False)

    @cached_property
    def diag(self) -> np.ndarray:
        """d_i = sum_j k_ij + rho_i."""
        return self.offdiag.sum(axis=1) + self.tail

    def matrix(self) -> np.ndarray:
        """Dense matrix A with A_ij = -k_ij and A_ii = d_i (M-matrix)."""
        a = -self.offdiag.copy()
        np.fill_diagonal(a, self.diag)
        return a

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.diag * u - self.offdiag @ u


def _exterior_tail(grid: Grid, s: float, row_sums: np.ndarray) -> np.ndarray:
    """Exterior-tail weights rho_i (including the h^dim cell measure).

    rho_i sums |c_i - p|^-(dim+2s) over the padded-shell points p (PADDING
    box widths per axis, less the box) within R_i = pad_w - max|c_i|, plus
    the analytic radial remainder beyond R_i.  The shell extends the box
    lattice by whole cells, so p = c_i + z h for integer z, and the ball of
    radius R_i >= 3w lies inside the padded lattice and holds the box
    (diameter 2 sqrt(dim) w).  The shell sum is therefore exactly the lattice
    sum S(R_i) = sum_{0 < |z| h <= R_i} |z h|^-(dim+2s) minus the raw box row
    sum `row_sums` (sum_{j != i} k_ij before the face correction).  R_i / h
    is a half-integer and |z| never is, so no offset ties with the boundary.
    S is summed once per distinct R_i.  The subtraction leaves rho_i with
    rounding of order eps * row_sums_i (2.5e-12 relative at 1D 128 cells,
    s = 0.9); the diagonal row_sums_i + rho_i stays exact to rounding.
    """
    h = grid.h
    dim = grid.dim
    n = grid.resolution
    extra = (PADDING - 1) * n // 2
    # R_i / h: pad_w / h = n/2 + extra, |c_i| / h = |k + 1/2 - n/2| per axis
    multi = grid.multi_index(np.arange(grid.n_cells))
    r = n / 2 + extra - np.max(np.abs(multi + 0.5 - n / 2), axis=1)
    radii, ring = np.unique(r, return_inverse=True)
    z = lattice_points(np.arange(-int(radii[-1]), int(radii[-1]) + 1), dim)
    q = np.sum(z * z, axis=1)
    q = q[q > 0].astype(float)
    terms = q ** (-(dim + 2.0 * s) / 2.0)
    lattice = np.array([terms[q <= radius * radius].sum() for radius in radii])
    far = _SPHERE_MEASURE[dim] * (h * r) ** (-2.0 * s) / (2.0 * s)
    return h ** (dim - 2.0 * s) * lattice[ring] - row_sums + h ** dim * far


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
    """Assemble the discrete Gagliardo form on the full grid."""
    s = _check_s(s)
    m = grid.n_cells
    if m > MAX_DENSE_CELLS:
        raise BudgetError(
            f"grid has {m} cells, over the dense-assembly budget of {MAX_DENSE_CELLS}"
        )
    # squared lattice offsets, one axis at a time: |c_i - c_j|^2 = h^2 d2_ij
    multi = grid.multi_index(np.arange(m))
    d2 = np.zeros((m, m))
    step = np.empty((m, m))
    for x in multi.T.astype(float):
        np.subtract.outer(x, x, out=step)
        d2 += np.square(step, out=step)
    del step
    face = d2 == 1.0
    np.fill_diagonal(d2, 1.0)  # placeholder; diagonal is zeroed below
    # k_ij = h^(2 dim) |c_i - c_j|^-(dim+2s), computed in place of d2
    k = np.power(d2, -(grid.dim + 2.0 * s) / 2.0, out=d2)
    k *= grid.h ** (grid.dim - 2.0 * s)
    np.fill_diagonal(k, 0.0)
    rho = _exterior_tail(grid, s, k.sum(axis=1))
    factor = adjacent_correction_factor(s, grid.dim)
    k[face] *= factor
    # box-edge cells have face neighbors in the exterior tail; correct
    # those couplings too, else the diagonal loses translation invariance
    boundary_faces = ((multi == 0) | (multi == grid.resolution - 1)).sum(axis=1)
    rho = rho + (factor - 1.0) * grid.h ** (grid.dim - 2.0 * s) * boundary_faces
    params = make_frac_params(s, grid.dim)
    return StiffnessOperator(grid=grid, params=params, offdiag=k, tail=rho)


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
    k = op.offdiag
    row = k.sum(axis=1)
    pair = 0.5 * np.dot(w2, v * v * row - 2.0 * v * (k @ v) + k @ (v * v))
    return float(pair + np.dot(op.tail * w2, v * v))


def fourier_seminorm_sq(grid: Grid, params: FracParams, u: GridFunction) -> float:
    """Frequency-side evaluation of the Gagliardo energy.

    Computes (1/c_norm) * int |xi|^(2s) |Fu(xi)|^2 dxi on a zero-padded DFT
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
    return float(total / ((2.0 * np.pi) ** grid.dim * params.c_norm))
