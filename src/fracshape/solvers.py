"""Dirichlet-restricted operators and their solvers.

Restricting the stiffness form to a cell mask is one gather from A's
stencil and diagonal: its principal submatrix on the active cells.
Couplings to inactive cells already sit in A's diagonal (they contribute
k_ij u_i^2 because u_j = 0 there), so the restriction is always strictly
positive definite.

Everything here is dense LAPACK on the restricted matrix, called directly
rather than through scipy's `cho_factor`/`cho_solve`/`eigvalsh` wrappers,
whose per-call checks cost more than the small solves themselves: linear
systems and resolvents (`solve` on identity columns) go through one cached
`dpotrf` factor per operator and `dpotrs`, and eigenpairs and resolvent-gap
norms through one `dsyevr` helper.  The calls are the wrappers' own, so the
results are the same to the bit.  LAPACK does not check for NaN; every
result is checked against a residual tolerance instead, which a NaN fails.
One more driver answers a cheaper question: `dsytrf`, the Bunch-Kaufman
LDL^T factor of a shifted matrix, counts the eigenvalues below the shift
(Sylvester's law of inertia), which lets the annealing walk reject most
uphill moves without an eigensolve.

A mask that some axis reflections of the box map onto itself is solved one
parity block at a time.  A's couplings depend only on cell offsets and its
diagonal is even under every reflection of the box, so A commutes with
those reflections, and in the basis of signed orbit sums the restricted
matrix splits into 2^p blocks for p symmetric axes (the symmetry-adapted
basis; Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986).
`eigenpairs` solves every block and merges the pairs; a linear solve
solves the blocks its right-hand sides have a component in, so
`solve_torsion`, whose right-hand side is constant, solves only the
all-even block, and a resolvent gap solves its identity columns on the
blocks without gathering the restricted matrix.

A 2D mask symmetric in both axes that is also its own transpose is solved
under the square's full symmetry group, the dihedral group of order 8: A
commutes with the transpose too, since its couplings depend on |offset|
and its diagonal on the cell's distance to the box.  The all-even and
all-odd blocks split into transpose-even and transpose-odd halves (cells
on the diagonal go in the even half only).  The transpose maps the
odd-x/even-y block onto the even-x/odd-y one, so only the first is solved
and its pairs are copied to the second with the vectors transposed, which
makes the square's degenerate pairs equal to the bit.  The torsion solves
only the fully symmetric half.  Every answer is still checked against the
whole restricted operator.  An asymmetric mask, and a mask symmetric under
the transpose alone, takes the direct path above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DomainEmptyError, NumericError, ParameterError, StructuralError
from .forms import MAX_DENSE_CELLS, StiffnessOperator
from .grid import DomainMask, GridFunction, l2_distance, row_blocks

SOLVE_RTOL = 1e-10
EIG_RTOL = 1e-8
DUALITY_SEED = 0x5EED   # fixed test function of the duality identity
# the LAPACK drivers behind scipy.linalg.eigh/eigvalsh and cho_factor/cho_solve,
# and the symmetric indefinite factor behind scipy.linalg.ldl
_SYEVR, _SYEVR_LWORK, _POTRF, _POTRS, _SYTRF, _SYTRF_LWORK = get_lapack_funcs(
    ("syevr", "syevr_lwork", "potrf", "potrs", "sytrf", "sytrf_lwork"), dtype=np.float64)
# the fixed probe of the resolvent-gap residual check, read on a mask's
# first m active cells: seeded normal entries reach every parity block,
# where a linear ramp misses a 2D mask's all-odd ones
_PROBE = np.random.default_rng(0x9B0E).standard_normal(MAX_DENSE_CELLS)


@dataclass(frozen=True)
class _ParityBlock:
    """One parity block of a mask under its symmetry group G.

    For a character chi of G (chi(g) = +-1), the block's basis holds one
    vector per orbit G c on which chi is 1 on the stabilizer S_c:
    e_c = sum_{x in G c} chi(x) delta_x / sqrt|G c|.  `orbits[g]` holds the
    active-cell positions of g c for the orbit representatives c;
    `orbits[0]` are the representatives themselves, ascending.

    A block with a `partner` stands for two: the transpose maps it onto a
    second block with the same matrix up to the order of its basis, so the
    second block's pairs are this block's with the vectors transposed.
    """

    signs: tuple            # chi(g) for each g in G, +1 or -1
    orbits: np.ndarray      # (|G|, m) active-cell positions of g c
    sizes: np.ndarray       # orbit sizes |G c|, as floats
    partner: np.ndarray | None = None   # active-cell position of each cell's transpose

    @property
    def copies(self) -> tuple:
        """Index maps from the active-cell vectors of this block to those of
        each block it stands for: the identity, then the transpose."""
        return (slice(None),) if self.partner is None else (slice(None), self.partner)

    def signed_sum(self, take) -> np.ndarray:
        """sum_g chi(g) take(orbits[g]), for a `take` that returns a new array."""
        out = take(self.orbits[0])
        for sign, cols in zip(self.signs[1:], self.orbits[1:]):
            if sign > 0:
                out += take(cols)
            else:
                out -= take(cols)
        return out

    def project(self, v: np.ndarray) -> np.ndarray:
        """Coefficients e_c . v of active-cell values v (a vector or columns)."""
        root = np.sqrt(self.sizes).reshape((-1,) + (1,) * (v.ndim - 1))
        return self.signed_sum(v.__getitem__) * root / len(self.signs)

    def spread(self, y: np.ndarray, n_active: int) -> np.ndarray:
        """Active-cell values of sum_c y_c e_c (y a vector or columns):
        y_c / sqrt|G c| copied with its sign over each orbit, so that each
        column is exactly even or odd under every element of G."""
        y = y / np.sqrt(self.sizes).reshape((-1,) + (1,) * (y.ndim - 1))
        out = np.zeros((n_active,) + y.shape[1:])
        for sign, cols in zip(self.signs, self.orbits):
            out[cols] = y if sign > 0 else -y
        return out


# basic-slicing indices that reverse axis 0 or axis 1 of a 1D or 2D box
_REVERSE_AXIS = ((slice(None, None, -1),), (slice(None), slice(None, None, -1)))


def _reflection_axes(cells: np.ndarray, shape: tuple) -> list:
    """The axes whose reflection of the box maps the mask `cells` (flat,
    C-ordered over `shape`) onto itself.

    Compared as bytes of a reversed view, the cheapest test numpy offers:
    every restriction and every new mask of the annealing walk makes it.
    """
    cube = cells.reshape(shape)
    flat = cube.tobytes()
    return [ax for ax in range(len(shape)) if cube[_REVERSE_AXIS[ax]].tobytes() == flat]


def _parity_blocks(cells: np.ndarray, shape: tuple, axes: list) -> list:
    """Parity blocks of a mask under the reflections of the box along
    `axes`, a nonempty list of axes whose reflection maps it onto itself,
    and under the transpose when a 2D mask is symmetric in both axes and is
    its own transpose (a square-symmetric mask).

    The reflections form G = Z_2^p for the p symmetric axes (bit j of g
    flips the j-th of them), with the 2^p characters chi(g) =
    (-1)^popcount(chi & g).  The blocks come in the order chi = 0 (all
    even), 1, ...

    On a square-symmetric mask, G is the square's dihedral group: bit 0 of
    g transposes, and bits 1 and 2 then flip the axes.  Its characters chi
    = 0, 1 split the all-even block into transpose-even and transpose-odd
    halves, and chi = 6, 7 split the all-odd block.  The transpose swaps
    the odd-x/even-y and even-x/odd-y blocks, so only the first is built,
    under Z_2^2, with the transpose as its partner.  The blocks come in the
    order all even (two halves), odd-x (with its partner), all odd (two
    halves).

    An orbit's representative is its lowest active position: the cell in
    the lower half of every symmetric axis, and on or below the diagonal on
    a square-symmetric mask.  A cell that some g fixes (a cell on a mirror
    or on the diagonal) is left out of the blocks whose chi(g) = -1, and a
    block with no cell left is dropped.
    """
    position = np.full(cells.size, -1)
    position[cells] = np.arange(np.count_nonzero(cells))
    position = position.reshape(shape)
    coords = np.nonzero(cells.reshape(shape))
    last = shape[0] - 1

    def images(transpose: bool) -> np.ndarray:
        """(|G|, n_active) active-cell positions of g x for every active x."""
        out = []
        for g in range(1 << (len(axes) + transpose)):
            x = coords[::-1] if transpose and g & 1 else coords
            flips = [ax for j, ax in enumerate(axes) if g >> (j + transpose) & 1]
            out.append(position[tuple(last - c if ax in flips else c
                                      for ax, c in enumerate(x))])
        return np.array(out)

    cube = cells.reshape(shape)
    if len(axes) < 2 or cube.T.tobytes() != cube.tobytes():
        return _character_blocks(images(False), range(1 << len(axes)))
    dihedral = images(True)
    return (_character_blocks(dihedral, (0, 1))
            + _character_blocks(images(False), (1,), partner=dihedral[1])
            + _character_blocks(dihedral, (6, 7)))


def _character_blocks(images: np.ndarray, characters, partner=None) -> list:
    """The blocks of `characters` (chi(g) = (-1)^popcount(chi & g)) of the
    group whose element g maps active cell x to `images[g, x]`."""
    reps = images.min(axis=0) == np.arange(images.shape[1])
    orbits = images[:, reps]
    fixed = orbits == orbits[0]     # g fixes the representative
    blocks = []
    for chi in characters:
        signs = tuple(-1 if (chi & g).bit_count() & 1 else 1 for g in range(len(orbits)))
        keep = ~fixed[np.array(signs) < 0].any(axis=0)
        if keep.any():
            sizes = len(orbits) / fixed[:, keep].sum(axis=0)   # |G c| = |G| / |S_c|
            blocks.append(_ParityBlock(signs, orbits[:, keep], sizes, partner))
    return blocks


@dataclass(frozen=True)
class DirichletOperator:
    """Stiffness form restricted to the active cells of a mask.

    On a mask that some axis reflections of the box map onto itself (a
    symmetric mask), `eigenpairs` and `solve` work on the parity blocks and
    never gather the restricted matrix; `matrix()` still builds it on
    request.
    """

    base: StiffnessOperator
    mask: DomainMask
    active_index: np.ndarray = field(repr=False)
    # the axes whose reflection of the box maps the mask onto itself; set
    # here rather than as a cached property, whose first read costs more
    # than the test on a small mask
    _mirror_axes: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_mirror_axes",
                           _reflection_axes(self.mask.cells, self.grid.shape))

    @property
    def grid(self):
        return self.base.grid

    @property
    def n_active(self) -> int:
        return self.active_index.size

    @cached_property
    def _matrix(self) -> np.ndarray:
        m = self.base.submatrix(self.active_index)
        m.flags.writeable = False
        return m

    @cached_property
    def _cho(self) -> np.ndarray:
        """Upper Cholesky factor of the restricted matrix."""
        return _potrf(self._matrix)

    @cached_property
    def _parity(self) -> list:
        """A symmetric mask's parity blocks, the all-even one first."""
        return _parity_blocks(self.mask.cells, self.grid.shape, self._mirror_axes)

    @cached_property
    def _block_chos(self) -> dict:
        """Upper Cholesky factors of the parity blocks, by position in
        `_parity`, each made on first use."""
        return {}

    def _block(self, blk: _ParityBlock) -> np.ndarray:
        """The block's matrix: entry (c, c') is sum_g chi(g) A[c, g c'] /
        sqrt(|S_c| |S_c'|), a signed sum of |G| coupling gathers on the
        representatives, plus d_c on the diagonal, which only the |S_c|
        stabilizer terms (chi = 1) reach."""
        base, act = self.base, self.active_index
        rows, stab = act[blk.orbits[0]], len(blk.signs) / blk.sizes   # |S_c| = |G| / |G c|
        out = blk.signed_sum(lambda cols: base.couplings(rows[:, None], act[cols]))
        out /= np.sqrt(np.outer(stab, stab))
        out.flat[::rows.size + 1] += base.diag[rows]
        return out

    def matrix(self) -> np.ndarray:
        """Restricted matrix: cached and read-only; do not copy."""
        return self._matrix

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """A x for active-cell values x (a vector or columns).  On a
        symmetric mask the couplings are gathered a block of rows at a
        time, so that the restricted matrix is never held whole."""
        if not self._mirror_axes:
            return self._matrix @ x
        act = self.active_index
        out = self.base.diag[act].reshape((-1,) + (1,) * (x.ndim - 1)) * x
        for rows in row_blocks(act.size, act.size):
            out[rows] += self.base.couplings(act[rows, None], act) @ x
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Direct solve on active cells via cached Cholesky factors: the
        dpotrs call of `cho_solve`, for a right-hand side vector or columns.

        On a symmetric mask, each parity block in which rhs has a nonzero
        component is solved on its own factor, and a partnered block's twin
        on the same factor, with rhs and solution transposed.  A right-hand
        side even under every element of the group, such as the torsion's,
        needs only the fully symmetric block.
        """
        if not self._mirror_axes:
            return _potrs(self._cho, rhs)
        x = np.zeros(rhs.shape)
        for i, blk in enumerate(self._parity):
            for copy in blk.copies:
                z = blk.project(rhs[copy])
                if z.any():
                    if i not in self._block_chos:
                        self._block_chos[i] = _potrf(self._block(blk))
                    x += blk.spread(_potrs(self._block_chos[i], z), self.n_active)[copy]
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


def _potrf(a_mat: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor: the dpotrf call of `cho_factor`."""
    c, info = _POTRF(a_mat, lower=0, clean=0)
    if info != 0:
        raise NumericError(f"dpotrf failed: info = {info}")
    return c


def _potrs(cho: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve by an upper Cholesky factor: the dpotrs call of `cho_solve`."""
    x, info = _POTRS(cho, rhs, lower=0)
    if info != 0:
        raise NumericError(f"dpotrs failed: info = {info}")
    return x


def _solve_residual(op: DirichletOperator, x: np.ndarray, b: np.ndarray) -> float:
    """||A x - b|| / ||b|| for active-cell vectors, checked against SOLVE_RTOL."""
    r = op._apply(x) - b
    # np.linalg.norm of a vector without its wrapper, the same bits
    norm_b = np.sqrt(b @ b)
    residual = np.sqrt(r @ r) / norm_b if norm_b > 0 else 0.0
    if not residual <= SOLVE_RTOL:     # NaN fails too
        raise NumericError(
            f"direct solve missed the residual tolerance: {residual:.3e}",
            achieved=float(residual),
        )
    return float(residual)


def solve_torsion(op: DirichletOperator) -> TorsionFunction:
    """Solve A w = h^dim on the mask; w >= 0 by the discrete maximum principle.

    The right-hand side is even under every reflection that maps the mask
    onto itself, so `solve` factors and solves only the all-even block.
    """
    b = np.full(op.n_active, op.grid.cell_volume)
    x = op.solve(b)
    residual = _solve_residual(op, x, b)
    return TorsionFunction(mask=op.mask, values=op.scatter(x), residual=residual)


def apply_resolvent(op: DirichletOperator, f: GridFunction) -> GridFunction:
    """R f: solve A u = h^dim f on the mask, extend by zero outside."""
    if f.grid != op.grid:
        raise StructuralError("f and operator live on different grids")
    b = op.grid.cell_volume * f.values[op.active_index]
    x = op.solve(b)
    _solve_residual(op, x, b)
    return op.scatter(x)


def _sign_normalize(vec: np.ndarray) -> np.ndarray:
    peak = np.argmax(np.abs(vec))
    return vec if vec[peak] >= 0 else -vec


def eigenpairs(op: DirichletOperator, k: int) -> Spectrum:
    """Smallest k eigenpairs of A u = lambda h^dim u on the mask, ascending.

    Eigenfunctions are normalized in the h^dim-weighted L2 inner product,
    with the entry of largest modulus made positive.  `_lowest_eigh` runs on
    the cached, unscaled A (not overwritten: `solve` reuses it), or on a
    symmetric mask's parity blocks (`_parity_eigh`), and returns mu =
    lambda h^dim.  On a symmetric mask each eigenfunction is exactly even or
    odd under every reflection that maps the mask onto itself.  Residuals
    are ||A v - mu v|| / |mu|, the same as for A / h^dim.
    """
    n = op.n_active
    if not (1 <= k <= n):
        raise ParameterError(f"k must lie in [1, {n}], got {k}")
    h_meas = op.grid.cell_volume
    if op._mirror_axes:
        mu, vecs, residuals = _parity_eigh(op, k)
    else:
        mu, vecs, residuals = _lowest_eigh(op.matrix(), k)
    # dsyevr returns unit vectors: rescale to unit h^dim-weighted L2 norm
    vecs = vecs / np.sqrt(h_meas)
    return Spectrum(eigenvalues=mu / h_meas, residuals=residuals, op=op, vectors=vecs)


def _parity_eigh(op: DirichletOperator, k: int) -> tuple:
    """`_lowest_eigh` for a symmetric mask, one parity block at a time.

    Each block gives its lowest min(k, block size) pairs, and a partnered
    block gives them twice, the second time with the vectors transposed and
    the same eigenvalues.  They merge in ascending order, ties in block
    order, and each vector is spread over the active cells with exact sign
    copies.  The merged pairs are checked again on the whole restricted
    operator, and for orthonormality, which a pair taken twice would fail.
    """
    mus, vecs = [], []
    for blk in op._parity:
        mu, y, _ = _lowest_eigh(op._block(blk), min(k, blk.sizes.size))
        v = blk.spread(y, op.n_active)
        for copy in blk.copies:
            mus.append(mu)
            vecs.append(v[copy])
    mu, vecs = np.concatenate(mus), np.hstack(vecs)
    order = np.argsort(mu, kind="stable")[:k]
    mu, vecs = mu[order], vecs[:, order]
    drift = np.abs(vecs.T @ vecs - np.eye(k)).max()
    if not drift <= EIG_RTOL:     # NaN fails too
        raise NumericError("merged eigenvectors are not orthonormal", achieved=float(drift))
    return mu, vecs, _eig_residuals(op._apply(vecs), vecs, mu)


@cache
def _syevr_workspace(n: int) -> tuple:
    """LAPACK's optimal (lwork, liwork) of dsyevr at size n."""
    work, iwork, info = _SYEVR_LWORK(n, lower=1)
    if info != 0:
        raise NumericError(f"dsyevr workspace query failed: info = {info}")
    return int(work), int(iwork)


def _syevr(a_mat: np.ndarray, **kw) -> tuple:
    """(w, v) of the symmetric a_mat's lower triangle: the dsyevr call of
    `scipy.linalg.eigh`/`eigvalsh`, `kw` picking the vectors and range."""
    lwork, liwork = _syevr_workspace(a_mat.shape[0])
    w, v, _, _, info = _SYEVR(a_mat, lower=1, lwork=lwork, liwork=liwork, **kw)
    if info != 0:
        raise NumericError(f"dsyevr failed: info = {info}")
    return w, v


@cache
def _sytrf_workspace(n: int) -> int:
    """LAPACK's optimal lwork of dsytrf at size n."""
    work, info = _SYTRF_LWORK(n, lower=0)
    if info != 0:
        raise NumericError(f"dsytrf workspace query failed: info = {info}")
    return int(work)


def _count_below(a_mat: np.ndarray, shift: float) -> int | None:
    """Number of eigenvalues of the symmetric a_mat below `shift`, or None
    when that count is not certain.

    By Sylvester's law of inertia it is the number of negative eigenvalues
    of D in the Bunch-Kaufman factor L D L^T of a_mat - shift I (dsytrf, on
    a shifted copy).  D's 1x1 blocks are the entries with ipiv > 0; its 2x2
    blocks, the pairs with ipiv < 0, have a negative determinant by the
    pivot rule, so each holds one negative eigenvalue.
    An exactly zero pivot (info > 0: the shift may be an eigenvalue) and a
    non-finite diagonal of D, which a NaN entry leaves, give None.
    """
    n = a_mat.shape[0]
    shifted = a_mat.copy()
    shifted.reshape(-1)[::n + 1] -= shift
    # the transpose is Fortran-ordered, so dsytrf factors it in place; its
    # upper triangle is a_mat's lower one, the triangle dsyevr reads
    ldu, ipiv, info = _SYTRF(shifted.T, lower=0, lwork=_sytrf_workspace(n), overwrite_a=1)
    if info < 0:
        raise NumericError(f"dsytrf failed: info = {info}")
    d = ldu.diagonal()
    if info > 0 or not np.isfinite(d.sum()):
        return None
    return int(np.count_nonzero(d[ipiv > 0] < 0) + np.count_nonzero(ipiv < 0) // 2)


def _lowest_eigh(a_mat: np.ndarray, k: int) -> tuple:
    """Lowest k eigenpairs (mu ascending, unit vectors) of the symmetric
    a_mat and their residuals ||A v - mu v|| / |mu|, checked against EIG_RTOL.

    The one eigenpair call site, shared by `eigenpairs` and the annealing
    loop: the dsyevr call of `eigh(a_mat, subset_by_index=[0, k - 1])`.
    Eigenvectors stay on: the residual check needs them, and dsyevr's
    eigenvalue-only path rounds differently.  dsyevr does not check for NaN,
    so a NaN entry shows only as a NaN residual, which fails the check.
    """
    mu, vecs = _syevr(a_mat, compute_v=1, range="I", il=1, iu=k)
    mu = mu[:k]
    return mu, vecs, _eig_residuals(a_mat @ vecs, vecs, mu)


def _eig_residuals(av: np.ndarray, vecs: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """||A v - mu v|| / |mu| per pair from A v, checked against EIG_RTOL."""
    # np.linalg.norm(r, axis=0) without its wrapper, the same bits
    r = av - vecs * mu
    residuals = np.sqrt(np.add.reduce(r * r, axis=0)) / np.abs(mu)
    if not residuals.max() <= EIG_RTOL:     # NaN fails too
        raise NumericError("eigensolver missed the residual tolerance",
                           achieved=float(residuals.max()))
    return residuals


def eigenvalues_or_inf(base: StiffnessOperator, mask: DomainMask, k: int) -> np.ndarray:
    """Eigenvalues with the empty-set convention lambda_k = +inf."""
    try:
        op = restrict(base, mask)      # checks the grid before emptiness
    except DomainEmptyError:
        return np.full(k, np.inf)
    kk = min(k, op.n_active)
    vals = eigenpairs(op, kk).eigenvalues
    if kk < k:
        vals = np.concatenate([vals, np.full(k - kk, np.inf)])
    return vals


def resolvent_norm_diff(op_a: DirichletOperator | None,
                        op_b: DirichletOperator | None) -> float:
    """Operator norm of R_A - R_B on L2 of the full grid.

    Either operator may be None (the empty set; null resolvent).  Each
    resolvent h^dim A^-1 is `solve` on identity columns, a block of
    columns at a time, added into the difference on the union of the
    active cells.  The difference is symmetric, so its norm is its largest
    |eigenvalue|, from the dsyevr call of `eigvalsh`.  The columns X of
    each A^-1 are checked through X g for a fixed probe g (`_PROBE`),
    accumulated over the column blocks: ||A X g - g|| / ||g|| must meet
    SOLVE_RTOL.
    """
    terms = [(op, sign) for op, sign in ((op_a, 1.0), (op_b, -1.0)) if op is not None]
    if not terms:
        return 0.0
    if len({op.grid for op, _ in terms}) > 1:
        raise StructuralError("operators live on different grids")
    indices = np.unique(np.concatenate([op.active_index for op, _ in terms]))
    d = np.zeros((indices.size, indices.size))
    for op, sign in terms:
        m, rows = op.n_active, np.searchsorted(indices, op.active_index)
        g, xg = _PROBE[:m], np.zeros(m)
        for cols in row_blocks(m, m):
            eye = np.eye(m, rows[cols].size, -cols.start)     # columns cols of I
            x = op.solve(eye)
            xg += x @ g[cols]
            # an operator on the whole union takes plain slices, a cheaper index
            block = (slice(None), cols) if m == indices.size else np.ix_(rows, rows[cols])
            d[block] += (sign * op.grid.cell_volume) * x
        _solve_residual(op, xg, g)
    w, _ = _syevr(d, compute_v=0, range="A")
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
    and torsion functions from separate solves on each operator's one set
    of factors.
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
