import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, eigh, eigvalsh

from fracshape import solvers
from fracshape.errors import (DomainEmptyError, NumericError, ParameterError,
                              StructuralError)
from fracshape.forms import StiffnessOperator, assemble_stiffness, gagliardo_sq
from fracshape.grid import (DomainMask, GridFunction, build_grid, distances_from,
                            empty_mask, full_mask, mask_from_indices)
from fracshape.solvers import (DirichletOperator, apply_resolvent, eigenpairs,
                               eigenvalues_or_inf, resolvent_norm_diff,
                               restrict, solve_torsion,
                               torsion_resolvent_bound_check)


@pytest.fixture(scope="module")
def base_64():
    return assemble_stiffness(build_grid(1, 4.0, 64), 0.5)


@pytest.fixture(scope="module")
def base_2d():
    return assemble_stiffness(build_grid(2, 2.0, 10), 0.5)


def test_restrict_empty_raises(base_64):
    with pytest.raises(DomainEmptyError):
        restrict(base_64, empty_mask(base_64.grid))


def test_restrict_grid_mismatch(base_64):
    other = build_grid(1, 4.0, 32)
    with pytest.raises(StructuralError):
        restrict(base_64, full_mask(other))


def test_single_cell_eigenvalue(base_64):
    # 1x1 problem: lambda = d_i / h^dim exactly
    mask = mask_from_indices(base_64.grid, [30])
    spec = eigenpairs(restrict(base_64, mask), 1)
    expected = base_64.diag[30] / base_64.grid.cell_volume
    assert spec.eigenvalues[0] == pytest.approx(expected, rel=1e-14)


def test_restriction_is_principal_submatrix(base_64):
    mask = mask_from_indices(base_64.grid, [5, 9, 20])
    op = restrict(base_64, mask)
    full = base_64.matrix()
    sub = full[np.ix_([5, 9, 20], [5, 9, 20])]
    assert np.allclose(op.matrix(), sub, rtol=0, atol=0)


@pytest.mark.parametrize("indices", [range(20, 52), [3, 7, 8, 9, 30, 31, 55],
                                     [1, 2], range(64), [10, 53]])
def test_eigenpairs_match_dense_oracle(base_64, indices):
    mask = mask_from_indices(base_64.grid, indices)
    op = restrict(base_64, mask)
    k = min(4, op.n_active)
    spec = eigenpairs(op, k)
    w, v = eigh(op.matrix() / base_64.grid.cell_volume)
    assert np.allclose(spec.eigenvalues, w[:k], rtol=1e-10)
    assert np.all(spec.residuals <= 1e-8)
    meas = base_64.grid.cell_volume
    for j in range(k):
        ef = spec.eigenfunctions[j].values[op.active_index]
        ref = v[:, j] / np.sqrt(meas * (v[:, j] @ v[:, j]))
        assert min(np.linalg.norm(ef - ref), np.linalg.norm(ef + ref)) < 1e-7


def test_eigenpairs_2d_against_dense(base_2d):
    g = base_2d.grid
    idx = np.ravel_multi_index(np.mgrid[3:7, 2:8].reshape(2, -1), g.shape)
    op = restrict(base_2d, mask_from_indices(g, idx))
    spec = eigenpairs(op, 3)
    w = eigh(op.matrix() / g.cell_volume, eigvals_only=True)
    assert np.allclose(spec.eigenvalues, w[:3], rtol=1e-9)


def test_eigenpairs_degenerate_pair_full_square(base_2d):
    # the square's symmetry makes lambda_2 = lambda_3: any orthonormal basis of
    # that eigenspace is a valid answer, so check the basis, not the vectors
    g = base_2d.grid
    op = restrict(base_2d, full_mask(g))
    spec = eigenpairs(op, 4)
    w = eigvalsh(base_2d.matrix() / g.cell_volume)
    assert np.allclose(spec.eigenvalues, w[:4], rtol=1e-12, atol=0)
    assert spec.eigenvalues[2] - spec.eigenvalues[1] < 1e-10 * spec.eigenvalues[1]
    vecs = np.column_stack([f.values for f in spec.eigenfunctions])
    gram = g.cell_volume * vecs.T @ vecs
    assert np.abs(gram - np.eye(4)).max() < 1e-12


def test_eigenpairs_peak_memory():
    # the full square solves five blocks, the largest the odd-x block of
    # n / 4 cells, and never gathers the n x n restricted matrix: the peak
    # reads 0.21 n^2 float64 (that block, its gather temporary and dsyevr's
    # copy)
    g = build_grid(2, 4.0, 32)
    op = restrict(assemble_stiffness(g, 0.5), full_mask(g))
    tracemalloc.start()
    try:
        eigenpairs(op, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * 8 * g.n_cells ** 2


def _square_mask(grid, rows, cols):
    cells = np.zeros(grid.shape, dtype=bool)
    cells[rows, cols] = True
    return DomainMask(grid, cells.ravel())


def _transpose_only(grid):
    # an L of two unequal arms: its own transpose, but no axis reflection
    # maps it onto itself
    cells = np.zeros(grid.shape, dtype=bool)
    cells[1:10, 1:5] = cells[1:5, 1:10] = True
    return DomainMask(grid, cells.ravel())


# (dim, resolution, mask, k, symmetric axes, square-symmetric): full boxes of
# both parities (an odd box has mirror cells, which the odd blocks leave
# out), a mask symmetric in one axis only, centred discs, a 2-cell mask with
# k = n, k above the size of every block, and a mask that is its own
# transpose but has no axis symmetry, which takes the direct path.  On a
# square-symmetric mask (both axes and the transpose) the all-even and
# all-odd blocks split into transpose-even and -odd halves and the two
# mixed blocks are solved as one.
SYMMETRIC_CASES = {
    "full-63": (1, 63, full_mask, 4, [0], False),
    "full-64": (1, 64, full_mask, 4, [0], False),
    "full-15x15": (2, 15, full_mask, 4, [0, 1], True),
    "full-16x16": (2, 16, full_mask, 8, [0, 1], True),
    "one-axis": (2, 16, lambda g: _square_mask(g, slice(2, 14), slice(3, 9)), 5, [0], False),
    "disc": (2, 15, lambda g: DomainMask(g, distances_from(g, [0.0, 0.0]) < 1.5), 6,
             [0, 1], True),
    "disc-16": (2, 16, lambda g: DomainMask(g, distances_from(g, [0.0, 0.0]) < 1.6), 10,
                [0, 1], True),
    "two-cells": (1, 64, lambda g: mask_from_indices(g, [10, 53]), 2, [0], False),
    "three-cells": (1, 63, lambda g: mask_from_indices(g, [20, 31, 42]), 3, [0], False),
    "centre-2x2": (2, 16, lambda g: _square_mask(g, slice(7, 9), slice(7, 9)), 4,
                   [0, 1], True),
    "transpose-only": (2, 16, _transpose_only, 4, [], False),
}


@pytest.mark.parametrize("case", SYMMETRIC_CASES)
def test_parity_blocks_match_dense(case):
    # eigenpairs and torsion of symmetric masks, solved one parity block at
    # a time, against eigvalsh and cho_solve on the restricted matrix; every
    # eigenfunction is exactly even or odd, and the torsion exactly even,
    # under each reflection that fixes the mask; on a square-symmetric mask
    # the transpose maps every eigenfunction exactly onto itself, its
    # negative, or (the pairs of the mixed blocks) another one up to sign,
    # and the torsion onto itself
    dim, resolution, make_mask, k, axes, square = SYMMETRIC_CASES[case]
    g = build_grid(dim, 2.0, resolution)
    base = assemble_stiffness(g, 0.5)
    op = restrict(base, make_mask(g))
    assert op._mirror_axes == axes
    if axes:
        assert any(blk.partner is not None for blk in op._parity) == square
    spec = eigenpairs(op, k)
    a_mat = base.matrix()[np.ix_(op.active_index, op.active_index)]
    w = eigvalsh(a_mat / g.cell_volume)[:k]
    assert np.allclose(spec.eigenvalues, w, rtol=1e-12, atol=0)
    assert np.all(spec.residuals <= 1e-12)
    vecs = np.column_stack([f.values for f in spec.eigenfunctions])
    assert np.abs(g.cell_volume * vecs.T @ vecs - np.eye(k)).max() < 1e-12
    cube = vecs.reshape(g.shape + (k,))
    tor = solve_torsion(op).values.values
    ref = cho_solve(cho_factor(a_mat), np.full(op.n_active, g.cell_volume))
    assert np.abs(tor[op.active_index] - ref).max() < 1e-12 * ref.max()
    for ax in axes:
        flipped = np.flip(cube, ax)
        for j in range(k):
            assert (np.array_equal(flipped[..., j], cube[..., j])
                    or np.array_equal(flipped[..., j], -cube[..., j]))
        assert np.array_equal(np.flip(tor.reshape(g.shape), ax), tor.reshape(g.shape))
    if square:
        transposed = cube.swapaxes(0, 1)
        for j in range(k):
            assert any(np.array_equal(transposed[..., j], sign * cube[..., i])
                       for i in range(k) for sign in (1, -1))
        assert np.array_equal(tor.reshape(g.shape).T, tor.reshape(g.shape))
    if axes:
        # the torsion's constant right-hand side reaches the fully
        # symmetric block alone, so only that block was factored
        assert list(op._block_chos) == [0]


@pytest.mark.parametrize("resolution", [15, 16, 32, 33])
def test_square_degenerate_pair_is_exact(resolution):
    # on a full square the pair lambda_2 = lambda_3 comes from the odd-x
    # block and its transpose: equal to the bit, in a fixed order, the
    # third eigenfunction the second one transposed; the transpose-odd
    # eigenfunctions are exactly odd, and lambda_4's four extrema, which
    # only the diagonal reflections relate, tie to the bit
    g = build_grid(2, 4.0, resolution)
    op = restrict(assemble_stiffness(g, 0.5), full_mask(g))
    spec = eigenpairs(op, 6)
    assert spec.eigenvalues[1] == spec.eigenvalues[2]
    efs = [f.values.reshape(g.shape) for f in spec.eigenfunctions]
    assert np.array_equal(np.flip(efs[1], 0), -efs[1])     # odd in x
    assert (np.array_equal(efs[2], efs[1].T) or np.array_equal(efs[2], -efs[1].T))
    odd = [j for j, ef in enumerate(efs) if np.array_equal(ef.T, -ef)]
    assert odd and all(np.all(np.diagonal(efs[j]) == 0) for j in odd)
    assert all(np.array_equal(ef.T, ef) for j, ef in enumerate(efs) if j not in odd + [1, 2])
    tor = solve_torsion(op).values.values.reshape(g.shape)
    assert np.array_equal(tor.T, tor)


def _corner_cut(grid):
    cells = np.ones(grid.n_cells, dtype=bool)
    cells[0] = False
    return DomainMask(grid, cells)


def test_asymmetric_mask_is_the_dense_solve_to_the_bit():
    # negative control: one cell away from the symmetric full square, or
    # symmetric under the transpose alone, the mask has no axis reflection,
    # and the answers are the gather's dsyevr and dpotrf/dpotrs results to
    # the bit
    g = build_grid(2, 2.0, 16)
    base = assemble_stiffness(g, 0.5)
    for make_mask in (_corner_cut, _transpose_only):
        op = restrict(base, make_mask(g))
        assert op._mirror_axes == []
        spec = eigenpairs(op, 4)
        mu, vecs, residuals = solvers._lowest_eigh(op.matrix(), 4)
        assert np.array_equal(spec.eigenvalues, mu / g.cell_volume)
        assert np.array_equal(spec.vectors, vecs / np.sqrt(g.cell_volume))
        assert np.array_equal(spec.residuals, residuals)
        ref = cho_solve(cho_factor(op.matrix()), np.full(op.n_active, g.cell_volume))
        assert np.array_equal(solve_torsion(op).values.values[op.active_index], ref)


def test_symmetric_eigenfunction_sign_is_stable():
    # lambda_4 on the full square is odd in both axes; its four extremal
    # cells form one orbit, equal in modulus to the bit on the parity
    # blocks, so the sign of the written eigenfunction survives a
    # rounding-level change of the stencil and diagonal
    g = build_grid(2, 4.0, 32)
    base = assemble_stiffness(g, 0.5)
    scaled = replace(base, stencil=base.stencil * (1 + 1e-14),
                     diag=base.diag * (1 + 1e-14))
    orbit = np.ravel_multi_index(([7, 7, 24, 24], [7, 24, 7, 24]), g.shape)
    ops = [restrict(b, full_mask(g)) for b in (base, scaled)]
    efs = [eigenpairs(op, 4).eigenfunctions[3].values for op in ops]
    assert np.unique(np.abs(efs[0][orbit])).size == 1
    assert np.argmax(np.abs(efs[0])) == orbit[0]
    assert np.abs(efs[0] - efs[1]).max() < 1e-10
    # negative control: the dense solve of the same matrix ties the four
    # moduli only to rounding, so its argmax, and sign, follow the rounding
    dense = solvers._lowest_eigh(ops[0].matrix(), 4)[1][:, 3]
    assert np.unique(np.abs(dense[orbit])).size > 1


def test_first_eigenfunction_nonnegative(base_64):
    mask = mask_from_indices(base_64.grid, range(10, 40))
    spec = eigenpairs(restrict(base_64, mask), 2)
    assert spec.eigenfunctions[0].values.min() >= -1e-10


def test_eigenfunctions_orthonormal(base_64):
    mask = mask_from_indices(base_64.grid, range(8, 56))
    spec = eigenpairs(restrict(base_64, mask), 4)
    meas = base_64.grid.cell_volume
    vecs = np.column_stack([f.values for f in spec.eigenfunctions])
    gram = meas * vecs.T @ vecs
    assert np.abs(gram - np.eye(4)).max() < 1e-8


def test_eigenpairs_k_out_of_range(base_64):
    op = restrict(base_64, mask_from_indices(base_64.grid, [1, 2]))
    with pytest.raises(ParameterError):
        eigenpairs(op, 3)
    with pytest.raises(ParameterError):
        eigenpairs(op, 0)


def test_eigenvalues_or_inf_conventions(base_64):
    lam = eigenvalues_or_inf(base_64, empty_mask(base_64.grid), 2)
    assert np.all(np.isinf(lam))
    lam = eigenvalues_or_inf(base_64, mask_from_indices(base_64.grid, [5]), 3)
    assert np.isfinite(lam[0]) and np.isinf(lam[1]) and np.isinf(lam[2])


def test_eigenvalues_or_inf_checks_the_grid_of_empty_masks(base_64):
    # an empty mask from another grid is a mismatch, as a nonempty one is
    other = build_grid(1, 4.0, 32)
    for mask in (empty_mask(other), full_mask(other)):
        with pytest.raises(StructuralError):
            eigenvalues_or_inf(base_64, mask, 2)


def test_torsion_against_direct_solve(base_64):
    mask = mask_from_indices(base_64.grid, range(16, 48))
    op = restrict(base_64, mask)
    tor = solve_torsion(op)
    direct = np.linalg.solve(op.matrix(),
                             np.full(op.n_active, base_64.grid.cell_volume))
    assert np.abs(tor.values.values[op.active_index] - direct).max() < 1e-10
    assert np.all(tor.values.values[~mask.cells] == 0.0)


def test_torsion_maximum_principle(base_64):
    rng = np.random.default_rng(11)
    for _ in range(10):
        mask = mask_from_indices(
            base_64.grid, rng.choice(64, rng.integers(3, 30), replace=False))
        tor = solve_torsion(restrict(base_64, mask))
        assert tor.values.values.min() >= -1e-12


def test_torsion_domain_monotonicity(base_64):
    inner = mask_from_indices(base_64.grid, range(24, 40))
    outer = mask_from_indices(base_64.grid, range(16, 48))
    w_in = solve_torsion(restrict(base_64, inner)).values.values
    w_out = solve_torsion(restrict(base_64, outer)).values.values
    assert np.all(w_in <= w_out + 1e-10)


def test_apply_resolvent_against_direct(base_64):
    g = base_64.grid
    mask = mask_from_indices(g, range(20, 44))
    op = restrict(base_64, mask)
    f = GridFunction(g, np.cos(g.cell_centers[:, 0]))
    u = apply_resolvent(op, f)
    direct = np.linalg.solve(op.matrix(),
                             g.cell_volume * f.values[op.active_index])
    assert np.abs(u.values[op.active_index] - direct).max() < 1e-10


def test_lowest_eigh_is_scipy_eigh_to_the_bit(base_64, base_2d):
    # the one LAPACK call site makes the call scipy's subset eigh makes
    rng = np.random.default_rng(3)
    for base, m in ((base_64, 24), (base_64, 64), (base_2d, 20), (base_2d, 57)):
        idx = np.sort(rng.choice(base.grid.n_cells, m, replace=False))
        a_mat = restrict(base, mask_from_indices(base.grid, idx)).matrix()
        for k in (1, 3):
            mu, vecs, residuals = solvers._lowest_eigh(a_mat, k)
            w, v = eigh(a_mat, subset_by_index=[0, k - 1])
            assert np.array_equal(mu, w) and np.array_equal(vecs, v)
            assert np.all(residuals <= solvers.EIG_RTOL)


def test_direct_lapack_is_scipy_to_the_bit(base_64, base_2d):
    # dpotrf/dpotrs and the eigenvalue-only dsyevr make the calls that
    # cho_factor/cho_solve and eigvalsh make: the gap is eigvalsh of the
    # difference of h^dim cho_solve(cho_factor(A), I), to the bit
    rng = np.random.default_rng(5)
    for base, m in ((base_64, 6), (base_64, 24), (base_2d, 20), (base_2d, 57)):
        grid = base.grid
        outer = np.sort(rng.choice(grid.n_cells, m, replace=False))
        inner = outer[rng.random(m) < 0.6]
        op_a = restrict(base, mask_from_indices(grid, outer))
        op_b = restrict(base, mask_from_indices(grid, inner))
        assert not (op_a._mirror_axes or op_b._mirror_axes)
        rhs = rng.standard_normal(m)
        assert np.array_equal(op_a.solve(rhs), cho_solve(cho_factor(op_a.matrix()), rhs))
        d = np.zeros((m, m))
        for op, sign in ((op_a, 1.0), (op_b, -1.0)):
            rows = np.searchsorted(outer, op.active_index)
            inv = cho_solve(cho_factor(op.matrix()), np.eye(op.n_active))
            d[np.ix_(rows, rows)] += (sign * grid.cell_volume) * inv
        assert resolvent_norm_diff(op_a, op_b) == float(np.abs(eigvalsh(d)).max())


@pytest.mark.parametrize("case", ["1d-union", "2d-disc"])
def test_symmetric_gap_is_solved_on_the_blocks(base_64, case):
    # on symmetric masks the gap comes from the parity-block factors: it
    # matches an LU-inverse oracle, and no restricted matrix is gathered
    if case == "1d-union":
        base = base_64
        union = np.zeros(64, dtype=bool)
        union[10:20] = union[44:54] = True
        outer, inner = DomainMask(base.grid, union), mask_from_indices(base.grid, range(10, 20))
    else:
        base = assemble_stiffness(build_grid(2, 2.0, 16), 0.5)
        outer = full_mask(base.grid)
        inner = DomainMask(base.grid, distances_from(base.grid, [0.0, 0.0]) < 1.0)
    op_a, op_b = restrict(base, outer), restrict(base, inner)
    assert op_a._mirror_axes and bool(op_b._mirror_axes) == (case == "2d-disc")
    gap = resolvent_norm_diff(op_a, op_b)
    assert all("_matrix" not in op.__dict__ for op in (op_a, op_b) if op._mirror_axes)
    indices = outer.active_indices
    d = np.zeros((indices.size,) * 2)
    for mask, sign in ((outer, 1.0), (inner, -1.0)):
        rows = np.searchsorted(indices, mask.active_indices)
        inv = np.linalg.inv(base.submatrix(mask.active_indices))
        d[np.ix_(rows, rows)] += (sign * base.grid.cell_volume) * inv
    assert gap == pytest.approx(np.abs(eigvalsh(d)).max(), rel=1e-12, abs=0)


def test_cholesky_rejects_indefinite_matrix(base_64):
    d = base_64.diag.copy()
    d[30] = -1.0
    broken = StiffnessOperator(base_64.grid, base_64.params, base_64.stencil, d)
    op = restrict(broken, mask_from_indices(base_64.grid, range(25, 35)))
    with pytest.raises(NumericError, match="dpotrf"):
        op._cho
    with pytest.raises(NumericError):
        solve_torsion(op)


def test_residual_checks_can_fail(base_64, monkeypatch):
    # answers off by 1e-6 relative must miss SOLVE_RTOL and EIG_RTOL
    op = restrict(base_64, mask_from_indices(base_64.grid, range(20, 44)))
    exact_solve, exact_syevr = DirichletOperator.solve, solvers._SYEVR

    def bad_solve(self, rhs):
        return (1 + 1e-6) * exact_solve(self, rhs)

    def bad_syevr(a, **kw):
        vals, *rest = exact_syevr(a, **kw)
        return ((1 + 1e-6) * vals, *rest)

    monkeypatch.setattr(DirichletOperator, "solve", bad_solve)
    with pytest.raises(NumericError):
        solve_torsion(op)
    monkeypatch.setattr(solvers, "_SYEVR", bad_syevr)
    with pytest.raises(NumericError):
        eigenpairs(op, 2)
    # the mask is symmetric: a parity block off by 1e-6 relative solves
    # consistently, and the checks on the whole restricted operator must
    # catch it
    monkeypatch.undo()
    assert op._mirror_axes == [0]
    exact_block = DirichletOperator._block
    monkeypatch.setattr(DirichletOperator, "_block",
                        lambda self, blk: (1 + 1e-6) * exact_block(self, blk))
    fresh = restrict(base_64, op.mask)
    with pytest.raises(NumericError):
        solve_torsion(fresh)
    with pytest.raises(NumericError):
        eigenpairs(fresh, 2)
    # on a full square, a transpose-odd half off by 1e-6 relative, and the
    # odd-x block's pairs copied to its partner without the transpose, must
    # each fail the checks on the whole restricted operator
    monkeypatch.undo()
    g = build_grid(2, 2.0, 16)
    base = assemble_stiffness(g, 0.5)
    f = GridFunction(g, np.random.default_rng(2).standard_normal(g.n_cells))
    op = restrict(base, full_mask(g))
    assert op._parity[1].signs == (1, -1) * 4      # all even, transpose-odd
    lowest_odd = solvers._lowest_eigh(op._block(op._parity[1]), 1)[0][0] / g.cell_volume
    assert eigenpairs(op, 6).eigenvalues[5] == pytest.approx(lowest_odd, rel=1e-12)
    apply_resolvent(op, f)
    exact_block, exact_blocks = DirichletOperator._block, solvers._parity_blocks

    def bad_block(self, blk):
        scale = 1 + 1e-6 if blk is self._parity[1] else 1.0
        return scale * exact_block(self, blk)

    def untransposed(cells, shape, axes):
        return [replace(blk, partner=np.arange(np.count_nonzero(cells)))
                if blk.partner is not None else blk
                for blk in exact_blocks(cells, shape, axes)]

    for name, target, corrupt in (("_block", DirichletOperator, bad_block),
                                  ("_parity_blocks", solvers, untransposed)):
        monkeypatch.setattr(target, name, corrupt)
        with pytest.raises(NumericError):
            eigenpairs(restrict(base, full_mask(g)), 6)
        with pytest.raises(NumericError):
            apply_resolvent(restrict(base, full_mask(g)), f)
        monkeypatch.undo()


def test_residual_checks_fail_on_nan(base_64, monkeypatch):
    # dsyevr maps a NaN entry to lambda = 0 with zero vectors, and a NaN
    # solve gives a NaN residual: both must raise, not pass a `> tol` test
    a_mat = 2.0 * np.eye(4) + 0.1
    a_mat[1, 2] = a_mat[2, 1] = np.nan
    with pytest.raises(NumericError):
        solvers._lowest_eigh(a_mat, 2)
    op = restrict(base_64, mask_from_indices(base_64.grid, range(20, 44)))
    monkeypatch.setattr(DirichletOperator, "solve",
                        lambda self, rhs: np.full_like(rhs, np.nan))
    with pytest.raises(NumericError):
        solve_torsion(op)
    # NaN solves, or NaN factors under exact solves, give a NaN probe
    # residual in a resolvent gap
    with pytest.raises(NumericError, match="residual tolerance: nan"):
        resolvent_norm_diff(op, None)
    monkeypatch.undo()
    monkeypatch.setattr(solvers, "_potrf", lambda a_mat: np.full_like(a_mat, np.nan))
    for indices in (range(20, 44), range(20, 45)):     # parity blocks, direct path
        fresh = restrict(base_64, mask_from_indices(base_64.grid, indices))
        with pytest.raises(NumericError, match="residual tolerance: nan"):
            resolvent_norm_diff(fresh, None)
    # and the gap's dsyevr call reports info != 0 on a NaN difference
    with pytest.raises(NumericError, match="dsyevr"):
        solvers._syevr(np.full((24, 24), np.nan), compute_v=0, range="A")


def test_gap_residual_check_can_fail(base_64, monkeypatch):
    # every dpotrf fed A (1 + 1e-6): the gap's identity-column solves must
    # miss SOLVE_RTOL, on a direct-path and on a reflection-symmetric mask
    g = base_64.grid
    exact_potrf = solvers._potrf
    monkeypatch.setattr(solvers, "_potrf", lambda a_mat: exact_potrf((1 + 1e-6) * a_mat))
    for outer, symmetric in ((range(12, 50), False), (range(8, 56), True)):
        op_a = restrict(base_64, mask_from_indices(g, outer))
        op_b = restrict(base_64, mask_from_indices(g, range(14, 44)))
        assert bool(op_a._mirror_axes) == symmetric
        with pytest.raises(NumericError, match="residual tolerance") as err:
            resolvent_norm_diff(op_a, op_b)
        assert err.value.achieved == pytest.approx(1e-6, rel=1e-3)
    # on a full square, a perturbation confined to the all-odd,
    # transpose-odd block, which a linear-ramp probe would not reach
    monkeypatch.undo()
    base = assemble_stiffness(build_grid(2, 2.0, 16), 0.5)
    op = restrict(base, full_mask(base.grid))
    assert op._parity[-1].signs == (1, -1, -1, 1, -1, 1, 1, -1)
    resolvent_norm_diff(op, None)
    exact_block = DirichletOperator._block

    def bad_block(self, blk):
        scale = 1 + 1e-6 if blk is self._parity[-1] else 1.0
        return scale * exact_block(self, blk)

    monkeypatch.setattr(DirichletOperator, "_block", bad_block)
    with pytest.raises(NumericError, match="residual tolerance"):
        resolvent_norm_diff(restrict(base, full_mask(base.grid)), None)


def test_resolvent_norm_diff_vs_empty(base_64):
    mask = mask_from_indices(base_64.grid, range(20, 44))
    op = restrict(base_64, mask)
    lam1 = eigenpairs(op, 1).eigenvalues[0]
    assert resolvent_norm_diff(op, None) == pytest.approx(1.0 / lam1, rel=1e-7)
    assert resolvent_norm_diff(None, None) == 0.0
    assert resolvent_norm_diff(op, op) == 0.0


def test_resolvent_norm_diff_dense_oracle(base_64):
    g = base_64.grid
    op_a = restrict(base_64, mask_from_indices(g, range(10, 40)))
    op_b = restrict(base_64, mask_from_indices(g, range(25, 50)))
    meas = g.cell_volume
    ra = np.zeros((64, 64))
    ra[np.ix_(range(10, 40), range(10, 40))] = meas * np.linalg.inv(op_a.matrix())
    rb = np.zeros((64, 64))
    rb[np.ix_(range(25, 50), range(25, 50))] = meas * np.linalg.inv(op_b.matrix())
    expected = np.abs(eigh(ra - rb, eigvals_only=True)).max()
    assert resolvent_norm_diff(op_a, op_b) == pytest.approx(expected, rel=1e-7)


def test_bound_check_duality_and_nesting(base_64):
    g = base_64.grid
    outer = restrict(base_64, mask_from_indices(g, range(12, 52)))
    inner = restrict(base_64, mask_from_indices(g, range(12, 51)))
    rep = torsion_resolvent_bound_check(outer, inner)
    assert rep.duality_residual <= 1e-8
    assert rep.lhs >= 0 and rep.rhs >= 0
    with pytest.raises(StructuralError):
        torsion_resolvent_bound_check(inner, outer)


@pytest.mark.parametrize("outer,inner", [(range(12, 52), range(12, 51)),
                                         (range(12, 52), range(16, 48))])
def test_bound_check_factors_each_operator_once(base_64, monkeypatch, outer, inner):
    # torsion, resolvent gap and duality share each operator's factors: one
    # dpotrf per operator (per parity block on a symmetric mask), no LU
    g = base_64.grid
    ops = [restrict(base_64, mask_from_indices(g, idx)) for idx in (outer, inner)]
    calls, exact = [], solvers._POTRF

    def counted(a_mat, **kw):
        calls.append(a_mat.shape)
        return exact(a_mat, **kw)

    def no_lu(*args, **kwargs):
        raise AssertionError("a restricted matrix was LU-inverted")

    monkeypatch.setattr(solvers, "_POTRF", counted)
    monkeypatch.setattr(np.linalg, "inv", no_lu)
    torsion_resolvent_bound_check(*ops)
    assert len(calls) == sum(len(op._parity) if op._mirror_axes else 1 for op in ops)


def test_bound_check_duality_negative_control(base_64, monkeypatch):
    # one torsion function off by 1e-6 relative must break the identity
    g = base_64.grid
    outer = restrict(base_64, mask_from_indices(g, range(12, 52)))
    inner = restrict(base_64, mask_from_indices(g, range(12, 51)))
    exact = solvers.solve_torsion

    def corrupted(op):
        tor = exact(op)
        if op is not inner:
            return tor
        return replace(tor, values=GridFunction(g, tor.values.values * (1 + 1e-6)))

    monkeypatch.setattr(solvers, "solve_torsion", corrupted)
    assert torsion_resolvent_bound_check(outer, inner).duality_residual > 1e-8


def test_poincare_constant(base_64):
    # lambda_1^(-1/2), the constant of audit.check_poincare, is optimal: the
    # first eigenfunction attains ||u||_L2 = C [u]
    g = base_64.grid
    spec = eigenpairs(restrict(base_64, mask_from_indices(g, range(20, 44))), 1)
    u = spec.eigenfunctions[0]
    c = spec.eigenvalues[0] ** -0.5
    assert u.l2_norm() == pytest.approx(c * np.sqrt(gagliardo_sq(base_64, u)), rel=1e-10)
    # shrinking masks give smaller constants
    small = eigenpairs(restrict(base_64, mask_from_indices(g, range(25, 39))), 1)
    assert small.eigenvalues[0] ** -0.5 < c
