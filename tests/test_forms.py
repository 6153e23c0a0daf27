import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracshape.errors import BudgetError, NumericError, ParameterError
from fracshape.forms import (adjacent_correction_factor, assemble_stiffness,
                             fourier_seminorm_sq, gagliardo_sq,
                             make_frac_params, normalization_constant,
                             weighted_gagliardo_sq)
from fracshape.grid import GridFunction, build_grid, full_mask
from fracshape.solvers import eigenpairs, restrict


def brute_force_pair_energy(grid, s, u, corrected=True):
    """Independent double loop over unordered cell pairs."""
    centers = grid.cell_centers
    factor = adjacent_correction_factor(s, grid.dim) if corrected else 1.0
    total = 0.0
    m = grid.n_cells
    multi = grid.multi_index(np.arange(m))
    for i in range(m):
        for j in range(i + 1, m):
            d = np.sqrt(((centers[i] - centers[j]) ** 2).sum())
            k = grid.h ** (2 * grid.dim) * d ** (-(grid.dim + 2 * s))
            if np.abs(multi[i] - multi[j]).sum() == 1:
                k *= factor
            total += k * (u[i] - u[j]) ** 2
    return total


def midpoint_norm_integral(s, dim, n):
    """Midpoint quadrature for the kernel integral defining 1/C(s, dim).

    Taylor head below delta, fine midpoint panel up to the crossover, coarse
    midpoint panel to the truncation radius, analytic remainder beyond.
    """
    from scipy.special import j0

    def f(t):
        if dim == 1:
            return 2.0 * (1.0 - np.cos(t)) * t ** (-1.0 - 2.0 * s)
        return 2.0 * np.pi * (1.0 - j0(t)) * t ** (-1.0 - 2.0 * s)

    delta, cross, top = 1e-5, 20.0, 4e4
    total = (1.0 if dim == 1 else np.pi / 2.0) * delta ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    for a, b in ((delta, cross), (cross, top)):
        t = np.linspace(a, b, n, endpoint=False) + (b - a) / (2 * n)
        total += (b - a) / n * f(t).sum()
    sigma = 2.0 if dim == 1 else 2.0 * np.pi
    total += sigma * top ** (-2.0 * s) / (2.0 * s)
    return float(total)


@pytest.mark.parametrize("dim,s", [(1, 0.3), (1, 0.5), (1, 0.7), (2, 0.4), (2, 0.6)])
def test_normalization_constant_quadrature_doubling(dim, s):
    c = normalization_constant(s, dim)
    errs = [abs(1.0 / midpoint_norm_integral(s, dim, n) - c) / c
            for n in (1_000_000, 2_000_000)]
    assert errs[1] < 1e-4
    assert errs[1] < errs[0]


def test_normalization_constant_rejects_bad_s():
    with pytest.raises(ParameterError):
        normalization_constant(0.0, 1)
    with pytest.raises(ParameterError):
        normalization_constant(1.0, 2)


def test_adjacent_coupling_raw_value():
    # two adjacent unit cells: distance h, coupling h^2 * h^-2 = 1 before
    # the near-field correction
    g = build_grid(1, 1.0, 2)
    op = assemble_stiffness(g, 0.5)
    factor = adjacent_correction_factor(0.5, 1)
    assert op.offdiag[0, 1] / factor == pytest.approx(1.0, rel=1e-14)
    assert factor == pytest.approx(1.5, rel=1e-12)


def test_assembly_budget():
    with pytest.raises(BudgetError):
        assemble_stiffness(build_grid(1, 4.0, 8192), 0.5)


@pytest.mark.parametrize("dim,res,s", [(1, 32, 0.3), (1, 32, 0.7), (2, 6, 0.5)])
def test_gagliardo_matches_brute_force(dim, res, s):
    g = build_grid(dim, 2.0, res)
    op = assemble_stiffness(g, s)
    rng = np.random.default_rng(42)
    for _ in range(5):
        vals = rng.standard_normal(g.n_cells)
        u = GridFunction(g, vals)
        expected = brute_force_pair_energy(g, s, vals) + np.dot(op.tail, vals ** 2)
        assert gagliardo_sq(op, u) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("resolution", [64, 63])
def test_diagonal_translation_invariant(resolution):
    # the box is only a computational frame; d_i must not depend on where
    # the cell sits in it
    g = build_grid(1, 4.0, resolution)
    op = assemble_stiffness(g, 0.5)
    d = op.diag
    assert (d.max() - d.min()) / d.mean() < 1e-6


@pytest.mark.parametrize("dim,resolutions", [(1, range(60, 67)), (2, range(12, 17))],
                         ids=["1d", "2d"])
def test_lambda1_smooth_across_parity(dim, resolutions):
    # lambda_1 of the full box converges in h from below: it must rise with
    # shrinking increments over consecutive resolutions of both parities
    lam = []
    for r in resolutions:
        g = build_grid(dim, 4.0, r)
        op = assemble_stiffness(g, 0.5)
        lam.append(eigenpairs(restrict(op, full_mask(g)), 1).eigenvalues[0])
    steps = np.diff(lam)
    assert np.all(steps > 0)
    assert np.all(np.diff(steps) < 0)


def test_fourier_identity_gaussian():
    for s in (0.3, 0.5, 0.7):
        g = build_grid(1, 8.0, 256)
        u = GridFunction(g, np.exp(-g.cell_centers[:, 0] ** 2))
        op = assemble_stiffness(g, s)
        gag = gagliardo_sq(op, u)
        fou = fourier_seminorm_sq(g, make_frac_params(s, 1), u)
        assert abs(fou - gag) / gag < 0.05


def test_fourier_identity_2d():
    g = build_grid(2, 4.0, 48)
    u = GridFunction(g, np.exp(-(g.cell_centers ** 2).sum(axis=1)))
    op = assemble_stiffness(g, 0.5)
    gag = gagliardo_sq(op, u)
    fou = fourier_seminorm_sq(g, make_frac_params(0.5, 2), u)
    assert abs(fou - gag) / gag < 0.05


def test_weighted_form_unit_weight_equals_plain():
    g = build_grid(1, 4.0, 48)
    op = assemble_stiffness(g, 0.5)
    rng = np.random.default_rng(3)
    u = GridFunction(g, rng.standard_normal(48))
    w = weighted_gagliardo_sq(op, u, np.ones(48))
    assert w == pytest.approx(gagliardo_sq(op, u), rel=1e-12)


def test_weighted_form_bounded_by_plain():
    g = build_grid(1, 4.0, 48)
    op = assemble_stiffness(g, 0.5)
    rng = np.random.default_rng(4)
    u = GridFunction(g, rng.standard_normal(48))
    weights = rng.uniform(0.0, 1.0, 48)
    assert weighted_gagliardo_sq(op, u, weights) <= gagliardo_sq(op, u) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.integers(min_value=0, max_value=1_000_000))
def test_gagliardo_homogeneity_and_positivity(scale, seed):
    g = build_grid(1, 2.0, 24)
    op = assemble_stiffness(g, 0.5)
    vals = np.random.default_rng(seed).standard_normal(24)
    q = gagliardo_sq(op, GridFunction(g, vals))
    q_scaled = gagliardo_sq(op, GridFunction(g, scale * vals))
    assert q >= 0.0
    assert q_scaled == pytest.approx(scale ** 2 * q, rel=1e-10, abs=1e-12)


def test_stiffness_symmetry_and_signs():
    for dim, res in [(1, 48), (2, 8)]:
        op = assemble_stiffness(build_grid(dim, 2.0, res), 0.4)
        assert np.abs(op.offdiag - op.offdiag.T).max() == 0.0
        assert np.all(op.offdiag >= 0.0)
        assert np.all(op.tail > 0.0)
        assert np.all(np.diag(op.offdiag) == 0.0)


def test_fourier_rejects_wrong_params():
    g = build_grid(1, 4.0, 32)
    u = GridFunction(g, np.ones(32))
    with pytest.raises(ParameterError):
        fourier_seminorm_sq(g, make_frac_params(0.5, 2), u)
