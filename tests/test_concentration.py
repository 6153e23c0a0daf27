import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracshape import concentration as cc
from fracshape.concentration import (FunctionSequence, _ball_masses, classify,
                                     cutoff_defect, dichotomy_split,
                                     flattening_bump_sequence,
                                     lieb_translation_search, make_cutoffs,
                                     make_sequence, max_length,
                                     separating_pair_sequence,
                                     translating_bump_sequence)
from fracshape.errors import (DomainEmptyError, ParameterError,
                              StructuralError)
from fracshape.forms import assemble_stiffness, gagliardo_sq
from fracshape.grid import (GridFunction, build_grid, empty_mask, full_mask,
                            mask_from_indices)


@pytest.fixture(scope="module")
def grid_128():
    return build_grid(1, 8.0, 128)


def _profile(grid, u, radii):
    """The concentration profile that `classify` reads: per radius, the
    largest L2 mass in a ball of that radius around a cell center."""
    return _ball_masses(grid, u, radii).max(axis=1).tolist()


def test_profile_zero_function(grid_128):
    u = GridFunction(grid_128, np.zeros(128))
    assert _profile(grid_128, u, [0.5, 1.0]) == [0.0, 0.0]


def test_profile_point_mass(grid_128):
    vals = np.zeros(128)
    vals[64] = 3.0
    u = GridFunction(grid_128, vals)
    mass = u.l2_norm_sq()
    prof = _profile(grid_128, u, [grid_128.h, 1.0, 4.0])
    assert prof == pytest.approx([mass] * 3)


def test_profile_two_bumps_half_mass(grid_128):
    x = grid_128.cell_centers[:, 0]
    vals = np.exp(-((x + 4) / 0.5) ** 2) + np.exp(-((x - 4) / 0.5) ** 2)
    u = GridFunction(grid_128, vals)
    total = u.l2_norm_sq()
    prof = _profile(grid_128, u, [3.0])
    assert prof[0] == pytest.approx(total / 2, rel=0.05)


def test_profile_monotone_and_bounded(grid_128):
    rng = np.random.default_rng(5)
    u = GridFunction(grid_128, rng.standard_normal(128))
    radii = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    prof = _profile(grid_128, u, radii)
    assert all(b >= a for a, b in zip(prof, prof[1:]))
    assert prof[-1] <= u.l2_norm_sq() + 1e-12


def test_profile_2d_matches_direct_sum():
    g = build_grid(2, 2.0, 12)
    rng = np.random.default_rng(8)
    u = GridFunction(g, rng.standard_normal(g.n_cells))
    r = 0.9
    prof = _profile(g, u, [r])[0]
    density = g.cell_volume * u.values ** 2
    best = max(
        density[((g.cell_centers - c) ** 2).sum(axis=1) <= r * r].sum()
        for c in g.cell_centers
    )
    assert prof == pytest.approx(best, rel=1e-12)


def test_make_sequence_rejects_wild_tail(grid_128):
    good = GridFunction(grid_128, np.ones(128))
    bad = GridFunction(grid_128, 10.0 * np.ones(128))
    with pytest.raises(StructuralError):
        make_sequence([good] * 7 + [bad])


def test_classify_preconditions():
    seq = translating_bump_sequence(0, length=8)
    with pytest.raises(ParameterError):
        classify(FunctionSequence(seq.entries[:4], seq.mass_limit), 0.1)
    with pytest.raises(ParameterError):
        classify(seq, seq.mass_limit)


@pytest.mark.parametrize("seed", [0, 7, 13])
def test_classify_three_families(seed):
    cases = [
        (translating_bump_sequence, "compactness"),
        (flattening_bump_sequence, "vanishing"),
        (separating_pair_sequence, "dichotomy"),
    ]
    for gen, expected in cases:
        seq = gen(seed)
        rep = classify(seq, 0.2 * seq.mass_limit)
        assert rep.verdict == expected, gen.__name__


@pytest.mark.parametrize("generator", ["translating-bump", "flattening-bump",
                                       "separating-pair"])
def test_max_length_meets_the_grid_budget(generator):
    # the last entry's grid at its worst-case factor fits, the next does not
    n = max_length(generator)
    factor = cc._WORST_FACTOR[generator]
    build_grid(1, 4.0, cc.BASE_RESOLUTION * factor(n - 1))
    with pytest.raises(ParameterError, match="over the budget"):
        build_grid(1, 4.0, cc.BASE_RESOLUTION * factor(n))


def test_flattening_bump_runs_to_its_max_length():
    n = max_length("flattening-bump")
    assert len(flattening_bump_sequence(0, n).entries) == n
    with pytest.raises(ParameterError, match="over the budget"):
        flattening_bump_sequence(0, n + 1)


def test_classify_compactness_tracks_translation():
    seq = translating_bump_sequence(3)
    rep = classify(seq, 0.2 * seq.mass_limit)
    assert rep.centers is not None
    xs = [c[0] for c in rep.centers]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_classify_dichotomy_alpha():
    seq = separating_pair_sequence(5)
    rep = classify(seq, 0.2 * seq.mass_limit)
    assert rep.alpha == pytest.approx(seq.mass_limit / 2, rel=0.05)


def test_cutoff_support_and_compatibility():
    phi, psi = make_cutoffs(2.0)
    assert phi(0.0) == pytest.approx(1.0)
    assert phi(6.0) == 0.0
    assert psi(0.0) == 0.0
    assert psi(6.0) == pytest.approx(1.0)
    r = np.linspace(0.0, 8.0, 2000)
    assert np.max(phi(r) ** 2 + psi(r) ** 2) <= 1.0 + 1e-12


def test_cutoff_c2_transition():
    phi, _ = make_cutoffs(1.0)
    # finite-difference second derivative stays bounded through the knots
    r = np.linspace(0.9, 2.1, 4001)
    d2 = np.diff(phi(r), 2)
    assert np.abs(d2).max() < 5e-5


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.1, max_value=50.0, allow_nan=False))
def test_cutoff_range(R):
    phi, psi = make_cutoffs(R)
    r = np.linspace(0.0, 3.0 * R, 500)
    for f in (phi, psi):
        vals = f(r)
        assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_cutoff_defect_zero_function(grid_128):
    base = assemble_stiffness(grid_128, 0.5)
    u = GridFunction(grid_128, np.zeros(128))
    assert cutoff_defect(base, u, [0.0], 2.0) == 0.0


def test_cutoff_defect_inside_plateau(grid_128):
    # u supported where phi = 1: the defect reduces to the nonlocal leakage
    # from beyond the cutoff, a small O(R^(-2s)) fraction of the energy
    base = assemble_stiffness(grid_128, 0.5)
    vals = np.zeros(128)
    mask = np.abs(grid_128.cell_centers[:, 0]) < 1.0
    vals[mask] = 1.0
    u = GridFunction(grid_128, vals)
    energy = gagliardo_sq(base, u)
    defect = cutoff_defect(base, u, [0.0], 3.0)
    assert defect <= 0.05 * energy
    assert defect < 0.5 * cutoff_defect(base, u, [0.0], 1.0)


def test_cutoff_defect_decay(grid_128):
    base = assemble_stiffness(grid_128, 0.5)
    u = GridFunction(grid_128, np.exp(-grid_128.cell_centers[:, 0] ** 2))
    defects = [cutoff_defect(base, u, [0.0], R) for R in (1.0, 2.0, 4.0)]
    assert defects[0] > defects[1] > defects[2]


def test_dichotomy_split_requires_separated_radii(grid_128):
    base = assemble_stiffness(grid_128, 0.5)
    u = GridFunction(grid_128, np.ones(128))
    with pytest.raises(ParameterError):
        dichotomy_split(base, u, [0.0], 2.0, 3.0)


def test_dichotomy_split_near_support(grid_128):
    base = assemble_stiffness(grid_128, 0.5)
    vals = np.where(np.abs(grid_128.cell_centers[:, 0]) < 1.0, 1.0, 0.0)
    u = GridFunction(grid_128, vals)
    sp = dichotomy_split(base, u, [0.0], 1.5, 4.0)
    assert np.array_equal(sp.v.values, u.values)
    assert np.all(sp.w.values == 0.0)
    assert sp.mass_residual == 0.0
    assert sp.seminorm_defect >= -1e-10


def test_dichotomy_split_far_support(grid_128):
    base = assemble_stiffness(grid_128, 0.5)
    vals = np.where(grid_128.cell_centers[:, 0] > 6.0, 1.0, 0.0)
    u = GridFunction(grid_128, vals)
    sp = dichotomy_split(base, u, [0.0], 1.0, 2.5)
    assert np.all(sp.v.values == 0.0)
    assert np.array_equal(sp.w.values, u.values)


def test_dichotomy_split_two_bumps():
    g = build_grid(1, 32.0, 512)
    base = assemble_stiffness(g, 0.5)
    x = g.cell_centers[:, 0]
    one = np.exp(-x ** 2)
    u = GridFunction(g, one + np.exp(-(x - 12.0) ** 2))
    sp = dichotomy_split(base, u, [0.0], 2.0, 5.0)
    bump_mass = GridFunction(g, one).l2_norm_sq()
    assert sp.v.l2_norm_sq() == pytest.approx(bump_mass, rel=0.05)
    assert sp.w.l2_norm_sq() == pytest.approx(bump_mass, rel=0.05)
    assert not np.any((sp.v.values != 0) & (sp.w.values != 0))
    assert sp.support_gap > 0
    ann = (np.abs(x) >= 2.0) & (np.abs(x) <= 10.0)
    ann_mass = np.sqrt(g.cell_volume * (u.values[ann] ** 2).sum())
    assert sp.mass_residual <= ann_mass + 1e-12
    tol = 2.0 * (cutoff_defect(base, u, [0.0], 2.0)
                 + cutoff_defect(base, u, [0.0], 5.0))
    assert sp.seminorm_defect >= -2.0 * tol


def test_lieb_identical_masks(grid_128):
    base = assemble_stiffness(grid_128, 0.5)
    mask = mask_from_indices(grid_128, range(50, 70))
    res = lieb_translation_search(base, mask, mask)
    # z = 0 certainly satisfies the bound, so the scan must succeed; the
    # returned z is the lexicographically first satisfying shift
    assert res.satisfied
    assert res.lambda1_intersection <= res.bound


def test_lieb_single_cell_vs_full():
    g = build_grid(1, 4.0, 64)
    base = assemble_stiffness(g, 0.5)
    cell = mask_from_indices(g, [10])
    res = lieb_translation_search(base, cell, full_mask(g))
    assert res.satisfied
    assert res.lambda1_intersection == pytest.approx(
        base.diag[10 + int(res.z[0])] / g.cell_volume, rel=1e-12)


def test_lieb_empty_inputs(grid_128):
    base = assemble_stiffness(grid_128, 0.5)
    with pytest.raises(DomainEmptyError):
        lieb_translation_search(base, empty_mask(grid_128),
                                full_mask(grid_128))


def test_lieb_random_pairs():
    g = build_grid(1, 4.0, 64)
    base = assemble_stiffness(g, 0.5)
    rng = np.random.default_rng(21)
    for _ in range(10):
        # bounded extent keeps in-box overlapping shifts available
        sa, sb = rng.integers(0, 40, 2)
        a = mask_from_indices(g, sa + rng.choice(24, rng.integers(4, 13), replace=False))
        b = mask_from_indices(g, sb + rng.choice(24, rng.integers(4, 13), replace=False))
        assert lieb_translation_search(base, a, b).satisfied
