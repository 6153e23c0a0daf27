"""End-to-end acceptance suite.

One test per guaranteed property, each printing a single PASS line with the
quantity it measured.  Tolerances are stated inline next to the asserts.
"""

import json

import numpy as np
import pytest

from fracshape.concentration import (cutoff_defect, dichotomy_split,
                                     flattening_bump_sequence,
                                     lieb_translation_search,
                                     separating_pair_sequence,
                                     translating_bump_sequence, classify)
from fracshape.cli import run_experiment
from fracshape.forms import (FracParams, adjacent_correction_factor,
                             assemble_stiffness, fourier_seminorm_sq,
                             gagliardo_sq)
from fracshape.grid import (DomainMask, GridFunction, build_grid,
                            mask_from_indices)
from fracshape.shapeopt import (ball_mask, connected_components,
                                detect_dichotomy, eval_functional,
                                make_functional, minimize_shape,
                                two_ball_experiment)
from fracshape.solvers import (eigenpairs, resolvent_norm_diff, restrict,
                               solve_torsion, torsion_resolvent_bound_check)


def _oracle_couplings(grid, s):
    """Double loop over unordered cell pairs, straight from the kernel."""
    centers = grid.cell_centers
    multi = grid.multi_index(np.arange(grid.n_cells))
    factor = adjacent_correction_factor(s, grid.dim)
    k = np.zeros((grid.n_cells, grid.n_cells))
    for i in range(grid.n_cells):
        for j in range(i + 1, grid.n_cells):
            d = np.sqrt(((centers[i] - centers[j]) ** 2).sum())
            kij = grid.h ** (2 * grid.dim) * d ** (-(grid.dim + 2 * s))
            if np.abs(multi[i] - multi[j]).sum() == 1:
                kij *= factor
            k[i, j] = k[j, i] = kij
    return k


def test_criterion_01_gagliardo_brute_force():
    # 20 random functions per grid, relative agreement 1e-12
    worst = 0.0
    rng = np.random.default_rng(100)
    for dim, res in ((1, 128), (2, 16)):
        g = build_grid(dim, 4.0, res)
        op = assemble_stiffness(g, 0.55)
        k = _oracle_couplings(g, 0.55)
        for _ in range(20):
            u = rng.standard_normal(g.n_cells)
            du = u[:, None] - u[None, :]
            expected = 0.5 * float((k * du ** 2).sum()) + float(op.tail @ u ** 2)
            got = gagliardo_sq(op, GridFunction(g, u))
            worst = max(worst, abs(got - expected) / expected)
    assert worst <= 1e-12
    print(f"\ncriterion 1 (gagliardo brute force): PASS, worst rel err {worst:.2e}")


def test_criterion_02_fourier_identity():
    # relative discrepancy <= 0.05 at each s and shrinking on doubling
    worst = 0.0
    for s in (0.3, 0.5, 0.7):
        errs = []
        for half_width, res in ((8.0, 256), (16.0, 512)):
            g = build_grid(1, half_width, res)
            u = GridFunction(g, np.exp(-g.cell_centers[:, 0] ** 2))
            gag = gagliardo_sq(assemble_stiffness(g, s), u)
            fou = fourier_seminorm_sq(g, FracParams(s, 1), u)
            errs.append(abs(fou - gag) / gag)
        assert errs[0] <= 0.05 and errs[1] <= 0.05
        assert errs[1] < errs[0]
        worst = max(worst, errs[0])
    print(f"criterion 2 (fourier identity): PASS, worst rel err {worst:.2e}")


@pytest.fixture(scope="module")
def bases():
    return (assemble_stiffness(build_grid(1, 4.0, 64), 0.5),
            assemble_stiffness(build_grid(2, 2.0, 12), 0.5))


def _random_mask(rng, grid, lo, hi):
    n = int(rng.integers(lo, hi + 1))
    return mask_from_indices(grid, rng.choice(grid.n_cells, n, replace=False))


@pytest.fixture(scope="module")
def nested_pairs(bases):
    rng = np.random.default_rng(200)
    pairs = []
    for base in bases:
        for _ in range(25):
            outer = _random_mask(rng, base.grid, 10, 32)
            idx = outer.active_indices
            keep = int(rng.integers(4, idx.size))
            inner = mask_from_indices(base.grid,
                                      rng.choice(idx, keep, replace=False))
            pairs.append((base, inner, outer))
    return pairs


def test_criterion_03_spectral_structure(bases):
    rng = np.random.default_rng(300)
    for base in bases:
        k_full = base.matrix()
        assert np.abs(k_full - k_full.T).max() == 0.0
        for _ in range(25):
            op = restrict(base, _random_mask(rng, base.grid, 4, 32))
            k = min(3, op.n_active)
            spec = eigenpairs(op, k)
            assert spec.eigenvalues[0] > 0.0
            assert np.all(spec.residuals <= 1e-8)
            vecs = np.column_stack([f.values for f in spec.eigenfunctions])
            gram = base.grid.cell_volume * vecs.T @ vecs
            assert np.abs(gram - np.eye(k)).max() <= 1e-8
            assert spec.eigenfunctions[0].values.min() >= -1e-10
    print("criterion 3 (spectral structure): PASS on 50 masks")


def test_criterion_04_domain_monotonicity(nested_pairs):
    assert len(nested_pairs) == 50
    for base, inner, outer in nested_pairs:
        k = min(3, inner.n_active)
        lam_in = eigenpairs(restrict(base, inner), k).eigenvalues
        lam_out = eigenpairs(restrict(base, outer), k).eigenvalues
        assert np.all(lam_in >= lam_out - 1e-8)
        w_in = solve_torsion(restrict(base, inner)).values.values
        w_out = solve_torsion(restrict(base, outer)).values.values
        assert np.all(w_in <= w_out + 1e-10)
    print("criterion 4 (domain monotonicity): PASS on 50 nested pairs")


def test_criterion_05_dunford_inequality(nested_pairs):
    worst = np.inf
    for base, inner, outer in nested_pairs:
        op_in, op_out = restrict(base, inner), restrict(base, outer)
        k = min(3, inner.n_active)
        lam_in = eigenpairs(op_in, k).eigenvalues
        lam_out = eigenpairs(op_out, k).eigenvalues
        gap = resolvent_norm_diff(op_in, op_out)
        slack = gap + 1e-8 - np.abs(1.0 / lam_in - 1.0 / lam_out).max()
        worst = min(worst, float(slack))
        assert slack >= 0.0
    print(f"criterion 5 (dunford inequality): PASS, smallest slack {worst:.2e}")


def test_criterion_06_projection_property(nested_pairs):
    rng = np.random.default_rng(600)
    for base, inner, outer in nested_pairs[:10]:
        grid = base.grid
        w_in = solve_torsion(restrict(base, inner)).values
        w_out = solve_torsion(restrict(base, outer)).values
        q_best = gagliardo_sq(base, GridFunction(grid,
                                                 w_out.values - w_in.values))
        for _ in range(100):
            vals = np.zeros(grid.n_cells)
            vals[inner.active_indices] = rng.standard_normal(inner.n_active)
            q = gagliardo_sq(base, GridFunction(grid, w_out.values - vals))
            assert q_best <= q + 1e-9
    print("criterion 6 (projection property): PASS, 10 pairs x 100 competitors")


def test_criterion_07_duality_and_cotrend(nested_pairs, bases):
    worst = 0.0
    for base, inner, outer in nested_pairs[:20]:
        rep = torsion_resolvent_bound_check(restrict(base, outer),
                                            restrict(base, inner))
        worst = max(worst, rep.duality_residual)
        assert rep.duality_residual <= 1e-8
    base = bases[0]
    g = base.grid
    outer_op = restrict(base, mask_from_indices(g, range(12, 52)))
    pairs = []
    for drop in (16, 8, 4, 2):
        inner_op = restrict(base, mask_from_indices(g, range(12, 52 - drop)))
        rep = torsion_resolvent_bound_check(outer_op, inner_op)
        pairs.append((rep.lhs, rep.rhs))
    lhs, rhs = zip(*pairs)
    assert all(b < a for a, b in zip(lhs, lhs[1:]))
    assert all(b < a for a, b in zip(rhs, rhs[1:]))
    print(f"criterion 7 (duality identity): PASS, worst residual {worst:.2e}, "
          f"resolvent gaps {lhs[0]:.3e} -> {lhs[-1]:.3e} co-trend with torsion "
          f"distances {rhs[0]:.3e} -> {rhs[-1]:.3e}")


def test_criterion_08_two_ball_gap():
    g = build_grid(1, 32.0, 512)
    h = g.h
    rows = two_ball_experiment(g, 0.5, 64 * g.cell_volume,
                               [d * h for d in (8, 16, 32, 64, 128)])
    gaps = [r["gap"] for r in rows]
    assert all(gp > 0 for gp in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    ratio = gaps[-1] / gaps[0]
    assert ratio <= 0.1
    print(f"criterion 8 (two-ball gap): PASS, gap(128)/gap(8) = {ratio:.3f}")


def test_criterion_09_dichotomy_and_compactness_signatures():
    g = build_grid(1, 8.0, 128)
    base = assemble_stiffness(g, 0.5)
    c = 24

    spec2 = make_functional("l2", 2, "l2")
    for seed in range(10):
        traj = minimize_shape(spec2, base, c * g.cell_volume, 10000, seed)
        comps = connected_components(traj.masks[-1])
        assert len(comps) == 2, f"seed {seed}: {len(comps)} clusters"
        for comp in comps:
            assert abs(comp.size - c / 2) <= 2, f"seed {seed}"

    def two_ball(d_cells, cells_each=c // 2):
        off = (d_cells * g.h) / 2 + cells_each * g.h / 2
        a = ball_mask(g, [-off], cells_each * g.h)
        b = ball_mask(g, [off], cells_each * g.h)
        return DomainMask(g, a.cells | b.cells)

    synthetic = [two_ball(d) for d in (4, 8, 16, 32)]
    assert detect_dichotomy(synthetic, base).verdict == "dichotomy"

    spec1 = make_functional("l1", 1, "l1")
    oracle = min(
        eval_functional(spec1, base, mask_from_indices(g, range(p, p + c)))
        for p in range(g.n_cells - c + 1))
    traj = minimize_shape(spec1, base, c * g.cell_volume, 10000, seed=0)
    assert len(connected_components(traj.masks[-1])) == 1
    rel = traj.values[-1] / oracle - 1.0
    assert rel <= 0.01
    assert detect_dichotomy([traj.masks[-1]] * 4, base).verdict == "compactness"
    print(f"criterion 9 (optimizer signatures): PASS, 10/10 two-cluster runs, "
          f"control within {rel:.2e} of interval oracle")


def test_criterion_10_trichotomy_classifier():
    cases = [
        (translating_bump_sequence, "compactness"),
        (flattening_bump_sequence, "vanishing"),
        (separating_pair_sequence, "dichotomy"),
    ]
    hits = 0
    worst_alpha = 0.0
    for gen, expected in cases:
        for seed in range(20):
            seq = gen(seed)
            rep = classify(seq, 0.2 * seq.mass_limit)
            assert rep.verdict == expected, f"{gen.__name__} seed {seed}"
            hits += 1
            if expected == "dichotomy":
                rel = abs(rep.alpha - seq.mass_limit / 2) / (seq.mass_limit / 2)
                worst_alpha = max(worst_alpha, rel)
                assert rel <= 0.05
    assert hits == 60
    print(f"criterion 10 (trichotomy classifier): PASS 60/60, "
          f"worst alpha error {worst_alpha:.2%}")


def test_criterion_11_cutoff_defect_decay():
    g = build_grid(1, 32.0, 512)
    base = assemble_stiffness(g, 0.5)
    u = GridFunction(g, np.exp(-g.cell_centers[:, 0] ** 2))
    defects = [cutoff_defect(base, u, [0.0], R) for R in (2.0, 4.0, 8.0, 16.0)]
    assert all(b < a for a, b in zip(defects, defects[1:]))

    worst = np.inf
    for seed in range(20):
        seq = separating_pair_sequence(seed)
        for n, u in enumerate(seq.entries):
            if n == 0:
                continue  # bumps too close for disjoint cutoff scales
            gg = u.grid
            op = assemble_stiffness(gg, 0.5)
            d = 4.0 * (2 * (n + 1) - 1)
            r1, r2 = 2.0, d / 2.0 - 2.0
            sp = dichotomy_split(op, u, [0.0], r1, r2)
            budget = 2.0 * (cutoff_defect(op, u, [0.0], r1)
                            + cutoff_defect(op, u, [0.0], r2))
            worst = min(worst, float(sp.seminorm_defect + budget))
            assert sp.seminorm_defect >= -budget
    print(f"criterion 11 (cutoff defect decay): PASS, smallest split slack "
          f"{worst:.2e}")


def test_criterion_12_lieb_translation():
    g = build_grid(1, 4.0, 64)
    base = assemble_stiffness(g, 0.5)
    rng = np.random.default_rng(1200)
    hits = 0
    for _ in range(50):
        # bounded extent keeps in-box overlapping shifts available
        sa, sb = rng.integers(0, 40, 2)
        a = mask_from_indices(g, sa + rng.choice(24, int(rng.integers(4, 13)),
                                                 replace=False))
        b = mask_from_indices(g, sb + rng.choice(24, int(rng.integers(4, 13)),
                                                 replace=False))
        res = lieb_translation_search(base, a, b)
        assert res.satisfied
        assert res.lambda1_intersection <= res.bound
        hits += 1
    assert hits == 50
    print("criterion 12 (lieb translation): PASS 50/50")


def test_criterion_13_reproducibility(tmp_path):
    configs = [
        ("minimize", {"grid": {"dim": 1, "half_width": 4.0, "resolution": 64},
                      "s": 0.5, "volume_cells": 8, "iterations": 200,
                      "seeds": [0, 1],
                      "functional": {"name": "l1", "k": 1, "combiner": "l1"}}),
        ("classify", {"generator": "separating-pair", "seeds": [3],
                      "length": 8}),
    ]
    for kind, cfg in configs:
        b1 = run_experiment(kind, cfg, tmp_path / kind / "r1")
        b2 = run_experiment(kind, cfg, tmp_path / kind / "r2")
        for f1, f2 in zip(b1["files"], b2["files"]):
            assert f1.read_bytes() == f2.read_bytes()
        m1 = json.loads((tmp_path / kind / "r1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / kind / "r2" / "manifest.json").read_text())
        assert m1["files"] == m2["files"]
    print("criterion 13 (reproducibility): PASS, byte-identical reruns")
