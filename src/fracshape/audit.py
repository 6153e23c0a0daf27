"""Randomized inequality audit for the discrete model.

Each check draws instances from a seeded generator, measures the slack of
one inequality or convention, and fails if any instance violates it beyond
the stated tolerance.  The suite is the regression oracle for the bounds
the solvers are supposed to satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concentration import cutoff_defect, lieb_translation_search
from .forms import StiffnessOperator, assemble_stiffness, gagliardo_sq
from .grid import GridFunction, build_grid, empty_mask, mask_from_indices
from .solvers import (eigenpairs, eigenvalues_or_inf, resolvent_norm_diff,
                      restrict, solve_torsion, torsion_resolvent_bound_check)

TRIALS = 20                    # random instances per check
PROJECTION_PAIRS = 5           # nested pairs of the projection check ...
PROJECTION_COMPETITORS = 20    # ... and competitors drawn per pair
LIEB_TRIALS = 10               # mask pairs of the Lieb check


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_slack: float   # most negative margin observed (>= 0 means pass)
    detail: str


def _random_mask(rng, grid, lo=4, hi=24):
    n = int(rng.integers(lo, hi + 1))
    return mask_from_indices(grid, rng.choice(grid.n_cells, n, replace=False))


def _nested_pair(rng, grid, lo=6, hi=24):
    outer = _random_mask(rng, grid, lo, hi)
    idx = outer.active_indices
    keep = max(2, idx.size - int(rng.integers(1, max(2, idx.size // 2))))
    inner = mask_from_indices(grid, rng.choice(idx, keep, replace=False))
    return inner, outer


def check_torsion_nonnegative(base: StiffnessOperator, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(TRIALS):
        mask = _random_mask(rng, base.grid)
        w = solve_torsion(restrict(base, mask)).values.values
        worst = min(worst, float(w.min()) + 1e-12)
    return CheckResult("torsion_nonnegative", worst >= 0, worst,
                       "maximum principle: min torsion value >= -1e-12")


def check_torsion_monotonicity(base, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(TRIALS):
        inner, outer = _nested_pair(rng, base.grid)
        w_in = solve_torsion(restrict(base, inner)).values.values
        w_out = solve_torsion(restrict(base, outer)).values.values
        worst = min(worst, float((w_out - w_in).min()) + 1e-10)
    return CheckResult("torsion_monotonicity", worst >= 0, worst,
                       "nested masks: inner torsion <= outer torsion + 1e-10")


def check_eigenvalue_monotonicity(base, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(TRIALS):
        inner, outer = _nested_pair(rng, base.grid)
        k = min(3, inner.n_active, outer.n_active)
        lam_in = eigenpairs(restrict(base, inner), k).eigenvalues
        lam_out = eigenpairs(restrict(base, outer), k).eigenvalues
        worst = min(worst, float((lam_in - lam_out).min()) + 1e-8)
    return CheckResult("eigenvalue_monotonicity", worst >= 0, worst,
                       "nested masks: lambda_k(inner) >= lambda_k(outer) - 1e-8")


def check_energy_identity(base, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    meas = base.grid.cell_volume
    for _ in range(TRIALS):
        mask = _random_mask(rng, base.grid)
        w = solve_torsion(restrict(base, mask)).values
        energy = gagliardo_sq(base, w)
        integral = meas * w.values.sum()
        rel = abs(energy - integral) / max(integral, 1e-300)
        worst = min(worst, 1e-8 - rel)
    return CheckResult("energy_identity", worst >= 0, worst,
                       "[w]^2 equals the integral of w within 1e-8 relative")


def check_dunford(base, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(TRIALS):
        inner, outer = _nested_pair(rng, base.grid)
        op_in, op_out = restrict(base, inner), restrict(base, outer)
        k = min(3, inner.n_active, outer.n_active)
        lam_in = eigenpairs(op_in, k).eigenvalues
        lam_out = eigenpairs(op_out, k).eigenvalues
        gap = resolvent_norm_diff(op_in, op_out)
        slack = gap + 1e-8 - np.abs(1.0 / lam_in - 1.0 / lam_out).max()
        worst = min(worst, float(slack))
    return CheckResult("dunford", worst >= 0, worst,
                       "|1/lambda_k(inner) - 1/lambda_k(outer)| <= resolvent gap + 1e-8")


def check_projection(base, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    grid = base.grid
    for _ in range(PROJECTION_PAIRS):
        inner, outer = _nested_pair(rng, grid)
        w_in = solve_torsion(restrict(base, inner)).values
        w_out = solve_torsion(restrict(base, outer)).values
        diff = GridFunction(grid, w_out.values - w_in.values)
        q_best = gagliardo_sq(base, diff)
        for _ in range(PROJECTION_COMPETITORS):
            vals = np.zeros(grid.n_cells)
            vals[inner.active_indices] = rng.standard_normal(inner.n_active)
            v = GridFunction(grid, vals)
            q = gagliardo_sq(base, GridFunction(grid, w_out.values - v.values))
            worst = min(worst, float(q + 1e-9 - q_best))
    return CheckResult("projection", worst >= 0, worst,
                       "w_inner is the Q-nearest competitor supported inside")


def check_duality(base, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(TRIALS):
        inner, outer = _nested_pair(rng, base.grid)
        rep = torsion_resolvent_bound_check(restrict(base, outer),
                                            restrict(base, inner))
        worst = min(worst, 1e-8 - rep.duality_residual)
    return CheckResult("duality", worst >= 0, worst,
                       "duality identity residual <= 1e-8 on nested pairs")


def check_poincare(base, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    grid = base.grid
    for _ in range(TRIALS):
        mask = _random_mask(rng, grid)
        lam1 = eigenpairs(restrict(base, mask), 1).eigenvalues[0]
        c = 1.0 / np.sqrt(lam1)
        vals = np.zeros(grid.n_cells)
        vals[mask.active_indices] = rng.standard_normal(mask.n_active)
        u = GridFunction(grid, vals)
        slack = c * np.sqrt(gagliardo_sq(base, u)) * (1 + 1e-10) - u.l2_norm()
        worst = min(worst, float(slack))
    return CheckResult("poincare", worst >= 0, worst,
                       "||u||_L2 <= lambda_1^(-1/2) [u] for u supported in the mask")


def check_cutoff_decay(base, seed) -> CheckResult:
    grid = base.grid
    x = grid.cell_centers
    u = GridFunction(grid, np.exp(-(x ** 2).sum(axis=1)))
    # for R well below the test Gaussian's unit width the defect can still
    # rise with R (2D, s = 1/2: 8.65 at R = 1/4, 9.71 at R = 1/2)
    top = grid.half_width / 2.0
    radii = [top / 4.0, top / 2.0, top]
    defects = [cutoff_defect(base, u, np.zeros(grid.dim), r) for r in radii]
    worst = min(a - b for a, b in zip(defects, defects[1:]))
    return CheckResult("cutoff_decay", worst > 0, float(worst),
                       "localization defect strictly decreases as R doubles")


def check_lieb(base, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    grid = base.grid
    window = max(4, grid.n_cells // 3)
    for _ in range(LIEB_TRIALS):
        # bounded extent keeps in-box overlapping shifts available
        starts = rng.integers(0, grid.n_cells - window, 2)
        a = mask_from_indices(grid, starts[0] + rng.choice(
            window, int(rng.integers(4, window // 2)), replace=False))
        b = mask_from_indices(grid, starts[1] + rng.choice(
            window, int(rng.integers(4, window // 2)), replace=False))
        res = lieb_translation_search(base, a, b)
        worst = min(worst, res.bound - res.lambda1_intersection)
    return CheckResult("lieb", worst >= 0, float(worst),
                       "some shift gives lambda1(A_z cap B) <= 2(l1(A)+l1(B))")


def check_empty_set_conventions(base, seed) -> CheckResult:
    lam = eigenvalues_or_inf(base, empty_mask(base.grid), 3)
    inf_ok = bool(np.all(np.isinf(lam)))
    rng = np.random.default_rng(seed)
    mask = _random_mask(rng, base.grid)
    op = restrict(base, mask)
    nd = resolvent_norm_diff(op, None)
    lam1 = eigenpairs(op, 1).eigenvalues[0]
    rel = abs(nd - 1.0 / lam1) * lam1
    ok = inf_ok and rel <= 1e-7
    return CheckResult("empty_set_conventions", ok, float(1e-7 - rel),
                       "empty mask: lambda = +inf and null resolvent norm = 1/lambda_1")


def check_stiffness_symmetry(base, seed) -> CheckResult:
    a = base.matrix()
    off = np.where(np.eye(len(a), dtype=bool), -np.inf, a)
    slack = min(1e-14 * float(np.abs(a).max()) - float(np.abs(a - a.T).max()),
                -float(off.max()), float(base.tail.min()))
    return CheckResult("stiffness_symmetry", slack > 0, slack,
                       "box matrix symmetric, off-diagonal < 0, tail > 0")


ALL_CHECKS = [
    check_stiffness_symmetry,
    check_torsion_nonnegative,
    check_torsion_monotonicity,
    check_eigenvalue_monotonicity,
    check_energy_identity,
    check_dunford,
    check_projection,
    check_duality,
    check_poincare,
    check_cutoff_decay,
    check_lieb,
    check_empty_set_conventions,
]


def check_names() -> list:
    return [fn.__name__.removeprefix("check_") for fn in ALL_CHECKS]


def bounds_audit(base: StiffnessOperator | None = None, seed: int = 0,
                 checks: list | None = None) -> list:
    """Run the inequality suite; returns a CheckResult per check."""
    if base is None:
        base = assemble_stiffness(build_grid(1, 4.0, 64), 0.5)
    selected = [fn for fn, name in zip(ALL_CHECKS, check_names())
                if checks is None or name in checks]
    return [fn(base, seed) for fn in selected]
