"""Randomized inequality audit for the discrete model.

Each check draws instances from a seeded generator, measures the slack of
one inequality or convention, and fails if any instance violates it beyond
the stated tolerance.  The suite is the regression oracle for the bounds
the solvers are supposed to satisfy.

Every check starts a fresh `default_rng(seed)`, so checks that draw alike
see the same instances: torsion_monotonicity, eigenvalue_monotonicity,
dunford and duality the same 20 nested pairs; torsion_nonnegative and
energy_identity the same 20 masks; projection, poincare and
empty_set_conventions share their first instance with these.  One audit
therefore draws and solves through a memo (`_Solved`), which makes each
repeated draw once and restricts, factors and solves each distinct mask
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concentration import cutoff_defect, lieb_translation_search
from .errors import ParameterError
from .forms import StiffnessOperator, assemble_stiffness, gagliardo_sq
from .grid import DomainMask, GridFunction, build_grid, empty_mask, mask_from_indices
from .solvers import (DirichletOperator, TorsionFunction, duality_residual,
                      eigenpairs, eigenvalues_or_inf, resolvent_norm_diff,
                      restrict, solve_torsion)

TRIALS = 20                    # random instances per check
PROJECTION_PAIRS = 5           # nested pairs of the projection check ...
PROJECTION_COMPETITORS = 20    # ... and competitors drawn per pair
LIEB_TRIALS = 10               # mask pairs of the Lieb check
# the operator of an audit given none: `bounds_audit(None)` and CLI `audit`
DEFAULT_GRID = {"dim": 1, "half_width": 4.0, "resolution": 64}
DEFAULT_S = 0.5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_slack: float   # most negative margin observed (>= 0 means pass)
    detail: str


def _key(mask: DomainMask) -> bytes:
    return np.packbits(mask.cells).tobytes()


class _Solved:
    """Draws and solutions on the random masks of one audit, each made once.

    Holds the draws that several checks repeat, and per mask the restricted
    operator (which caches its matrix and Cholesky factor), the torsion
    function, the eigenvalues per k and the resolvent gap per unordered
    pair of masks, keyed on the masks' packed bits (n/8 bytes), as
    `minimize_shape`'s walk memo is.  A repeat returns the value the first
    computation produced, so a check sees the bits it would have computed
    itself.  `bounds_audit` builds one per (base, seed) and drops it when it
    returns.
    """

    def __init__(self, base: StiffnessOperator):
        self.base = base
        self._values = {}

    def _get(self, key, compute):
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = compute()
        return value

    def masks(self, seed: int) -> list:
        """The TRIALS masks `_random_mask` draws from a fresh generator."""
        return self._get(("masks", seed),
                         lambda: _draws(_random_mask, self.base.grid, seed))

    def nested_pairs(self, seed: int) -> list:
        """The TRIALS (inner, outer) pairs `_nested_pair` draws from a fresh
        generator."""
        return self._get(("nested_pairs", seed),
                         lambda: _draws(_nested_pair, self.base.grid, seed))

    def op(self, mask: DomainMask) -> DirichletOperator:
        return self._get(("op", _key(mask)), lambda: restrict(self.base, mask))

    def torsion(self, mask: DomainMask) -> TorsionFunction:
        return self._get(("torsion", _key(mask)),
                         lambda: solve_torsion(self.op(mask)))

    def eigenvalues(self, mask: DomainMask, k: int) -> np.ndarray:
        return self._get(("eigenvalues", _key(mask), k),
                         lambda: eigenpairs(self.op(mask), k).eigenvalues)

    def gap(self, mask_a: DomainMask, mask_b: DomainMask) -> float:
        """Operator norm of R_A - R_B (symmetric in A and B)."""
        return self._get(("gap", frozenset((_key(mask_a), _key(mask_b)))),
                         lambda: resolvent_norm_diff(self.op(mask_a), self.op(mask_b)))


def _random_mask(rng, grid, lo=4, hi=24):
    n = int(rng.integers(lo, hi + 1))
    return mask_from_indices(grid, rng.choice(grid.n_cells, n, replace=False))


def _nested_pair(rng, grid, lo=6, hi=24):
    outer = _random_mask(rng, grid, lo, hi)
    idx = outer.active_indices
    keep = max(2, idx.size - int(rng.integers(1, max(2, idx.size // 2))))
    inner = mask_from_indices(grid, rng.choice(idx, keep, replace=False))
    return inner, outer


def _draws(draw, grid, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [draw(rng, grid) for _ in range(TRIALS)]


def check_torsion_nonnegative(solved: _Solved, seed: int) -> CheckResult:
    worst = np.inf
    for mask in solved.masks(seed):
        w = solved.torsion(mask).values.values
        worst = min(worst, float(w.min()) + 1e-12)
    return CheckResult("torsion_nonnegative", worst >= 0, worst,
                       "maximum principle: min torsion value >= -1e-12")


def check_torsion_monotonicity(solved, seed) -> CheckResult:
    worst = np.inf
    for inner, outer in solved.nested_pairs(seed):
        w_in = solved.torsion(inner).values.values
        w_out = solved.torsion(outer).values.values
        worst = min(worst, float((w_out - w_in).min()) + 1e-10)
    return CheckResult("torsion_monotonicity", worst >= 0, worst,
                       "nested masks: inner torsion <= outer torsion + 1e-10")


def check_eigenvalue_monotonicity(solved, seed) -> CheckResult:
    worst = np.inf
    for inner, outer in solved.nested_pairs(seed):
        k = min(3, inner.n_active, outer.n_active)
        lam_in = solved.eigenvalues(inner, k)
        lam_out = solved.eigenvalues(outer, k)
        worst = min(worst, float((lam_in - lam_out).min()) + 1e-8)
    return CheckResult("eigenvalue_monotonicity", worst >= 0, worst,
                       "nested masks: lambda_k(inner) >= lambda_k(outer) - 1e-8")


def check_energy_identity(solved, seed) -> CheckResult:
    worst = np.inf
    meas = solved.base.grid.cell_volume
    for mask in solved.masks(seed):
        w = solved.torsion(mask).values
        energy = gagliardo_sq(solved.base, w)
        integral = meas * w.values.sum()
        rel = abs(energy - integral) / max(integral, 1e-300)
        worst = min(worst, 1e-8 - rel)
    return CheckResult("energy_identity", worst >= 0, worst,
                       "[w]^2 equals the integral of w within 1e-8 relative")


def check_dunford(solved, seed) -> CheckResult:
    worst = np.inf
    for inner, outer in solved.nested_pairs(seed):
        k = min(3, inner.n_active, outer.n_active)
        lam_in = solved.eigenvalues(inner, k)
        lam_out = solved.eigenvalues(outer, k)
        gap = solved.gap(inner, outer)
        slack = gap + 1e-8 - np.abs(1.0 / lam_in - 1.0 / lam_out).max()
        worst = min(worst, float(slack))
    return CheckResult("dunford", worst >= 0, worst,
                       "|1/lambda_k(inner) - 1/lambda_k(outer)| <= resolvent gap + 1e-8")


def check_projection(solved, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    base = solved.base
    grid = base.grid
    for _ in range(PROJECTION_PAIRS):
        inner, outer = _nested_pair(rng, grid)
        w_in = solved.torsion(inner).values
        w_out = solved.torsion(outer).values
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


def check_duality(solved, seed) -> CheckResult:
    worst = np.inf
    for inner, outer in solved.nested_pairs(seed):
        residual = duality_residual(solved.op(outer), solved.op(inner),
                                    solved.torsion(outer).values,
                                    solved.torsion(inner).values)
        worst = min(worst, 1e-8 - residual)
    return CheckResult("duality", worst >= 0, worst,
                       "duality identity residual <= 1e-8 on nested pairs")


def check_poincare(solved, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    base = solved.base
    grid = base.grid
    for _ in range(TRIALS):
        mask = _random_mask(rng, grid)
        lam1 = solved.eigenvalues(mask, 1)[0]
        c = 1.0 / np.sqrt(lam1)
        vals = np.zeros(grid.n_cells)
        vals[mask.active_indices] = rng.standard_normal(mask.n_active)
        u = GridFunction(grid, vals)
        slack = c * np.sqrt(gagliardo_sq(base, u)) * (1 + 1e-10) - u.l2_norm()
        worst = min(worst, float(slack))
    return CheckResult("poincare", worst >= 0, worst,
                       "||u||_L2 <= lambda_1^(-1/2) [u] for u supported in the mask")


def check_cutoff_decay(solved, seed) -> CheckResult:
    base = solved.base
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


def check_lieb(solved, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    grid = solved.base.grid
    window = max(4, grid.n_cells // 3)
    for _ in range(LIEB_TRIALS):
        # bounded extent keeps in-box overlapping shifts available
        starts = rng.integers(0, grid.n_cells - window, 2)
        a = mask_from_indices(grid, starts[0] + rng.choice(
            window, int(rng.integers(4, window // 2)), replace=False))
        b = mask_from_indices(grid, starts[1] + rng.choice(
            window, int(rng.integers(4, window // 2)), replace=False))
        res = lieb_translation_search(solved.base, a, b)
        worst = min(worst, res.bound - res.lambda1_intersection)
    return CheckResult("lieb", worst >= 0, float(worst),
                       "some shift gives lambda1(A_z cap B) <= 2(l1(A)+l1(B))")


def check_empty_set_conventions(solved, seed) -> CheckResult:
    base = solved.base
    lam = eigenvalues_or_inf(base, empty_mask(base.grid), 3)
    inf_ok = bool(np.all(np.isinf(lam)))
    rng = np.random.default_rng(seed)
    mask = _random_mask(rng, base.grid)
    nd = resolvent_norm_diff(solved.op(mask), None)
    lam1 = solved.eigenvalues(mask, 1)[0]
    rel = abs(nd - 1.0 / lam1) * lam1
    ok = inf_ok and rel <= 1e-7
    return CheckResult("empty_set_conventions", ok, float(1e-7 - rel),
                       "empty mask: lambda = +inf and null resolvent norm = 1/lambda_1")


def check_stiffness_symmetry(solved, seed) -> CheckResult:
    base = solved.base
    k = base.stencil
    scale = max(float(np.abs(k).max()), float(np.abs(base.diag).max()))
    slack = min(1e-14 * scale - float(np.abs(k - np.flip(k)).max()),
                -float(np.delete(k, k.size // 2).max()), float(base.tail.min()))
    return CheckResult("stiffness_symmetry", slack > 0, slack,
                       "stencil K(z) = K(-z), off-centre < 0, tail > 0")


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


def select_checks(checks: list | None) -> list:
    """The check functions named in `checks`, in suite order; None selects
    all.  A string, an empty list or an unknown name is a ParameterError,
    since each would otherwise pass vacuously or select by substring."""
    if checks is None:
        return list(ALL_CHECKS)
    if not (isinstance(checks, (list, tuple)) and checks
            and all(type(x) is str for x in checks)):
        raise ParameterError(
            f"checks must be a nonempty list of check names, got {checks!r}")
    names = check_names()
    unknown = sorted(set(checks) - set(names))
    if unknown:
        raise ParameterError(f"unknown check {unknown[0]!r}; the checks are "
                             f"{', '.join(names)}")
    return [fn for fn, name in zip(ALL_CHECKS, names) if name in checks]


def bounds_audit(base: StiffnessOperator | None = None, seed: int = 0,
                 checks: list | None = None) -> list:
    """Run the inequality suite; returns a CheckResult per check.

    The selected checks share one memo of solutions (`_Solved`) for this
    (base, seed): each distinct mask they draw is restricted, factored and
    solved once, and the memo is dropped on return.  Only the selected
    checks' work runs, and each result is the same to the bit as the check
    run alone.  `checks` is validated by `select_checks`.  Without `base`
    it runs on DEFAULT_GRID at DEFAULT_S.
    """
    selected = select_checks(checks)
    if base is None:
        base = assemble_stiffness(build_grid(**DEFAULT_GRID), DEFAULT_S)
    solved = _Solved(base)
    return [fn(solved, seed) for fn in selected]
