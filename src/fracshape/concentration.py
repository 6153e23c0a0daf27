"""Discrete concentration-compactness toolkit.

A trichotomy classifier for mass-normalized function sequences, read off
their concentration profiles (the Levy concentration function on the grid),
smooth radial cut-offs with certified localization defects, dichotomy
splitting, an exhaustive translation search for the intersection eigenvalue
bound, and synthetic sequence generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainEmptyError, NumericError, ParameterError, StructuralError
from .forms import StiffnessOperator, gagliardo_sq, weighted_gagliardo_sq
from .grid import (MAX_CELLS, DomainMask, Grid, GridFunction, build_grid,
                   distances_from, mask_from_indices, min_pair_distance, row_blocks)
from .solvers import eigenpairs, restrict

PLATEAU_SLOPE = 0.02    # relative slope threshold for plateau rungs
TAIL_FRACTION = 3       # tail = last third of the sequence
MIN_LENGTH = 8          # shortest sequence `classify` accepts


@dataclass(frozen=True)
class FunctionSequence:
    """Mass-normalized sequence of grid functions; grids may grow.

    mass_limit is the estimated limit of the squared L2 masses, taken as
    the mean over the last third of the sequence.
    """

    entries: list
    mass_limit: float


def make_sequence(entries: list) -> FunctionSequence:
    if not entries:
        raise ParameterError("sequence must be nonempty")
    dims = {u.grid.dim for u in entries}
    if len(dims) > 1:
        raise StructuralError("sequence entries have mixed dimensions")
    masses = np.array([u.l2_norm_sq() for u in entries])
    tail = masses[-max(1, len(masses) // TAIL_FRACTION):]
    limit = float(tail.mean())
    if np.any(np.abs(tail - limit) > 0.10 * limit):
        raise StructuralError("tail masses deviate more than 10% from their mean")
    return FunctionSequence(entries=list(entries), mass_limit=limit)


@dataclass(frozen=True)
class TrichotomyReport:
    verdict: str                    # compactness | vanishing | dichotomy | inconclusive
    centers: list | None
    alpha: float | None
    evidence: dict
    thresholds: dict


@dataclass(frozen=True)
class SplitPair:
    v: GridFunction
    w: GridFunction
    support_gap: float
    mass_residual: float
    seminorm_defect: float


def _ball_masses(grid: Grid, u: GridFunction, radii) -> np.ndarray:
    """(len(radii), n_cells) L2 mass of u inside the ball of each radius
    around each cell center."""
    density = grid.cell_volume * u.values ** 2
    centers = grid.cell_centers
    if grid.dim == 1:
        # balls are contiguous windows; prefix sums give every center at once
        prefix = np.concatenate([[0.0], np.cumsum(density)])
        x = centers[:, 0]
        return np.array([prefix[np.searchsorted(x, x + r, side="right")]
                         - prefix[np.searchsorted(x, x - r, side="left")]
                         for r in radii])
    n = centers.shape[0]
    out = np.empty((len(radii), n))
    for rows in row_blocks(n, n):
        d2 = ((centers[rows, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        for j, r in enumerate(radii):
            out[j, rows] = (d2 <= r * r) @ density
    return out


def _radius_ladder(seq: FunctionSequence) -> list:
    """Geometric doubling ladder from the first entry's cell scale up to
    the largest box in the sequence."""
    g0 = seq.entries[0].grid
    r = 4.0 * g0.h
    top = max(u.grid.half_width for u in seq.entries)
    ladder = []
    while r <= top:
        ladder.append(r)
        r *= 2.0
    if not ladder:
        ladder = [top]
    return ladder


def _plateau_rungs(profile, radii, lo: float, hi: float, scale: float) -> list:
    """Ladder indices j where the doubling window [R_j, R_{j+1}] is flat
    and the value sits strictly between lo and hi."""
    rungs = []
    for j in range(len(radii) - 1):
        flat = (profile[j + 1] - profile[j]) < PLATEAU_SLOPE * scale
        if flat and lo < profile[j] < hi:
            rungs.append(j)
    return rungs


def classify(seq: FunctionSequence, epsilon: float) -> TrichotomyReport:
    """Trichotomy verdict for a mass-normalized sequence.

    Decision ladder: vanishing if the final concentration profile stays
    below epsilon at every rung and shrinks along the tail; compactness if
    one rung holds all but epsilon of the mass across the whole tail;
    dichotomy if the profiles plateau at an intermediate level over a
    widening rung window; otherwise inconclusive.
    """
    n = len(seq.entries)
    if n < MIN_LENGTH:
        raise ParameterError(f"sequence length must be >= {MIN_LENGTH}, got {n}")
    lam = seq.mass_limit
    if not (0 < epsilon < lam / 4):
        raise ParameterError(f"epsilon must lie in (0, mass_limit/4), got {epsilon}")
    radii = _radius_ladder(seq)
    masses = [_ball_masses(u.grid, u, radii) for u in seq.entries]
    profiles = [m.max(axis=1).tolist() for m in masses]
    tail_start = n - max(2, n // TAIL_FRACTION)
    tail = range(tail_start, n)
    # the vanishing test only sees rungs inside the first box; larger
    # rungs exist solely to witness plateau widening for dichotomy
    base_top = seq.entries[0].grid.half_width
    n_base = sum(1 for r in radii if r <= base_top)
    evidence = {"radii": radii, "profiles": profiles}
    thresholds = {"epsilon": epsilon, "plateau_slope": PLATEAU_SLOPE,
                  "tail_start": tail_start, "vanishing_rungs": n_base}

    peaks = [max(p[:n_base]) for p in profiles]
    if peaks[-1] < epsilon and all(peaks[i + 1] <= peaks[i] + 1e-12 for i in range(tail_start, n - 1)):
        return TrichotomyReport("vanishing", None, None, evidence, thresholds)

    # compactness needs a fixed R* at the initial scale; rungs beyond the
    # first box would trivially capture everything in a bounded run
    for j in range(n_base):
        if all(profiles[i][j] >= lam - epsilon for i in tail):
            # per tail entry, the cell center whose rung-j ball holds the most mass
            centers = [seq.entries[i].grid.cell_centers[int(np.argmax(masses[i][j]))]
                       for i in tail]
            return TrichotomyReport("compactness", centers, None, evidence, thresholds)

    widths, levels = [], []
    for i in range(n):
        rungs = _plateau_rungs(profiles[i], radii, epsilon, lam - epsilon, lam)
        widths.append(len(rungs))
        levels.append(np.mean([profiles[i][j] for j in rungs]) if rungs else np.nan)
    tail_widths = widths[tail_start:]
    widening = (all(w > 0 for w in tail_widths)
                and all(b >= a for a, b in zip(tail_widths, tail_widths[1:]))
                and widths[-1] > widths[0])
    if widening:
        alpha = float(np.nanmean([levels[i] for i in tail]))
        if 0 < alpha < lam:
            return TrichotomyReport("dichotomy", None, alpha, evidence, thresholds)
    return TrichotomyReport("inconclusive", None, None, evidence, thresholds)


# --- cut-offs ----------------------------------------------------------------

def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic ramp, 0 at t=0 and 1 at t=1, C2 at both knots."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


@dataclass(frozen=True)
class RadialCutoff:
    """Radial profile: call with distances from the center."""

    radius: float
    kind: str  # "inner" (1 on B_R, 0 off B_2R) or "outer" (sqrt(1 - inner^2))

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        phi = 1.0 - _smoothstep(r / self.radius - 1.0)
        if self.kind == "inner":
            return phi
        return np.sqrt(np.clip(1.0 - phi * phi, 0.0, 1.0))


def make_cutoffs(R: float):
    """Inner/outer radial cut-offs at scale R with phi^2 + psi^2 <= 1.

    phi is 1 inside radius R, quintic down to 0 at 2R; psi = sqrt(1 - phi^2)
    vanishes inside R and is 1 beyond 2R.
    """
    if not (R > 0):
        raise ParameterError(f"R must be > 0, got {R}")
    return RadialCutoff(float(R), "inner"), RadialCutoff(float(R), "outer")


def cutoff_defect(op: StiffnessOperator, u: GridFunction, center, R: float) -> float:
    """Localization error of the inner cut-off at scale R.

    Absolute difference between the energy of phi_R u and the phi_R^2
    weighted energy of u; decays as R grows for fixed u.
    """
    phi, _ = make_cutoffs(R)
    weights = phi(distances_from(op.grid, center))
    v = GridFunction(op.grid, weights * u.values)
    return abs(gagliardo_sq(op, v) - weighted_gagliardo_sq(op, u, weights))


def dichotomy_split(op: StiffnessOperator, u: GridFunction, center,
                    R1: float, R2: float) -> SplitPair:
    """Split u into near and far parts with disjoint supports.

    v = phi_R1 u lives in B_2R1, w = psi_R2 u lives off B_R2; R2 >= 2 R1
    keeps the supports disjoint.  The seminorm defect [u]^2 - [v]^2 - [w]^2
    is certified to be >= -2 (defect at R1 + defect at R2), where the
    defect of a cut-off c is |[c u]^2 - [u]_{c^2}^2|, as in cutoff_defect.
    """
    if R2 < 2.0 * R1:
        raise ParameterError(f"R2 must be >= 2 R1, got R1={R1}, R2={R2}")
    grid = op.grid
    rr = distances_from(grid, center)
    phi, _ = make_cutoffs(R1)
    _, psi = make_cutoffs(R2)
    v = GridFunction(grid, phi(rr) * u.values)
    w = GridFunction(grid, psi(rr) * u.values)
    sup_v = np.flatnonzero(v.values != 0.0)
    sup_w = np.flatnonzero(w.values != 0.0)
    if sup_v.size and sup_w.size:
        centers = grid.cell_centers
        gap = min_pair_distance(centers[sup_v], centers[sup_w])
    else:
        gap = float(R2 - 2.0 * R1)
    diff = GridFunction(grid, u.values - v.values - w.values)
    q_v, q_w = gagliardo_sq(op, v), gagliardo_sq(op, w)
    defect = gagliardo_sq(op, u) - q_v - q_w
    tol = 2.0 * (abs(q_v - weighted_gagliardo_sq(op, u, phi(rr)))
                 + abs(q_w - weighted_gagliardo_sq(op, u, psi(rr))))
    if defect < -tol:
        raise NumericError(
            f"seminorm defect {defect:.3e} below the certified bound {-tol:.3e}",
            achieved=defect,
        )
    return SplitPair(v=v, w=w, support_gap=gap,
                     mass_residual=diff.l2_norm(), seminorm_defect=float(defect))


# --- Lieb translation search -------------------------------------------------

@dataclass(frozen=True)
class LiebResult:
    z: np.ndarray               # lattice shift in cells
    lambda1_intersection: float
    bound: float                # 2 (lambda1(A) + lambda1(B))
    satisfied: bool


def lieb_translation_search(base: StiffnessOperator, mask_a: DomainMask,
                            mask_b: DomainMask) -> LiebResult:
    """First lattice shift z with lambda1(A_z intersect B) <= 2(l1(A)+l1(B)).

    Exhaustive lexicographic scan over the shifts that keep A_z inside the
    box.  That is a subset of the shifts with A_z meeting B, so a miss does
    not refute the bound: the best in-box shift found is returned with
    satisfied=False.
    """
    if mask_a.is_empty or mask_b.is_empty:
        raise DomainEmptyError("translation search needs two nonempty masks")
    grid = base.grid
    l1a = eigenpairs(restrict(base, mask_a), 1).eigenvalues[0]
    l1b = eigenpairs(restrict(base, mask_b), 1).eigenvalues[0]
    bound = 2.0 * (l1a + l1b)
    active_a = mask_a.active_indices
    multi = grid.multi_index(active_a)
    lo, hi = multi.min(axis=0), multi.max(axis=0)
    ranges = [range(-int(l), grid.resolution - int(h)) for l, h in zip(lo, hi)]
    # an in-box shift moves a flat C-ordered index by z . strides, no wrap
    strides = grid.resolution ** np.arange(grid.dim - 1, -1, -1)
    best = None
    for z in itertools.product(*ranges):
        moved = active_a + int(np.dot(z, strides))
        inter = moved[mask_b.cells[moved]]
        if inter.size == 0:
            continue
        lam = eigenpairs(restrict(base, mask_from_indices(grid, inter)), 1).eigenvalues[0]
        if lam <= bound:
            return LiebResult(np.asarray(z), float(lam), float(bound), True)
        if best is None or lam < best[1]:
            best = (np.asarray(z), float(lam))
    if best is None:
        raise DomainEmptyError("no lattice shift produces a nonempty intersection")
    return LiebResult(best[0], best[1], float(bound), False)


# --- synthetic sequence generators --------------------------------------------
# Entry n lives on the 1D box of half width BASE_HALF_WIDTH * factor(n).

BASE_HALF_WIDTH = 4.0
BASE_RESOLUTION = 64
# uniform ranges of the translating bump's width and step
TRANSLATING_WIDTH = (0.4, 0.8)
TRANSLATING_STEP = (1.0, 2.0)


def _bump_values(x: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-((x - center) / width) ** 2)


def _normalized(grid: Grid, values: np.ndarray, mass: float) -> GridFunction:
    raw = grid.cell_volume * np.dot(values, values)
    return GridFunction(grid, values * np.sqrt(mass / raw))


def _translating_factor(n: int, step: float = TRANSLATING_STEP[1],
                        width: float = TRANSLATING_WIDTH[1]) -> int:
    """Smallest factor whose box holds the bump at n * step."""
    return int(np.ceil((n * step + 3 * width + BASE_HALF_WIDTH) / BASE_HALF_WIDTH))


def _flattening_factor(n: int) -> int:
    # spread factor grows geometrically so the tail truly escapes every
    # rung of the first box's radius ladder
    return int(np.ceil(1.7 ** n))


def _separating_factor(n: int) -> int:
    return 2 * (n + 1)


def translating_bump_sequence(seed: int, length: int = 10) -> FunctionSequence:
    """Fixed bump translated further each step; grids grow to contain it."""
    rng = np.random.default_rng(seed)
    width = rng.uniform(*TRANSLATING_WIDTH)
    mass = rng.uniform(0.5, 2.0)
    step = rng.uniform(*TRANSLATING_STEP)
    entries = []
    for n in range(length):
        factor = _translating_factor(n, step, width)
        g = build_grid(1, BASE_HALF_WIDTH * factor, BASE_RESOLUTION * factor)
        x = g.cell_centers[:, 0]
        entries.append(_normalized(g, _bump_values(x, n * step, width), mass))
    return make_sequence(entries)


def flattening_bump_sequence(seed: int, length: int = 10) -> FunctionSequence:
    """Mass-preserving spreading: u_n(x) = g_n^(-1/2) bump(x / g_n)."""
    rng = np.random.default_rng(seed)
    width = rng.uniform(0.4, 0.7)
    mass = rng.uniform(0.5, 2.0)
    entries = []
    for n in range(length):
        factor = _flattening_factor(n)
        g = build_grid(1, BASE_HALF_WIDTH * factor, BASE_RESOLUTION * factor)
        x = g.cell_centers[:, 0]
        entries.append(_normalized(g, _bump_values(x / factor, 0.0, width), mass))
    return make_sequence(entries)


def separating_pair_sequence(seed: int, length: int = 10) -> FunctionSequence:
    """Two equal-mass bumps whose mutual distance grows without bound."""
    rng = np.random.default_rng(seed)
    width = rng.uniform(0.4, 0.8)
    bump_mass = rng.uniform(0.3, 0.5)
    entries = []
    for n in range(length):
        factor = _separating_factor(n)
        g = build_grid(1, BASE_HALF_WIDTH * factor, BASE_RESOLUTION * factor)
        x = g.cell_centers[:, 0]
        d = BASE_HALF_WIDTH * (factor - 1)
        vals = _bump_values(x, 0.0, width) + _bump_values(x, d, width)
        entries.append(_normalized(g, vals, 2.0 * bump_mass))
    return make_sequence(entries)


# per `fracshape classify` generator name, the largest factor of entry n over
# all seeds (the translating bump's at its defaults, the upper ends of the draws)
_WORST_FACTOR = {"translating-bump": _translating_factor,
                 "flattening-bump": _flattening_factor,
                 "separating-pair": _separating_factor}


def max_length(generator: str) -> int:
    """Longest sequence the named generator builds for every seed within
    grid.MAX_CELLS: the first entry whose BASE_RESOLUTION * factor cells
    would exceed it."""
    factor = _WORST_FACTOR[generator]
    return next(n for n in itertools.count()
                if BASE_RESOLUTION * factor(n) > MAX_CELLS)
