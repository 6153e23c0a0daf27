"""Spectral shape functionals and volume-constrained minimization.

Functionals are monotone expressions over the first k Dirichlet eigenvalues.
The minimizer is a simulated-annealing exchange walk over equal-volume cell
masks; a detector classifies the tail of a mask sequence, such as a walk's
improvement snapshots, as compactness-like or dichotomy-like.
"""

from __future__ import annotations

import ast
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .forms import StiffnessOperator, assemble_stiffness
from .grid import (DomainMask, Grid, GridFunction, _is_int, distances_from,
                   l2_distance, mask_from_indices, min_pair_distance)
from .solvers import (EIG_RTOL, DirichletOperator, TorsionFunction, _count_below,
                      _lowest_eigh, _reflection_axes, eigenpairs, eigenvalues_or_inf,
                      resolvent_norm_diff, restrict, solve_torsion)

DEBRIS_FRACTION = 0.02          # volume share tolerated outside the two clusters
RESOLVENT_GAP_FRACTION = 0.05   # debris-removal gap allowed for a dichotomy verdict
CAUCHY_FRACTION = 0.02          # relative torsion spread for a compactness verdict
SCREEN_NATS = 20.0              # the walk's screen certifies dJ >= SCREEN_NATS * T
_SCREEN_P = float(np.exp(1.0 - SCREEN_NATS))   # draws at or above it reject
_SCREEN_MARGIN = 1.0 + 4.0 * EIG_RTOL           # relative margin of the screen's shift
_SCREEN_BREAK_EVEN = 0.25      # certifying share below which the screen only probes
_SCREEN_PROBE = 16              # ... and tries one new mask in this many


# --- functional grammar -------------------------------------------------------

@dataclass(frozen=True)
class FunctionalSpec:
    """Monotone eigenvalue functional: expression over l1..lk built from
    +, max, nonnegative constants, and multiplication by positive constants,
    with its compiled evaluator (lambda_1..lambda_k -> J, a float)."""

    k: int
    combiner: str
    name: str
    _evaluate: Callable = field(repr=False, compare=False)


def _is_constant(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def _compile_node(node, k: int) -> Callable:
    """Check a combiner node against the grammar and return its evaluator,
    a function of the eigenvalue vector."""
    if _is_constant(node):
        try:
            value = float(node.value)
        except OverflowError:     # an integer literal past the float range
            value = np.inf
        if isinstance(node.value, bool) or not np.isfinite(value):
            raise ParameterError(f"constants must be finite numbers, got {node.value!r:.40}")
        return lambda lam: value
    if isinstance(node, ast.Name):
        if node.id.startswith("l") and node.id[1:].isdigit():
            j = int(node.id[1:])
            if 1 <= j <= k:
                return lambda lam: float(lam[j - 1])
        raise ParameterError(f"unknown name {node.id!r}; variables are l1..l{k}")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult)):
        if isinstance(node.op, ast.Mult):
            const = node.left if _is_constant(node.left) else node.right
            if not _is_constant(const) or const.value <= 0:
                raise ParameterError("multiplication must involve a positive constant")
        left, right = _compile_node(node.left, k), _compile_node(node.right, k)
        if isinstance(node.op, ast.Add):
            return lambda lam: left(lam) + right(lam)
        return lambda lam: left(lam) * right(lam)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "max" and not node.keywords and len(node.args) >= 1):
        args = [_compile_node(a, k) for a in node.args]
        return lambda lam: max(a(lam) for a in args)
    raise ParameterError(
        "combiner may only use l1..lk, constants, +, max, and positive scaling"
    )


def make_functional(name: str, k: int, combiner: str) -> FunctionalSpec:
    """The functional `combiner` over l1..lk, checked and compiled.

    Constants must be finite numbers, not booleans, so that J is finite
    and monotone wherever its eigenvalues are finite, which the annealing
    walk's screen relies on.  A combiner error names the field `combiner`.
    """
    if not (_is_int(k) and k >= 1):
        raise ParameterError(f"k must be an integer >= 1, got {k}")
    try:
        evaluate = _compile_node(ast.parse(combiner, mode="eval").body, int(k))
    except SyntaxError as exc:
        raise ParameterError(f"combiner does not parse: {exc}", field="combiner") from exc
    except ParameterError as exc:
        raise ParameterError(str(exc), field="combiner") from None
    return FunctionalSpec(k=int(k), combiner=combiner, name=name, _evaluate=evaluate)


def eval_functional(spec: FunctionalSpec, base: StiffnessOperator,
                    mask: DomainMask) -> float:
    """J(mask) = combiner(lambda_1..lambda_k), with lambda_j = +inf beyond the
    mask's cell count (all of them on the empty mask)."""
    return spec._evaluate(eigenvalues_or_inf(base, mask, spec.k))


# --- geometry helpers ---------------------------------------------------------

def ball_mask(grid: Grid, center, volume: float) -> DomainMask:
    """Mask of the round(volume / h^dim) cells nearest to center.

    Distance ties are broken by cell index, so the construction is
    deterministic.
    """
    count = int(round(volume / grid.cell_volume))
    if not (1 <= count <= grid.n_cells):
        raise ParameterError(
            f"volume {volume} needs {count} cells, grid has {grid.n_cells}"
        )
    dist = distances_from(grid, center)
    order = np.lexsort((np.arange(grid.n_cells), dist))
    return mask_from_indices(grid, order[:count])


def two_ball_offset(grid: Grid, total_volume: float, d: float) -> float:
    """Center offset along the first axis of each ball of an equal pair of
    the given total volume at mutual (set) distance d.

    1D balls are intervals of count * h; a 2D radius comes from the disc
    area.  Raises ParameterError when the balls overlap (d <= 0) or one
    leaves the box.
    """
    count = int(round(total_volume / 2.0 / grid.cell_volume))
    if grid.dim == 1:
        radius = 0.5 * count * grid.h
    else:
        radius = np.sqrt(total_volume / 2.0 / np.pi)
    if d <= 0:
        raise ParameterError(f"distance {d} overlaps the balls; it must be > 0")
    if d / 2.0 + 2.0 * radius > grid.half_width:
        raise ParameterError(
            f"distance {d} pushes a ball outside the box of half width "
            f"{grid.half_width}"
        )
    return d / 2.0 + radius


def two_ball_experiment(grid: Grid, s: float, total_volume: float,
                        distances) -> list:
    """Second eigenvalue of two receding equal balls against one ball.

    d is the mutual distance between the two balls (between the sets, not
    the centers).  The comparison ball of the same half volume is centered
    on one of the pair so that its exterior-tail environment matches.
    Each row reports d, lambda1 and lambda2 of the union, lambda1 of the
    half ball, and gap = lambda2(union) - lambda1(half ball).
    """
    base = assemble_stiffness(grid, s)
    half = total_volume / 2.0
    rows = []
    for d in distances:
        d = float(d)
        center = np.zeros(grid.dim)
        offset = np.zeros(grid.dim)
        offset[0] = two_ball_offset(grid, total_volume, d)
        left = ball_mask(grid, center - offset, half)
        right = ball_mask(grid, center + offset, half)
        union = DomainMask(grid, left.cells | right.cells)
        lam = eigenpairs(restrict(base, union), 2).eigenvalues
        lam_half = eigenpairs(restrict(base, right), 1).eigenvalues[0]
        rows.append({"d": d, "lambda1_union": float(lam[0]),
                     "lambda2_union": float(lam[1]),
                     "lambda1_half_ball": float(lam_half),
                     "gap": float(lam[1] - lam_half)})
    return rows


# --- simulated annealing ------------------------------------------------------

@dataclass(frozen=True)
class AnnealingSchedule:
    """T_j = t0_factor * |J_initial| * decay^j."""

    t0_factor: float = 0.1
    decay: float = 0.995


@dataclass(frozen=True)
class ShapeTrajectory:
    """Improvement snapshots of a volume-constrained minimization walk.

    masks/values record the incumbent-best sequence (values are
    nonincreasing by construction); move_log records every accepted move,
    including uphill annealing moves.
    """

    masks: list
    values: list
    move_log: list


def _neighbour_table(grid: Grid) -> np.ndarray:
    """(2 dim, n_cells) flat indices of each cell's face neighbours, one
    row per direction (-1, +1 along axis 0, then axis 1); a neighbour
    outside the box is the extra slot n_cells."""
    r = grid.resolution
    padded = np.full((r + 2,) * grid.dim, grid.n_cells)
    padded[(slice(1, r + 1),) * grid.dim] = np.arange(grid.n_cells).reshape(grid.shape)
    rows = []
    for axis in range(grid.dim):
        for step in (-1, 1):
            window = [slice(1, r + 1)] * grid.dim
            window[axis] = slice(1 + step, r + 1 + step)
            rows.append(padded[tuple(window)].ravel())
    return np.stack(rows)


def _boundary(cells: np.ndarray, neighbours: np.ndarray) -> np.ndarray:
    """Active cells with an inactive face neighbour, from the neighbour
    table of `_neighbour_table` (the box exterior counts as inactive)."""
    return np.flatnonzero(cells & ~np.append(cells, False)[neighbours].all(axis=0))


def minimize_shape(spec: FunctionalSpec, base: StiffnessOperator, c: float,
                   iterations: int, seed: int,
                   schedule: AnnealingSchedule | None = None) -> ShapeTrajectory:
    """Volume-preserving annealing walk minimizing J over c-volume masks.

    Each move removes one boundary cell and inserts one currently inactive
    cell; downhill moves are always accepted, uphill moves with probability
    exp(-dJ / T_j).  Deterministic for a given seed.

    A move does only what its value needs.  The boundary (`_boundary`) and
    the inactive list are functions of the mask alone, recomputed at the
    start and after each accepted move, since a rejected move restores the
    mask.  A mask is solved at most once per walk: J and the eigenvalues
    are memoized on the mask's packed bits, in a dict dropped when the
    walk returns.  A new mask's matrix is one gather of A's couplings on
    the sorted active cells, and its eigenvalues come from
    `solvers._lowest_eigh`, the LAPACK call and residual check that
    `eigenpairs` makes on a mask no axis reflection of the box maps onto
    itself; the functional's compiled evaluator turns them into J.  A mask
    that one does goes to `eigenvalues_or_inf`, which solves it on
    `eigenpairs`' parity blocks.  So every value is `eval_functional`'s to
    the bit, and a walk is the same for a given seed as one built from
    `eval_functional` and a morphological boundary.

    Most uphill moves are rejected without an eigensolve.  Before solving
    a new mask, the walk picks a shift sigma from the current J and T and
    `solvers._count_below` counts the nu eigenvalues under it, by the
    inertia of one LDL^T factor.  J is monotone and every lambda_j is
    positive, so the new J is at least J of the bounds 0 for
    lambda_1..lambda_nu and sigma for the rest; for J = l_k that is sigma
    whenever nu < k.  When that bound certifies dJ >= SCREEN_NATS * T, the
    walk draws the uniform number that the exact test would draw; a draw
    of at least e^(1 - SCREEN_NATS) rejects the move, as exp(-dJ / T)
    would, and a smaller one solves the mask and decides exactly.
    Certified bounds are remembered per mask beside the values, so a
    revisit is a lookup either way.  Every value that decides a move is
    still solved and checked, and the walk, its random stream and its
    values are the same as without the screen.
    """
    grid = base.grid
    m = int(round(c / grid.cell_volume))
    if abs(c - m * grid.cell_volume) > 1e-9 * grid.cell_volume or m < 2:
        raise ParameterError(
            f"volume must be an integer multiple (>= 2) of the cell volume, got {c}"
        )
    if m > grid.n_cells:
        raise ParameterError(f"volume {c} exceeds the box capacity")
    if iterations < 0:
        raise ParameterError(f"iterations must be >= 0, got {iterations}")
    schedule = schedule or AnnealingSchedule()
    rng = np.random.default_rng(seed)
    cells = np.zeros(grid.n_cells, dtype=bool)
    cells[rng.choice(grid.n_cells, m, replace=False)] = True
    h_meas = grid.cell_volume
    kk = min(spec.k, m)
    beyond = np.full(spec.k - kk, np.inf)   # lambda_j = +inf for j > m

    memo = {}     # packed mask bits -> (J, lambda_1..lambda_k), for this walk only
    floors = {}   # packed mask bits -> certified lower bound on J, unsolved masks

    def evaluate(key: bytes, mat: np.ndarray | None = None) -> tuple:
        """(J, lambda_1..lambda_k) of the current mask, whose packed bits
        are `key`; `mat` is its matrix, when the screen has gathered it."""
        found = memo.get(key)
        if found is None:
            if _reflection_axes(cells, grid.shape):
                lam = eigenvalues_or_inf(base, DomainMask(grid, cells.copy()), spec.k)
            else:
                if mat is None:
                    mat = base.submatrix(np.flatnonzero(cells))
                lam = np.concatenate([_lowest_eigh(mat, kk)[0] / h_meas, beyond])
            found = memo[key] = (spec._evaluate(lam), lam)
        return found

    # The screen's bounds: with nu eigenvalues below sigma, J >= g(sigma,
    # nu), J of the bounds 0 for lambda_1..lambda_nu and sigma for the
    # rest, as J is monotone and each lambda_j is positive.  Each g(., nu)
    # is convex and piecewise linear (J is built from +, max and positive
    # scalings), so it lies above its chord through `top` and 2 `top`,
    # where `top` bounds every eigenvalue of every mask (the trace of its
    # matrix is at most m max(diag)).  The screen runs when J is finite up
    # to 2 `top`, so that every dJ is finite, on the chords that grow.
    top = m * float(base.diag.max()) / h_meas
    bounds = np.empty(spec.k)

    def g(sigma: float, nu: int) -> float:
        bounds[:nu] = 0.0
        bounds[nu:] = sigma
        return spec._evaluate(bounds)

    chords = [(nu, slope, g(top, nu) - slope * top) for nu in range(spec.k)
              for slope in [(g(2 * top, nu) - g(top, nu)) / top] if slope > 0]
    screens = bool(chords) and kk == spec.k and np.isfinite(g(2 * top, 0))

    rate = 1.0   # running share of factorizations that certified
    idle = 0     # new masks solved without a factorization since the last

    def certified(key: bytes, value: float, lam: np.ndarray, temp: float) -> tuple:
        """(whether J - value >= SCREEN_NATS * temp is certified for the
        current mask without solving it, its matrix if gathered); `value`
        and `lam` are J and the eigenvalues of the mask before the move.

        A factorization costs a quarter to a third of a solve, so while
        the running share of factorizations that certified (weight 1/8) is
        under _SCREEN_BREAK_EVEN, only every _SCREEN_PROBE-th new mask
        tries one: a hot walk, or a functional that one shift bounds
        poorly, pays little for the screen."""
        nonlocal rate, idle
        if key in memo:
            return False, None
        lower = floors.get(key)
        if lower is not None and (lower - value) / temp >= SCREEN_NATS:
            return True, None
        if rate < _SCREEN_BREAK_EVEN and idle < _SCREEN_PROBE - 1:
            idle += 1
            return False, None
        idle = 0
        mat = base.submatrix(np.flatnonzero(cells))
        target = value + SCREEN_NATS * temp
        # the chord whose sigma asks the least rise of the eigenvalue it
        # bounds; the margin covers rounding: the chord's, then that of
        # dsytrf's inertia and of the solved eigenvalues, of order
        # n eps ||A|| / lambda_1, under 1e-12 on a 200-cell 2D disc
        nu, slope, offset = min(chords, key=lambda c: (target - c[2]) / c[1] / lam[c[0]])
        sigma = (target - offset) / slope * _SCREEN_MARGIN
        if not ((g(sigma, nu) - value) / temp >= SCREEN_NATS and sigma < top):
            return False, mat
        below = _count_below(mat, sigma * h_meas * _SCREEN_MARGIN)
        lower = -np.inf if below is None else g(sigma, min(below, spec.k))
        if not (lower - value) / temp >= SCREEN_NATS:
            rate -= rate / 8
            return False, mat
        rate += (1.0 - rate) / 8
        floors[key] = lower
        return True, mat

    neighbours = _neighbour_table(grid)
    boundary = _boundary(cells, neighbours)
    inactive = np.flatnonzero(~cells)
    value, lam = evaluate(np.packbits(cells).tobytes())
    t0 = schedule.t0_factor * abs(value) if np.isfinite(value) else 1.0
    masks = [DomainMask(grid, cells.copy())]
    values = [value]
    move_log = []
    best = value
    for j in range(int(iterations)):
        if boundary.size == 0 or inactive.size == 0:
            break
        out_cell = int(boundary[rng.integers(boundary.size)])
        in_cell = int(inactive[rng.integers(inactive.size)])
        cells[out_cell] = False
        cells[in_cell] = True
        key = np.packbits(cells).tobytes()
        temp = t0 * schedule.decay ** j
        sure, mat = certified(key, value, lam, temp) if screens and temp > 0 else (False, None)
        # a certified move has dJ > 0, so the exact test below would draw
        # this same number; rejecting at u >= e^(1 - SCREEN_NATS) is what
        # it would do, with a nat to spare for the rounding of exp
        u = rng.random() if sure else None
        accept = False
        if u is None or u < _SCREEN_P:
            new_value, new_lam = evaluate(key, mat)
            delta = new_value - value
            accept = delta < 0 or (temp > 0 and np.isfinite(delta)
                                   and (rng.random() if u is None else u)
                                   < np.exp(-delta / temp))
        if accept:
            boundary = _boundary(cells, neighbours)
            inactive = np.flatnonzero(~cells)
            value, lam = new_value, new_lam
            move_log.append({"iteration": j, "removed": out_cell,
                             "inserted": in_cell, "value": value})
            if value < best:
                best = value
                masks.append(DomainMask(grid, cells.copy()))
                values.append(value)
        else:
            cells[out_cell] = True
            cells[in_cell] = False
    return ShapeTrajectory(masks=masks, values=values, move_log=move_log)


# --- trajectory detectors -----------------------------------------------------

@dataclass(frozen=True)
class DichotomyReport:
    verdict: str                 # compactness | dichotomy | inconclusive
    separations: list            # per tail mask, when every one is two clusters
    component_volumes: list
    resolvent_gap: list


def connected_components(mask: DomainMask) -> list:
    """Face-adjacent lattice components as sorted index arrays, largest
    first, ties by first cell.

    Runs of active cells along the last axis are joined through the face
    neighbours of `_neighbour_table` along the other axes: each joining
    edge hooks the larger of its two root runs under the smaller, and
    pointer jumping flattens the forest, until no edge joins two roots.
    """
    grid = mask.grid
    active = np.flatnonzero(mask.cells)
    if active.size == 0:
        return []
    table = _neighbour_table(grid)
    on = np.append(mask.cells, False)
    # an active cell whose -1 neighbour along the last axis is off starts a run
    run = np.cumsum(~on[table[-2, active]]) - 1
    run_of = np.empty(grid.n_cells + 1, dtype=np.intp)
    run_of[active] = run
    ahead = table[1:-2:2, active].T.ravel()   # +1 neighbours along the other axes
    joined = on[ahead]
    u, v = np.repeat(run, grid.dim - 1)[joined], run_of[ahead[joined]]
    root = np.arange(run[-1] + 1)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            break
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    # runs are numbered in cell order, so a root is the run holding its
    # component's first cell, and a stable sort on it lists the components
    # by first cell, each in cell order
    labels = root[run]
    cells = active[np.argsort(labels, kind="stable")]
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    rank = np.argsort(-sizes, kind="stable")
    return [cells[i:i + z] for i, z in zip(starts[rank].tolist(),
                                           sizes[rank].tolist())]


def _two_clusters(centers: np.ndarray, comps: list):
    """Single-linkage agglomeration of components down to two clusters, and
    the gap between them.  Each component gap is measured once; a merge
    takes the two rows' minimum (the single-linkage update), and the first
    minimum in row-major order is the first closest pair i < j."""
    clusters = list(comps)
    gaps = np.full((len(clusters),) * 2, np.inf)
    for i, j in itertools.combinations(range(len(clusters)), 2):
        gaps[i, j] = gaps[j, i] = min_pair_distance(centers[clusters[i]],
                                                    centers[clusters[j]])
    while len(clusters) > 2:
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        clusters[i] = np.concatenate([clusters[i], clusters[j]])
        del clusters[j]
        gaps[i] = gaps[:, i] = np.minimum(gaps[i], gaps[j])
        gaps[i, i] = np.inf
        gaps = np.delete(np.delete(gaps, j, axis=0), j, axis=1)
    return [np.sort(c) for c in clusters], float(gaps[0, 1])


def _analyze_mask(op: DirichletOperator, centers: np.ndarray):
    """Split a restricted mask into two clusters, dropping small debris
    components; `centers` are the grid's cell centers.

    Returns (separation, volumes, resolvent gap to the debris-free union),
    or None when the mask is not two clusters plus debris.
    """
    mask, grid = op.mask, op.grid
    comps = connected_components(mask)
    debris_cells = int(DEBRIS_FRACTION * mask.n_active)
    main = [c for c in comps if c.size > debris_cells]
    dropped = mask.n_active - sum(c.size for c in main)
    if dropped > debris_cells or len(main) < 2:
        return None
    clusters, sep = _two_clusters(centers, main)
    vols = (grid.cell_volume * clusters[0].size, grid.cell_volume * clusters[1].size)
    gap = 0.0 if dropped == 0 else resolvent_norm_diff(
        op, restrict(op.base, mask_from_indices(grid, np.concatenate(clusters))))
    return sep, vols, gap


def _recentered_torsion(t: TorsionFunction) -> GridFunction:
    """Shift the torsion by whole cells so its mass centroid sits at the
    box center (values moved on the lattice, zero-filled), one axis at a
    time."""
    grid = t.mask.grid
    if t.values.values.sum() <= 0:
        return t.values
    r = grid.resolution
    out = t.values.values.reshape(grid.shape)
    coords = np.arange(r)
    for axis in range(grid.dim):
        profile = out.sum(axis=tuple(a for a in range(grid.dim) if a != axis))
        centroid = (coords * profile).sum() / profile.sum()
        shift = int(round((r - 1) / 2.0 - centroid))
        # cell i takes the value of cell i - shift; |shift| < r, as the
        # centroid lies in [0, r - 1]
        dst, src = [slice(None)] * grid.dim, [slice(None)] * grid.dim
        dst[axis] = slice(max(shift, 0), r + min(shift, 0))
        src[axis] = slice(max(-shift, 0), r - max(shift, 0))
        shifted = np.zeros_like(out)
        shifted[tuple(dst)] = out[tuple(src)]
        out = shifted
    return GridFunction(grid, out.ravel())


def detect_dichotomy(masks: list, base: StiffnessOperator) -> DichotomyReport:
    """Classify the tail of a mask sequence (its last third, at least two
    masks) as dichotomy-like or compactness-like.

    Dichotomy needs every tail mask to split into two clusters plus debris,
    with strictly increasing separation and a resolvent gap to the
    debris-free union of at most RESOLVENT_GAP_FRACTION / lambda_1.
    Compactness needs the recentered torsion functions to be Cauchy in L2.
    Each tail mask is restricted once, and the gap, lambda_1 and torsion
    all read that operator; torsions are solved only when no dichotomy
    verdict is found.  A sequence of one mask has no tail to judge and
    reads inconclusive.
    """
    if not masks:
        raise ParameterError("detect_dichotomy needs at least one mask")
    if len(masks) < 2:
        return DichotomyReport("inconclusive", [], [], [])
    ops = [restrict(base, mk) for mk in masks[-max(2, len(masks) // 3):]]
    centers = base.grid.cell_centers
    analyses = [_analyze_mask(op, centers) for op in ops]
    separations, volumes, gaps = [], [], []
    if all(a is not None for a in analyses):
        separations, volumes, gaps = (list(col) for col in zip(*analyses))
        increasing = all(b > a for a, b in zip(separations, separations[1:]))
        # the resolvent norm ||R_A|| is 1 / lambda_1(A)
        if increasing and all(
                g <= RESOLVENT_GAP_FRACTION * (1.0 / eigenpairs(op, 1).eigenvalues[0])
                for g, op in zip(gaps, ops)):
            return DichotomyReport("dichotomy", separations, volumes, gaps)
    recentered = [_recentered_torsion(solve_torsion(op)) for op in ops]
    scale = np.mean([w.l2_norm() for w in recentered])
    if scale > 0 and all(l2_distance(a, b) < CAUCHY_FRACTION * scale
                         for a, b in itertools.combinations(recentered, 2)):
        return DichotomyReport("compactness", separations, volumes, gaps)
    return DichotomyReport("inconclusive", separations, volumes, gaps)
