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
from .solvers import (DirichletOperator, TorsionFunction, _lowest_eigh, _reflection_axes,
                      eigenpairs, eigenvalues_or_inf, resolvent_norm_diff, restrict,
                      solve_torsion)

DEBRIS_FRACTION = 0.02          # volume share tolerated outside the two clusters
RESOLVENT_GAP_FRACTION = 0.05   # debris-removal gap allowed for a dichotomy verdict
CAUCHY_FRACTION = 0.02          # relative torsion spread for a compactness verdict


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
        value = float(node.value)
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
    if not (_is_int(k) and k >= 1):
        raise ParameterError(f"k must be an integer >= 1, got {k}")
    try:
        tree = ast.parse(combiner, mode="eval")
    except SyntaxError as exc:
        raise ParameterError(f"combiner does not parse: {exc}") from exc
    return FunctionalSpec(k=int(k), combiner=combiner, name=name,
                          _evaluate=_compile_node(tree.body, int(k)))


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
    mask.  A mask is solved once per walk: J is memoized on the mask's
    packed bits, in a dict dropped when the walk returns.  A new mask's
    matrix is one gather of A's couplings on the sorted active cells, and
    its eigenvalues come from `solvers._lowest_eigh`, the LAPACK call and
    residual check that `eigenpairs` makes on a mask no axis reflection of
    the box maps onto itself; the functional's compiled evaluator turns
    them into J.  A mask that one does is valued by `eval_functional`
    itself, on `eigenpairs`' parity blocks.  So every value is
    `eval_functional`'s to the bit, and a walk is the same for a given
    seed as one built from `eval_functional` and a morphological boundary.
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

    memo = {}   # packed mask bits -> J, for this walk only

    def evaluate() -> float:
        key = np.packbits(cells).tobytes()
        value = memo.get(key)
        if value is None and _reflection_axes(cells, grid.shape):
            value = memo[key] = eval_functional(spec, base, DomainMask(grid, cells.copy()))
        elif value is None:
            a = np.flatnonzero(cells)
            mu = _lowest_eigh(base.submatrix(a), kk)[0]
            value = memo[key] = spec._evaluate(np.concatenate([mu / h_meas, beyond]))
        return value

    neighbours = _neighbour_table(grid)
    boundary = _boundary(cells, neighbours)
    inactive = np.flatnonzero(~cells)
    value = evaluate()
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
        new_value = evaluate()
        delta = new_value - value
        temp = t0 * schedule.decay ** j
        accept = delta < 0 or (temp > 0 and np.isfinite(delta)
                               and rng.random() < np.exp(-delta / temp))
        if accept:
            boundary = _boundary(cells, neighbours)
            inactive = np.flatnonzero(~cells)
            value = new_value
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
