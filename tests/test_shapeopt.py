import ast
import itertools

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from fracshape import shapeopt, solvers
from fracshape.errors import NumericError, ParameterError
from fracshape.forms import StiffnessOperator, assemble_stiffness
from fracshape.grid import (DomainMask, GridFunction, build_grid, empty_mask,
                            full_mask, mask_from_indices, min_pair_distance)
from fracshape.shapeopt import (AnnealingSchedule, ball_mask,
                                connected_components, detect_dichotomy,
                                eval_functional, make_functional,
                                minimize_shape, two_ball_experiment)
from fracshape.solvers import (eigenpairs, restrict, solve_torsion,
                               torsion_resolvent_bound_check)


@pytest.fixture(scope="module")
def base_64():
    return assemble_stiffness(build_grid(1, 4.0, 64), 0.5)


# --- functional grammar --------------------------------------------------------

def test_grammar_accepts_monotone_expressions():
    for expr in ("l1", "l2", "l1 + l2", "max(l1, 3)", "2 * l1 + max(l2, l1)",
                 "0.5 * (l1 + l2)"):
        make_functional("f", 2, expr)


@pytest.mark.parametrize("expr", [
    "l3",            # unknown variable for k = 2
    "l1 - l2",       # subtraction is not monotone
    "-1 * l1",       # negative scaling reverses monotonicity
    "l1 * l2",       # product of variables is outside the grammar
    "min(l1, l2)",   # unknown function
    "l1 / 2",        # division is outside the grammar
])
def test_grammar_rejects(expr):
    with pytest.raises(ParameterError):
        make_functional("f", 2, expr)


def _combiners(k):
    """In-grammar combiners over l1..lk: constants, sums, positive scalings
    (the constant on either side) and max calls.  Integer constants stay
    small, so that every integer a constant subtree reaches is below 2^53
    and Python's exact integer arithmetic agrees with float arithmetic."""
    nonnegative = st.one_of(st.integers(0, 20).map(str), st.floats(0.0, 1e3).map(repr))
    positive = st.one_of(st.integers(1, 20).map(str), st.floats(1e-3, 1e3).map(repr))

    def scaled(t):
        const, child, const_right = t
        # a bare constant on the left would be read as the scaling constant
        if const_right and not child[0].isdigit():
            return f"({child} * {const})"
        return f"({const} * {child})"

    def grow(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: f"({ab[0]} + {ab[1]})"),
            st.tuples(positive, children, st.booleans()).map(scaled),
            st.lists(children, min_size=1, max_size=3).map(
                lambda args: f"max({', '.join(args)})"))

    leaves = st.one_of(st.integers(1, k).map(lambda j: f"l{j}"), nonnegative)
    return st.recursive(leaves, grow, max_leaves=12)


def _matches_python_eval(evaluator_of, phases=tuple(Phase)):
    """Property: on random in-grammar combiners and eigenvalue vectors with
    +inf entries, `evaluator_of(k, combiner)` equals Python's own eval of
    the validated AST, with only max in scope, cast to float, to the bit."""
    eigenvalue = st.one_of(st.just(np.inf), st.floats(1e-3, 1e6))

    @settings(max_examples=100, deadline=None, phases=phases)
    @given(st.data())
    def check(data):
        k = data.draw(st.integers(1, 4))
        combiner = data.draw(_combiners(k))
        lam = np.array(data.draw(st.lists(eigenvalue, min_size=k, max_size=k)))
        code = compile(ast.parse(combiner, mode="eval"), "<combiner>", "eval")
        # max over its arguments, so that the grammar's one-argument max
        # evaluates too
        scope = {"__builtins__": {}, "max": lambda *args: max(args)}
        expected = float(eval(code, scope, {f"l{j + 1}": float(v) for j, v in enumerate(lam)}))
        value = evaluator_of(k, combiner)(lam)
        assert type(value) is float and value.hex() == expected.hex()

    check()


def test_evaluator_matches_python_eval():
    _matches_python_eval(lambda k, combiner: make_functional("f", k, combiner)._evaluate)


class _AddToMax(ast.NodeTransformer):
    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Add):
            return ast.Call(ast.Name("max", ast.Load()), [node.left, node.right], [])
        return node


def test_evaluator_comparison_can_fail():
    # negative control: an evaluator that takes max for + must be caught
    def swapped(k, combiner):
        tree = ast.fix_missing_locations(_AddToMax().visit(ast.parse(combiner, mode="eval")))
        return make_functional("f", k, ast.unparse(tree))._evaluate

    with pytest.raises(AssertionError):
        _matches_python_eval(swapped, phases=[Phase.generate])


def test_eval_functional_semantics(base_64):
    g = base_64.grid
    spec_max = make_functional("floor3", 1, "max(l1, 3)")
    big = mask_from_indices(g, range(8, 56))
    lam1 = eigenpairs(restrict(base_64, big), 1).eigenvalues[0]
    if lam1 < 3:
        assert eval_functional(spec_max, base_64, big) == 3.0
    spec1 = make_functional("l1", 1, "l1")
    assert eval_functional(spec1, base_64, empty_mask(g)) == float("inf")
    cell = mask_from_indices(g, [20])
    assert eval_functional(spec1, base_64, cell) == pytest.approx(
        base_64.diag[20] / g.cell_volume, rel=1e-13)


def test_eval_two_far_cells_splitting(base_64):
    # two far single cells: lambda = (d -/+ k12)/h up to tail asymmetry
    g = base_64.grid
    spec2 = make_functional("l2", 2, "l2")
    mask = mask_from_indices(g, [10, 54])
    lam2 = eval_functional(spec2, base_64, mask)
    d10, d54 = base_64.diag[10], base_64.diag[54]
    k = -base_64.matrix()[10, 54]
    avg = (d10 + d54) / 2.0
    assert lam2 == pytest.approx((avg + k) / g.cell_volume, rel=1e-6)
    lam1 = eval_functional(make_functional("l1", 1, "l1"), base_64, mask)
    assert lam2 - lam1 == pytest.approx(2 * k / g.cell_volume, rel=1e-4)


def test_functional_monotone_under_inclusion(base_64):
    g = base_64.grid
    inner = mask_from_indices(g, range(24, 40))
    outer = mask_from_indices(g, range(16, 48))
    for expr, k in (("l1", 1), ("l2", 2), ("l1 + 0.5 * l2", 2), ("max(l1, l2)", 2)):
        spec = make_functional("f", k, expr)
        assert eval_functional(spec, base_64, outer) <= \
            eval_functional(spec, base_64, inner) + 1e-8


def test_functional_translation_invariance(base_64):
    g = base_64.grid
    spec = make_functional("l1", 1, "l1")
    m = mask_from_indices(g, range(20, 32))
    j0 = eval_functional(spec, base_64, m)
    for shift in (-8, 4, 10):
        j = eval_functional(spec, base_64, mask_from_indices(g, m.active_indices + shift))
        assert abs(j - j0) / j0 <= 1e-5


# --- gamma distance -------------------------------------------------------------

def test_gamma_distance_metric(base_64):
    # the gamma distance of nested masks, the L2 distance of their torsion
    # functions, is the rhs of the resolvent bound check
    g = base_64.grid
    op1 = restrict(base_64, mask_from_indices(g, range(20, 30)))
    op2 = restrict(base_64, mask_from_indices(g, range(20, 36)))
    op3 = restrict(base_64, mask_from_indices(g, range(20, 44)))

    def dist(outer, inner):
        return torsion_resolvent_bound_check(outer, inner).rhs

    assert dist(op1, op1) <= 1e-10
    assert 0 < dist(op3, op1) <= dist(op2, op1) + dist(op3, op2) + 1e-12
    w1, w3 = solve_torsion(op1).values, solve_torsion(op3).values
    assert dist(op3, op1) == pytest.approx(
        GridFunction(g, w3.values - w1.values).l2_norm(), rel=1e-12)


# --- ball masks ------------------------------------------------------------------

def test_ball_mask_extremes():
    g = build_grid(1, 4.0, 64)
    single = ball_mask(g, [0.3], g.cell_volume)
    assert single.n_active == 1
    assert abs(g.cell_centers[single.active_indices[0], 0] - 0.3) <= g.h / 2
    assert ball_mask(g, [0.0], 64 * g.cell_volume).n_active == 64
    with pytest.raises(ParameterError):
        ball_mask(g, [0.0], 100 * g.cell_volume)


def test_ball_mask_2d_symmetry():
    g = build_grid(2, 2.0, 32)
    m = ball_mask(g, [0.0, 0.0], 0.25 * 16.0)
    cells = m.cells.reshape(32, 32)
    asym = int(np.count_nonzero(cells != cells[::-1, :])) \
        + int(np.count_nonzero(cells != cells[:, ::-1])) \
        + int(np.count_nonzero(cells != cells.T))
    assert asym <= 8 * 3


def test_two_ball_overlap_error():
    g = build_grid(1, 8.0, 128)
    with pytest.raises(ParameterError):
        two_ball_experiment(g, 0.5, 16 * g.cell_volume, [0.0])
    with pytest.raises(ParameterError):
        two_ball_experiment(g, 0.5, 16 * g.cell_volume, [100.0])


def test_two_ball_gap_structure():
    g = build_grid(1, 16.0, 256)
    h = g.h
    rows = two_ball_experiment(g, 0.5, 32 * g.cell_volume,
                               [d * h for d in (8, 32, 128)])
    gaps = [r["gap"] for r in rows]
    assert all(gp > 0 for gp in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    for r in rows:
        assert r["lambda1_union"] < r["lambda1_half_ball"]
    last = rows[-1]
    assert last["lambda2_union"] == pytest.approx(last["lambda1_half_ball"],
                                                  rel=0.005)


# --- minimizer -------------------------------------------------------------------

def test_minimize_zero_iterations(base_64):
    spec = make_functional("l1", 1, "l1")
    traj = minimize_shape(spec, base_64, 8 * base_64.grid.cell_volume, 0, seed=3)
    assert len(traj.masks) == 1
    assert traj.masks[0].n_active == 8


def test_minimize_rejects_bad_volume(base_64):
    spec = make_functional("l1", 1, "l1")
    with pytest.raises(ParameterError):
        minimize_shape(spec, base_64, 0.3 * base_64.grid.cell_volume, 10, seed=0)
    with pytest.raises(ParameterError):
        minimize_shape(spec, base_64, 1000.0, 10, seed=0)


@pytest.mark.parametrize("t0_factor, decay, field", [
    (0.1, 2.0, "decay"),               # at the parent an OverflowError of decay ** j
    (float("nan"), 0.995, "t0_factor"),  # ... a greedy walk, silently
    (-0.1, 0.995, "t0_factor"),        # ... the same
])
def test_minimize_rejects_bad_schedule(t0_factor, decay, field):
    # the CLI's schedule rule, raised before any move on the README grid
    base = assemble_stiffness(build_grid(1, 8.0, 128), 0.5)
    spec = make_functional("l2", 2, "l2")
    with pytest.raises(ParameterError) as info:
        minimize_shape(spec, base, 24 * base.grid.cell_volume, 2000, seed=0,
                       schedule=AnnealingSchedule(t0_factor, decay))
    assert info.value.field == field


def test_minimize_deterministic(base_64):
    spec = make_functional("l1", 1, "l1")
    t1 = minimize_shape(spec, base_64, 8 * base_64.grid.cell_volume, 200, seed=9)
    t2 = minimize_shape(spec, base_64, 8 * base_64.grid.cell_volume, 200, seed=9)
    assert t1.values == t2.values
    assert np.array_equal(t1.masks[-1].cells, t2.masks[-1].cells)


def test_minimize_volume_and_monotone_values(base_64):
    spec = make_functional("l1", 1, "l1")
    traj = minimize_shape(spec, base_64, 10 * base_64.grid.cell_volume, 500,
                          seed=4, schedule=AnnealingSchedule(0.05, 0.99))
    assert all(m.n_active == 10 for m in traj.masks)
    assert all(b <= a for a, b in zip(traj.values, traj.values[1:]))


def test_minimize_lambda1_contiguous(base_64):
    g = base_64.grid
    spec = make_functional("l1", 1, "l1")
    oracle = min(
        eval_functional(spec, base_64, mask_from_indices(g, range(p, p + 16)))
        for p in range(49))
    traj = minimize_shape(spec, base_64, 16 * g.cell_volume, 5000, seed=2)
    assert len(connected_components(traj.masks[-1])) == 1
    assert traj.values[-1] <= 1.01 * oracle


def test_minimize_full_box_makes_no_move():
    # every cell active: no inactive cell to insert, so the walk stops
    g = build_grid(1, 2.0, 16)
    base = assemble_stiffness(g, 0.5)
    spec = make_functional("l1", 1, "l1")
    traj = minimize_shape(spec, base, 16 * g.cell_volume, 5, seed=0)
    assert traj.move_log == [] and len(traj.masks) == 1
    assert traj.values[0] == eval_functional(spec, base, full_mask(g))


# --- the annealing loop against its reference walk -------------------------------

def _erosion_boundary(grid, cells):
    """Active cells with an inactive face neighbour, by binary erosion (the
    box exterior counts as inactive)."""
    arr = cells.reshape(grid.shape)
    cross = ndimage.generate_binary_structure(grid.dim, 1)
    erosion = ndimage.binary_erosion(arr, cross, border_value=0)
    return np.flatnonzero(arr & ~erosion)


def _reference_walk(spec, base, c, iterations, seed, schedule=None,
                    evaluated=None):
    """The annealing walk built from public pieces: eval_functional on a
    DomainMask per move, the erosion boundary, and rng.choice draws.  Each
    evaluated mask's bytes go to the set `evaluated`, when one is given."""
    grid = base.grid
    m = int(round(c / grid.cell_volume))
    schedule = schedule or AnnealingSchedule()
    rng = np.random.default_rng(seed)
    cells = np.zeros(grid.n_cells, dtype=bool)
    cells[rng.choice(grid.n_cells, m, replace=False)] = True
    if evaluated is not None:
        evaluated.add(cells.tobytes())
    value = eval_functional(spec, base, DomainMask(grid, cells))
    t0 = schedule.t0_factor * abs(value) if np.isfinite(value) else 1.0
    masks, values, move_log, best = [cells.copy()], [value], [], value
    for j in range(iterations):
        out_cell = int(rng.choice(_erosion_boundary(grid, cells)))
        in_cell = int(rng.choice(np.flatnonzero(~cells)))
        cells[out_cell], cells[in_cell] = False, True
        if evaluated is not None:
            evaluated.add(cells.tobytes())
        new_value = eval_functional(spec, base, DomainMask(grid, cells))
        delta = new_value - value
        temp = t0 * schedule.decay ** j
        if delta < 0 or (temp > 0 and np.isfinite(delta)
                         and rng.random() < np.exp(-delta / temp)):
            value = new_value
            move_log.append({"iteration": j, "removed": out_cell,
                             "inserted": in_cell, "value": value})
            if value < best:
                best = value
                masks.append(cells.copy())
                values.append(value)
        else:
            cells[out_cell], cells[in_cell] = True, False
    return masks, values, move_log


def _same_walk(traj, reference) -> bool:
    masks, values, move_log = reference
    return (len(traj.masks) == len(masks)
            and all(np.array_equal(a.cells, b) for a, b in zip(traj.masks, masks))
            and traj.values == values and traj.move_log == move_log)


@pytest.fixture(scope="module")
def walk_bases():
    return {1: assemble_stiffness(build_grid(1, 8.0, 128), 0.5),
            2: assemble_stiffness(build_grid(2, 2.0, 16), 0.5)}


WALK_CELLS = {1: 24, 2: 20}
WALK_MOVES = 1000


def _screen_record(monkeypatch):
    """Record the masks a walk solves (a list, in order) and the masks
    its screen certifies (a set), as packed cell bytes.  A matrix is traced
    to its mask through `StiffnessOperator.submatrix`: the walk factors or
    solves the matrix it gathered last.  A bordered count is traced to its
    held mask through the factor it reads, and to its insertions through
    `StiffnessOperator.couplings`: the walk counts the border it gathered
    last.  A certificate is a count below the shift of under k = 2, which
    for l2 is what the screen needs: a direct count of the new mask, or a
    bordered count of the held mask without the removed cell plus one
    inserted cell."""
    last, border, factors, solved, certified = [], [], {}, [], set()
    submatrix, couplings = StiffnessOperator.submatrix, StiffnessOperator.couplings

    def gather(self, cells):
        mask = np.zeros(self.grid.n_cells, dtype=bool)
        mask[cells] = True
        last[:] = [submatrix(self, cells), mask.tobytes()]
        return last[0]

    def gather_border(self, rows, cols):
        border[:] = [couplings(self, rows, cols), cols]
        return border[0]

    def mask_of(a_mat):
        assert a_mat is last[0]
        return last[1]

    lowest, count = shapeopt._lowest_eigh, shapeopt._count_below
    ldl, bordered = shapeopt._shifted_ldl, shapeopt._bordered_count
    symmetric = shapeopt.eigenvalues_or_inf

    def solve(a_mat, k):
        solved.append(mask_of(a_mat))
        return lowest(a_mat, k)

    def screen(a_mat, shift):
        below = count(a_mat, shift)
        if below is not None and below < 2:
            certified.add(mask_of(a_mat))
        return below

    def factor(a_mat, shift):
        out = ldl(a_mat, shift)
        factors[id(out)] = (out, mask_of(a_mat))   # the entry keeps the id taken
        return out

    def screen_border(held, cols, diag):
        counts = bordered(held, cols, diag)
        assert cols is border[0]
        without = np.frombuffer(factors[id(held)][1], dtype=bool)
        for cell, below in zip(border[1], counts):
            if 0 <= below < 2:
                mask = without.copy()
                mask[cell] = True
                certified.add(mask.tobytes())
        return counts

    def solve_symmetric(base, mask, k):
        solved.append(mask.cells.tobytes())
        return symmetric(base, mask, k)

    monkeypatch.setattr(StiffnessOperator, "submatrix", gather)
    monkeypatch.setattr(StiffnessOperator, "couplings", gather_border)
    monkeypatch.setattr(shapeopt, "_lowest_eigh", solve)
    monkeypatch.setattr(shapeopt, "_count_below", screen)
    monkeypatch.setattr(shapeopt, "_shifted_ldl", factor)
    monkeypatch.setattr(shapeopt, "_bordered_count", screen_border)
    monkeypatch.setattr(shapeopt, "eigenvalues_or_inf", solve_symmetric)
    return solved, certified


REFERENCE_WALKS = [(1, "l1"), (2, "l2"), (3, "max(l1, 0.5 * l3) + l2")]
# fast cooling reaches the cold end, where the screen certifies most
# uphill moves, within the walk's 1,000 moves
SCREENED_WALKS = [(1, "l1"), (2, "l2"), (3, "l3"), (2, "2 * l2"), (2, "l1 + l2"),
                  (2, "max(l1, 0.5 * l2)")]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k, combiner, decay",
                         [pytest.param(k, f, 0.995, id=f"{k}-{f}") for k, f in REFERENCE_WALKS]
                         + [pytest.param(k, f, 0.99, id=f"{k}-{f}-fast")
                            for k, f in SCREENED_WALKS])
def test_minimize_matches_reference_walk(walk_bases, monkeypatch, dim, k, combiner, decay):
    # the lean loop must reproduce the public-piece walk to the bit; on the
    # fast-cooling schedule its screen must have skipped some eigensolves
    base = walk_bases[dim]
    spec = make_functional("f", k, combiner)
    c = WALK_CELLS[dim] * base.grid.cell_volume
    schedule = AnnealingSchedule(decay=decay)
    evaluated = set()
    reference = _reference_walk(spec, base, c, WALK_MOVES, 11, schedule, evaluated)
    solved, _ = _screen_record(monkeypatch)
    traj = minimize_shape(spec, base, c, WALK_MOVES, seed=11, schedule=schedule)
    assert len(traj.move_log) > 50
    assert _same_walk(traj, reference)
    if decay < 0.995:
        assert len(solved) < len(evaluated)


def test_reference_walk_comparison_can_fail(walk_bases, monkeypatch):
    # negative control: a boundary that omits one cell draws from the wrong
    # set, and the walk must part from the reference
    boundary = shapeopt._boundary

    def short(cells, neighbours):
        return boundary(cells, neighbours)[1:]

    base = walk_bases[1]
    spec = make_functional("l2", 2, "l2")
    c = WALK_CELLS[1] * base.grid.cell_volume
    reference = _reference_walk(spec, base, c, WALK_MOVES, seed=11)
    monkeypatch.setattr(shapeopt, "_boundary", short)
    assert not _same_walk(minimize_shape(spec, base, c, WALK_MOVES, seed=11),
                          reference)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("fault", ["count-off-by-one", "border-count-off-by-one",
                                   "no-temperature-margin"])
def test_screen_faults_part_from_reference(walk_bases, monkeypatch, dim, fault):
    # negative controls of the screen on the fast-cooling walks: a count
    # one short (certifying lambda_k >= sigma from k eigenvalues below it),
    # in the direct count or in the bordered count's nu(B), or a screen
    # that certifies only dJ >= 0 and still rejects draws of at least
    # e^(1 - 20), must reject moves the exact test accepts
    base = walk_bases[dim]
    spec = make_functional("l2", 2, "l2")
    c = WALK_CELLS[dim] * base.grid.cell_volume
    schedule = AnnealingSchedule(decay=0.99)
    reference = _reference_walk(spec, base, c, WALK_MOVES, 11, schedule)
    if fault == "count-off-by-one":
        count = shapeopt._count_below

        def short(a_mat, shift):
            below = count(a_mat, shift)
            return below if below is None else max(below - 1, 0)

        monkeypatch.setattr(shapeopt, "_count_below", short)
    elif fault == "border-count-off-by-one":
        ldl = shapeopt._shifted_ldl

        def short_factor(a_mat, shift):
            held = ldl(a_mat, shift)
            return held if held is None else held._replace(below=max(held.below - 1, 0))

        monkeypatch.setattr(shapeopt, "_shifted_ldl", short_factor)
    else:
        monkeypatch.setattr(shapeopt, "SCREEN_NATS", 0.0)
    assert not _same_walk(minimize_shape(spec, base, c, WALK_MOVES, 11, schedule),
                          reference)


def _counted(monkeypatch, name):
    """Record the arguments of every call to shapeopt's `name`."""
    calls = []
    fn = getattr(shapeopt, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(shapeopt, name, counted)
    return calls


@pytest.mark.parametrize("dim", [1, 2])
def test_minimize_solves_each_mask_once(walk_bases, monkeypatch, dim):
    # the walk-local memo: at most one eigensolve per distinct mask, on the
    # anneal-1d grid and functional (1D) and on 2D 16², while the walk
    # still matches its reference; every mask it visits and does not solve
    # was certified by the screen; and no torsion solve, which only the
    # dichotomy detector needs (at the parent the walk solved one per
    # improvement snapshot)
    base = walk_bases[dim]
    spec = make_functional("l2", 2, "l2")
    c = WALK_CELLS[dim] * base.grid.cell_volume
    evaluated = set()
    reference = _reference_walk(spec, base, c, WALK_MOVES, seed=11,
                                evaluated=evaluated)
    solved, certified = _screen_record(monkeypatch)
    torsions = _counted(monkeypatch, "solve_torsion")
    traj = minimize_shape(spec, base, c, WALK_MOVES, seed=11)
    assert _same_walk(traj, reference)
    assert len(solved) == len(set(solved)) and set(solved) <= evaluated
    assert evaluated - set(solved) <= certified
    assert len(traj.masks) > 10 and torsions == []


def test_screen_skips_most_eigensolves_on_the_readme_walk(monkeypatch):
    # the README's minimize config (l2, seed 0, 10,000 moves): of the
    # distinct masks the walk proposes (its reference values every one), at
    # most a third are eigensolved and the rest were certified, and the
    # bordered count keeps its work down: at most 1,000 dsytrf factors over
    # both routes and 2,500 gathers of a whole mask (the walk that counts
    # every screened mask directly makes 4,897 and 6,173)
    base = assemble_stiffness(build_grid(1, 8.0, 128), 0.5)
    spec = make_functional("l2", 2, "l2")
    c = 24 * base.grid.cell_volume
    evaluated = set()
    reference = _reference_walk(spec, base, c, 10000, seed=0, evaluated=evaluated)
    solved, certified = _screen_record(monkeypatch)
    factors, gathers = [], []
    sytrf, submatrix = solvers._SYTRF, StiffnessOperator.submatrix

    def counted_sytrf(*args, **kw):
        factors.append(args[0].shape)
        return sytrf(*args, **kw)

    def counted_gather(self, cells):
        gathers.append(cells.size)
        return submatrix(self, cells)

    monkeypatch.setattr(solvers, "_SYTRF", counted_sytrf)
    monkeypatch.setattr(StiffnessOperator, "submatrix", counted_gather)
    traj = minimize_shape(spec, base, c, 10000, seed=0)
    assert _same_walk(traj, reference)
    assert len(solved) == len(set(solved)) and set(solved) <= evaluated
    assert 3 * len(solved) <= len(evaluated)
    assert evaluated - set(solved) <= certified
    assert len(factors) <= 1000
    assert gathers.count(24) <= 2500


@pytest.mark.parametrize("dim, resolution, volume_cells", [(1, 24, 8), (2, 8, 12)])
def test_boundary_matches_erosion(monkeypatch, dim, resolution, volume_cells):
    # every boundary the walk draws from, each after the moves accepted so
    # far, equals the erosion boundary, on walks that reach the box edge;
    # it is computed once per visited state: at the start and after each
    # accepted move
    g = build_grid(dim, 2.0, resolution)
    base = assemble_stiffness(g, 0.5)
    boundary_of = shapeopt._boundary
    seen = []

    def checked(cells_now, neighbours):
        boundary = boundary_of(cells_now, neighbours)
        assert np.array_equal(boundary, _erosion_boundary(g, cells_now))
        seen.append(boundary)
        return boundary

    monkeypatch.setattr(shapeopt, "_boundary", checked)
    spec = make_functional("l1", 1, "l1")
    accepted = 0
    for seed in range(3):
        traj = minimize_shape(spec, base, volume_cells * g.cell_volume, 150, seed,
                              AnnealingSchedule(1.0, 0.999))
        assert len(traj.move_log) > 20
        accepted += len(traj.move_log)
    multi = g.multi_index(np.arange(g.n_cells))
    edge = np.any((multi == 0) | (multi == resolution - 1), axis=1)
    assert len(seen) == 3 + accepted
    assert sum(edge[b].any() for b in seen) > 50


def test_minimize_checks_eigen_residuals(base_64, monkeypatch):
    # the lean path keeps the EIG_RTOL check: a zero tolerance must trip it
    spec = make_functional("l2", 2, "l2")
    monkeypatch.setattr(solvers, "EIG_RTOL", 0.0)
    with pytest.raises(NumericError):
        minimize_shape(spec, base_64, 8 * base_64.grid.cell_volume, 10, seed=0)


# --- detectors -------------------------------------------------------------------

def _two_ball_mask(g, d_cells, cells_each=16):
    h = g.h
    off = (d_cells * h) / 2 + cells_each * h / 2
    left = ball_mask(g, [-off], cells_each * h)
    right = ball_mask(g, [off], cells_each * h)
    return DomainMask(g, left.cells | right.cells)


@pytest.fixture(scope="module")
def base_512():
    return assemble_stiffness(build_grid(1, 32.0, 512), 0.5)


def test_detect_dichotomy_on_receding_pair(base_512):
    g = base_512.grid
    rep = detect_dichotomy([_two_ball_mask(g, d) for d in (4, 8, 16, 32)], base_512)
    assert rep.verdict == "dichotomy"
    assert all(b > a for a, b in zip(rep.separations, rep.separations[1:]))
    for v1, v2 in rep.component_volumes:
        assert v1 == pytest.approx(16 * g.cell_volume)
        assert v2 == pytest.approx(16 * g.cell_volume)


def test_detect_dichotomy_needs_two_masks(base_512):
    # one mask is no tail to judge: at the parent, one two-interval mask
    # read dichotomy and one ball compactness
    g = base_512.grid
    ball = ball_mask(g, [0.0], 32 * g.cell_volume)
    for mask in (_two_ball_mask(g, 16), ball):
        rep = detect_dichotomy([mask], base_512)
        assert rep.verdict == "inconclusive" and rep.separations == []


def test_detect_compactness_on_constant_ball(base_512):
    g = base_512.grid
    ball = ball_mask(g, [0.0], 32 * g.cell_volume)
    assert detect_dichotomy([ball] * 4, base_512).verdict == "compactness"


def test_detect_compactness_is_translation_blind(base_512):
    g = base_512.grid
    ball = ball_mask(g, [0.0], 32 * g.cell_volume)
    balls = [mask_from_indices(g, ball.active_indices + k) for k in (0, 40, 80, 120)]
    assert detect_dichotomy(balls, base_512).verdict == "compactness"


def test_detect_inconclusive_on_alternation(base_512):
    g = base_512.grid
    ball = ball_mask(g, [0.0], 32 * g.cell_volume)
    pair = _two_ball_mask(g, 16)
    assert detect_dichotomy([ball, pair] * 3, base_512).verdict == "inconclusive"


def _debris_pair(g, d_cells):
    # two 32-cell balls and one isolated cell: int(0.02 * 65) = 1 cell of
    # debris is allowed, so the detector measures the gap to the pair
    mask = _two_ball_mask(g, d_cells, cells_each=32)
    cells = mask.cells.copy()
    cells[2] = True
    return DomainMask(g, cells)


@pytest.mark.parametrize("case, verdict, unions", [
    ("receding", "dichotomy", 0), ("ball", "compactness", 0),
    ("alternation", "inconclusive", 0), ("debris", "inconclusive", 1)])
def test_detect_dichotomy_work(base_512, monkeypatch, case, verdict, unions):
    # each tail mask is restricted once, plus once per debris-free union;
    # a dichotomy verdict solves no torsion, any other at most one per
    # tail mask, each on the tail mask's own restriction
    g = base_512.grid
    ball = ball_mask(g, [0.0], 32 * g.cell_volume)
    masks = {"receding": [_two_ball_mask(g, d) for d in (4, 8, 16, 32)],
             "ball": [ball] * 4,
             "alternation": [ball, _two_ball_mask(g, 16)] * 3,
             "debris": [_debris_pair(g, d) for d in (4, 8, 16, 32)]}[case]
    tail = masks[-max(2, len(masks) // 3):]
    restricts = _counted(monkeypatch, "restrict")
    torsions = _counted(monkeypatch, "solve_torsion")
    assert detect_dichotomy(masks, base_512).verdict == verdict
    assert len(restricts) == (1 + unions) * len(tail)
    assert all(args[1] is mk for args, mk in zip(restricts, tail))
    if verdict == "dichotomy":
        assert torsions == []
    else:
        assert len(torsions) <= len(tail)
        assert all(op.mask is mk for (op,), mk in zip(torsions, tail))


def _rescan_clusters(centers, comps):
    """Single linkage as a rescan of every cluster pair after each merge,
    and the gap between the last two clusters."""
    def gap(a, b):
        return min_pair_distance(centers[a], centers[b])

    clusters = list(comps)
    while len(clusters) > 2:
        i, j = min(itertools.combinations(range(len(clusters)), 2),
                   key=lambda ij: gap(clusters[ij[0]], clusters[ij[1]]))
        clusters[i] = np.concatenate([clusters[i], clusters[j]])
        del clusters[j]
    return [np.sort(c) for c in clusters], gap(*clusters)


@pytest.mark.parametrize("dim,res", [(1, 64), (2, 16)])
def test_two_clusters_measures_each_pair_once(monkeypatch, dim, res):
    # random masks of many components, with tied gaps on the lattice: the
    # gap-matrix merge picks the rescan's clusters and separation, and
    # measures each component pair once
    g = build_grid(dim, 4.0, res)
    rng = np.random.default_rng(11)
    calls = _counted(monkeypatch, "min_pair_distance")
    for density in (0.1, 0.2, 0.3):
        comps = connected_components(DomainMask(g, rng.random(g.n_cells) < density))
        assert len(comps) >= 3
        calls.clear()
        clusters, sep = shapeopt._two_clusters(g.cell_centers, comps)
        assert len(calls) == len(comps) * (len(comps) - 1) // 2
        expected, expected_sep = _rescan_clusters(g.cell_centers, comps)
        assert sep == expected_sep
        assert all(np.array_equal(a, b) for a, b in zip(clusters, expected, strict=True))


def _label_oracle(mask):
    """Components by scipy.ndimage.label with the face (cross) structure."""
    grid = mask.grid
    labels, n = ndimage.label(mask.cells.reshape(grid.shape),
                              ndimage.generate_binary_structure(grid.dim, 1))
    flat = labels.ravel()
    comps = [np.flatnonzero(flat == i) for i in range(1, n + 1)]
    return sorted(comps, key=lambda idx: (-idx.size, idx[0]))


def _oracle_masks():
    rng = np.random.default_rng(19)
    for dim, res in ((1, 2), (1, 7), (1, 64), (2, 2), (2, 5), (2, 16), (2, 33)):
        g = build_grid(dim, 1.0, res)
        multi = g.multi_index(np.arange(g.n_cells))
        yield from (empty_mask(g), full_mask(g), mask_from_indices(g, [res // 2]),
                    mask_from_indices(g, [g.n_cells - 1]),
                    # a checkerboard: no cell has an active face neighbour
                    DomainMask(g, multi.sum(axis=1) % 2 == 0))
        if dim == 2:   # one path through every other row, alternating ends
            yield DomainMask(g, (multi[:, 0] % 2 == 0) | (
                multi[:, 1] == np.where(multi[:, 0] % 4 == 1, res - 1, 0)))
        for density in (0.1, 0.3, 0.5, 0.6, 0.8):
            for _ in range(30):
                yield DomainMask(g, rng.random(g.n_cells) < density)


def test_connected_components_is_ndimage_label():
    n = 0
    for mask in _oracle_masks():
        comps, ref = connected_components(mask), _label_oracle(mask)
        assert len(comps) == len(ref)
        for c, r in zip(comps, ref):
            assert c.dtype == r.dtype and np.array_equal(c, r)
        n += 1
    assert n >= 1000


def _recentered_oracle(t):
    """`_recentered_torsion` by scipy.ndimage.shift (order 0, zero fill)."""
    grid = t.mask.grid
    out = t.values.values.reshape(grid.shape)
    coords = np.arange(grid.resolution)
    for axis in range(grid.dim):
        profile = out.sum(axis=tuple(a for a in range(grid.dim) if a != axis))
        centroid = (coords * profile).sum() / profile.sum()
        shift = np.zeros(grid.dim)
        shift[axis] = int(round((grid.resolution - 1) / 2.0 - centroid))
        out = ndimage.shift(out, shift, order=0, mode="constant")
    return out.ravel()


@pytest.mark.parametrize("dim, res", [(1, 64), (1, 65), (2, 16), (2, 17)])
def test_recentered_torsion_is_ndimage_shift(dim, res):
    # blobs in each half (1D) or quadrant (2D) move toward the center with
    # shifts of both signs along every axis
    g = build_grid(dim, 2.0, res)
    rng = np.random.default_rng(res)
    multi = g.multi_index(np.arange(g.n_cells))
    for corner in itertools.product((res // 5, res - 1 - res // 5), repeat=dim):
        near = np.abs(multi - np.array(corner)).max(axis=1) <= res // 8
        values = np.where(near, rng.random(g.n_cells), 0.0)
        t = solvers.TorsionFunction(DomainMask(g, near), GridFunction(g, values), 0.0)
        got = shapeopt._recentered_torsion(t).values
        assert not np.array_equal(got, values)
        assert got.tobytes() == _recentered_oracle(t).tobytes()


def test_connected_components_2d():
    g = build_grid(2, 2.0, 8)
    idx = np.ravel_multi_index(([0, 0, 5, 6, 6], [0, 1, 5, 5, 6]), g.shape)
    comps = connected_components(mask_from_indices(g, idx))
    assert sorted(c.size for c in comps) == [2, 3]
