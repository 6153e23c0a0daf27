"""Tests of the benchmark itself: every output check rejects a corrupted
output (negative controls), the tracer counts a known call sequence
exactly, and run.py refuses a directory without the program.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import fracshape as fs
from fracshape import audit, cli, forms, shapeopt, solvers
from tracer import Tracer

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def small_1d():
    g = fs.build_grid(1, 2.0, 24)
    op = fs.assemble_stiffness(g, 0.5)
    return g, op, checks.dense_matrix(op)


@pytest.fixture(scope="module")
def small_2d():
    g = fs.build_grid(2, 2.0, 6)
    op = fs.assemble_stiffness(g, 0.5)
    return g, op, checks.dense_matrix(op)


# --- reference constructions -------------------------------------------------------

def test_dense_matrix_matches_program_matrix(small_2d):
    _, op, a = small_2d
    np.testing.assert_allclose(a, op.matrix(), rtol=0, atol=1e-12 * np.abs(a).max())


def test_decode_cells_inverts_mask_json(small_1d):
    g = small_1d[0]
    mask = fs.mask_from_indices(g, [0, 3, 4, 5, 23])
    text = fs.grid.mask_to_json(mask)["cells"]
    assert np.array_equal(checks.decode_cells(text, g.n_cells), mask.cells)
    with pytest.raises(ValueError):
        checks.decode_cells(text, g.n_cells + 1)


# --- anneal-1d checks ----------------------------------------------------------------

def test_trajectory_check(small_1d):
    g = small_1d[0]
    masks = [fs.mask_from_indices(g, range(p, p + 4)).cells for p in (0, 1, 2)]
    assert checks.check_trajectory([3.0, 2.0, 2.0], masks, 4) == []
    assert checks.check_trajectory([3.0, 2.0, 2.5], masks, 4)
    grown = masks[:2] + [fs.mask_from_indices(g, range(2, 7)).cells]
    assert checks.check_trajectory([3.0, 2.0, 1.0], grown, 4)


def test_final_value_check(small_1d):
    g, op, a = small_1d
    mask = fs.mask_from_indices(g, range(5, 13))
    lam2 = fs.eigenpairs(fs.restrict(op, mask), 2).eigenvalues[1]
    assert checks.check_final_value(lam2, mask.cells, a, g.cell_volume, 2) == []
    assert checks.check_final_value(lam2 * (1 + 1e-8), mask.cells, a, g.cell_volume, 2)


def test_control_check():
    assert checks.check_control(1.005, 1.0) == []
    assert checks.check_control(1.02, 1.0)


def test_interval_oracle_is_best_interval(small_1d):
    g, op, a = small_1d
    spec = fs.make_functional("l1", 1, "l1")
    best = min(fs.eval_functional(spec, op, fs.mask_from_indices(g, range(p, p + 6)))
               for p in range(g.n_cells - 5))
    assert checks.interval_oracle(a, g.cell_volume, 6) == pytest.approx(best, rel=1e-10)


# --- box-2d checks -------------------------------------------------------------------

def test_eigenvalue_checks(small_2d):
    g, op, a = small_2d
    spec = fs.eigenpairs(fs.restrict(op, fs.full_mask(g)), 4)
    ref = checks.dirichlet_eigvals(a, g.cell_volume, range(g.n_cells), 4)
    vals = list(spec.eigenvalues)
    assert checks.check_eigenvalues(vals, ref) == []
    assert checks.check_square_degeneracy(vals) == []
    bad = vals[:2] + [vals[2] * (1 + 1e-6), vals[3]]
    assert checks.check_eigenvalues(bad, ref)
    assert checks.check_square_degeneracy(bad)


def test_torsion_check(small_2d):
    g, op, a = small_2d
    w = fs.solve_torsion(fs.restrict(op, fs.full_mask(g))).values.values
    idx = np.arange(g.n_cells)
    assert checks.check_torsion(w, a, g.cell_volume, idx, g.resolution) == []
    assert checks.check_torsion(w * 1.01, a, g.cell_volume, idx)          # residual
    negative = w.copy()
    negative[0] = -1e-3
    assert checks.check_torsion(negative, a, g.cell_volume, idx)
    skewed = w.copy()
    skewed[1] *= 1 + 1e-6
    errs = checks.check_torsion(skewed, a, g.cell_volume, idx, g.resolution)
    assert any("symmetric" in e for e in errs)


def test_energy_hash_and_parity_checks():
    assert checks.check_energy(1.03, 1.0) == []
    assert checks.check_energy(1.06, 1.0)
    files = [{"name": "a.csv", "sha256": "00"}]
    assert checks.check_same_hashes(files, list(files)) == []
    assert checks.check_same_hashes(files, [{"name": "a.csv", "sha256": "01"}])
    # lambda_1 of the full 2D box at 32, 33, 34 cells a side today
    assert not checks.parity_holds(2.8398, 2.6380, 2.8423)
    assert checks.parity_holds(2.8398, 2.8410, 2.8423)


# --- analysis-1d checks --------------------------------------------------------------

def test_classify_check():
    pair = {"verdict": "dichotomy", "alpha": 0.5, "mass_limit": 1.0}
    assert checks.check_classify("separating-pair", pair) == []
    assert checks.check_classify("separating-pair", dict(pair, alpha=0.56))
    assert checks.check_classify("translating-bump", pair)
    assert checks.check_classify("flattening-bump", {"verdict": "vanishing"}) == []


def test_lieb_row_check(small_1d):
    g, op, a = small_1d
    ia, ib = np.array([2, 3, 4, 8]), np.array([10, 14, 15, 16])
    cells_a = fs.mask_from_indices(g, ia).cells
    cells_b = fs.mask_from_indices(g, ib).cells
    res = fs.lieb_translation_search(op, fs.DomainMask(g, cells_a),
                                     fs.DomainMask(g, cells_b))
    assert res.satisfied

    def lam1(idx):
        return checks.dirichlet_eigvals(a, g.cell_volume, idx, 1)[0]

    def row(z, lam, bound=res.bound, satisfied=1):
        return {"trial": 0, "z0": z, "bound": repr(float(bound)),
                "lambda1_intersection": repr(float(lam)), "satisfied": str(satisfied)}

    good = row(int(res.z[0]), res.lambda1_intersection)
    assert checks.check_lieb_row(good, cells_a, cells_b, lam1) == []
    assert checks.check_lieb_row(dict(good, lambda1_intersection=repr(
        res.lambda1_intersection * 1.001)), cells_a, cells_b, lam1)
    assert checks.check_lieb_row(dict(good, bound=repr(res.bound * 1.001)),
                                 cells_a, cells_b, lam1)
    assert checks.check_lieb_row(dict(good, satisfied="0"), cells_a, cells_b, lam1)

    # Scale lambda_1 of A and B so that the bound sits among the shifts'
    # values: shifts 11, 12 and 13 meet 0.4 of the true bound, the others not.
    lams = {z: lam1(np.intersect1d(ia + z, ib)) for z in (2, 11, 12, 13)}

    def scaled(f):
        def lam(idx):
            own = np.array_equal(idx, ia) or np.array_equal(idx, ib)
            return f * lam1(idx) if own else lam1(idx)
        return lam

    lam = scaled(0.4)
    bound = 0.4 * res.bound
    assert lams[2] > bound and lams[11] <= bound and lams[12] <= bound
    assert checks.check_lieb_row(row(11, lams[11], bound), cells_a, cells_b, lam) == []
    # true values and a consistent flag, from a search that skipped shift
    # 11, or one that stopped before it
    assert checks.check_lieb_row(row(12, lams[12], bound), cells_a, cells_b, lam)
    assert checks.check_lieb_row(row(2, lams[2], bound, satisfied=0),
                                 cells_a, cells_b, lam)
    # no shift meets 0.2 of the bound: the row must report a least lambda_1
    lam, bound = scaled(0.2), 0.2 * res.bound
    assert min(lams.values()) == lams[12] > bound
    assert checks.check_lieb_row(row(12, lams[12], bound, satisfied=0),
                                 cells_a, cells_b, lam) == []
    assert checks.check_lieb_row(row(2, lams[2], bound, satisfied=0),
                                 cells_a, cells_b, lam)


def test_failed_audit_check():
    names = fs.check_names()
    rows = [{"check": n, "passed": "0" if n == "empty_set_conventions" else "1"}
            for n in names]
    assert checks.check_failed_audit(rows, len(names)) == []
    assert checks.check_failed_audit(rows[:-1], len(names))
    other = [dict(r, passed="0") if r["check"] == "lieb" else r for r in rows]
    assert checks.check_failed_audit(other, len(names))
    assert checks.check_failed_audit(
        [dict(r, passed="1") for r in rows], len(names))


def test_tally_counts_one_round():
    import workloads

    known = {"audit-4", "parity"}
    assert workloads.tally([{"audit-4"}, {"audit-4"}, {"audit-4"}], known) == (
        ["audit-4"], [])
    assert workloads.tally([set(), set()], known) == ([], [])
    failed, errors = workloads.tally([{"audit-4"}, set()], known)
    assert failed == [] and errors == ["audit-4 failed in 1 of 2 rounds"]
    failed, errors = workloads.tally([{"audit-7"}], known)
    assert failed == ["audit-7"] and errors == ["audit-7 failed and is not a known fault"]


def test_anneal_workload_flags_tampered_summary(tmp_path):
    import workloads

    w = workloads.Anneal1D(seed=3)
    for op in w.ops:
        op.config["iterations"] = 30
    outs = {op.name: tmp_path / op.name for op in w.ops}
    results = {op.name: op.run(outs[op.name]) for op in w.ops}
    ref = workloads.Reference()
    l2 = w.ops[0]
    seed = l2.config["seeds"][0]
    summary_path = outs[l2.name] / f"summary_seed{seed}.json"
    summary = json.loads(summary_path.read_text())
    # 30 moves leave the l1 control far from the interval oracle
    failed, errors = w.check(results, outs, ref)
    assert failed == [] and errors and all("l1 control" in e for e in errors)
    summary["final_value"] *= 1 + 1e-6
    summary_path.write_text(json.dumps(summary))
    _, errors = w.check(results, outs, ref)
    assert any("final value" in e for e in errors)


# --- tracer --------------------------------------------------------------------------

def test_tracer_counts_a_known_call_sequence(tmp_path):
    originals = (solvers.eigenpairs, shapeopt.eigenpairs, cli.eigenpairs,
                 audit.ALL_CHECKS[0], cli.GENERATORS["separating-pair"],
                 solvers.DirichletOperator.solve)
    tracer = Tracer().install()
    try:
        g = fs.build_grid(1, 2.0, 16)
        base = fs.assemble_stiffness(g, 0.5)                    # set-up phase
        tracer.phase = 1
        spec = fs.make_functional("l2", 2, "l2")
        for p in (2, 5):
            shapeopt.eval_functional(spec, base, fs.mask_from_indices(g, range(p, p + 6)))
        cli.run_experiment("eig", {"grid": {"dim": 1, "half_width": 2.0, "resolution": 16},
                                   "s": 0.5, "mask": "full", "k": 3}, tmp_path / "eig")
        audit.bounds_audit(base, 0, ["stiffness_symmetry"])
        tracer.phase = 2
        cli.run_experiment("classify", {"generator": "separating-pair", "seeds": [1],
                                        "length": 8}, tmp_path / "cls")
    finally:
        tracer.uninstall()
    assert (solvers.eigenpairs, shapeopt.eigenpairs, cli.eigenpairs,
            audit.ALL_CHECKS[0], cli.GENERATORS["separating-pair"],
            solvers.DirichletOperator.solve) == originals

    totals = tracer.totals()
    assert totals[(False, "forms.assemble_stiffness.calls")] == 1
    assert totals[(True, "forms.assemble_stiffness.calls")] == 1
    assert totals[(True, "forms.cells_assembled")] == 16
    assert totals[(True, "shapeopt.eval_functional.calls")] == 2
    assert totals[(True, "solvers.eigenpairs.calls")] == 3
    assert totals[(True, "solvers.eigenpairs.cells")] == 6 + 6 + 16
    assert totals[(True, "solvers.restrict.calls")] == 3
    assert totals[(True, "cli.run_experiment.calls")] == 2
    assert totals[(True, "serialize.write_csv.calls")] == 3
    assert totals[(True, "serialize.write_json.calls")] == 2 + 2   # each manifest is written through write_json
    assert totals[(True, "serialize.write_manifest.calls")] == 2
    assert totals[(True, "audit.check_stiffness_symmetry.calls")] == 1
    assert totals[(True, "concentration.separating_pair_sequence.calls")] == 1
    assert totals[(True, "concentration.classify.calls")] == 1
    written = sum(f.stat().st_size for f in tmp_path.rglob("*") if f.is_file())
    assert totals[(True, "serialize.bytes_written")] == written

    # self times partition the root spans' time
    roots = sum(e - s for _, s, e, parent, _ in tracer.spans if parent < 0)
    self_ns = sum(v for (_, k), v in totals.items() if k.endswith(".self_s"))
    assert self_ns == pytest.approx(roots * 1e-9, rel=1e-9)

    m = tracer.metrics(["forms.assemble_stiffness.calls", "cli.run_experiment.calls",
                        "audit.check.stiffness_symmetry.s"], rounds=2)
    assert m["forms.assemble_stiffness.calls"] == 1 + 1 / 2
    assert m["cli.run_experiment.calls"] == 2 / 2
    assert m["audit.check.stiffness_symmetry.s"] > 0


# --- run.py ------------------------------------------------------------------------

def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "box-2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
