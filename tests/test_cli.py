import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from fracshape import audit as audit_mod
from fracshape import cli as cli_mod
from fracshape.audit import _Solved, bounds_audit, check_stiffness_symmetry
from fracshape.cli import main, run_experiment, validate_config
from fracshape.errors import ParameterError
from fracshape.forms import StiffnessOperator, assemble_stiffness
from fracshape.grid import GridFunction, build_grid
from fracshape.solvers import DirichletOperator

GRID = {"dim": 1, "half_width": 4.0, "resolution": 64}


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


# --- config validation -----------------------------------------------------------

def test_validate_missing_key():
    with pytest.raises(ParameterError, match="'k'"):
        validate_config("eig", {"grid": GRID, "s": 0.5, "mask": "full"})


def test_validate_unknown_key():
    with pytest.raises(ParameterError, match="'extra'"):
        validate_config("grid", {"grid": GRID, "extra": 1})


def test_validate_bad_s():
    with pytest.raises(ParameterError, match="'s'"):
        validate_config("torsion", {"grid": GRID, "s": 1.5, "mask": "full"})


def test_validate_bad_seeds():
    cfg = {"grid": GRID, "s": 0.5, "trials": 2, "seeds": "0"}
    with pytest.raises(ParameterError, match="'seeds'"):
        validate_config("lieb", cfg)


def test_validate_bad_functional():
    cfg = {"grid": GRID, "s": 0.5, "volume_cells": 8, "iterations": 10,
           "seeds": [0],
           "functional": {"name": "f", "k": 1, "combiner": "l1 - 2"}}
    with pytest.raises(ParameterError):
        validate_config("minimize", cfg)


def test_validate_bad_generator():
    with pytest.raises(ParameterError, match="'generator'"):
        validate_config("classify", {"generator": "nope", "seeds": [0]})


def test_validate_unknown_check():
    with pytest.raises(ParameterError, match="'checks'"):
        validate_config("audit", {"checks": ["bogus"]})


# --- subcommand smoke runs --------------------------------------------------------

def test_run_grid(tmp_path):
    bundle = run_experiment("grid", {"grid": GRID}, tmp_path / "out")
    names = {p.name for p in bundle["files"]}
    assert names == {"grid.json", "centers.csv"}
    assert (tmp_path / "out" / "manifest.json").exists()
    rows = (tmp_path / "out" / "centers.csv").read_text().splitlines()
    assert len(rows) == 65  # header + one row per cell


def test_run_eig(tmp_path):
    cfg = {"grid": GRID, "s": 0.5, "k": 2,
           "mask": {"type": "ball", "center": [0.0], "volume_cells": 16}}
    run_experiment("eig", cfg, tmp_path)
    spec = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(spec["eigenvalues"]) == 2
    assert spec["eigenvalues"][0] < spec["eigenvalues"][1]
    assert (tmp_path / "eigenfunction_1.csv").exists()
    assert (tmp_path / "eigenfunction_2.csv").exists()


def test_run_torsion(tmp_path):
    cfg = {"grid": GRID, "s": 0.5,
           "mask": {"type": "indices", "indices": list(range(20, 44))}}
    run_experiment("torsion", cfg, tmp_path)
    rep = json.loads((tmp_path / "torsion.json").read_text())
    assert rep["residual"] <= 1e-10
    body = (tmp_path / "torsion.csv").read_text().splitlines()[1:]
    vals = [float(line.split(",")[1]) for line in body]
    assert min(vals) >= 0.0 and max(vals) > 0.0


def test_run_two_ball(tmp_path):
    cfg = {"grid": {"dim": 1, "half_width": 16.0, "resolution": 256},
           "s": 0.5, "total_volume_cells": 32, "distances_cells": [8, 32]}
    run_experiment("two-ball", cfg, tmp_path)
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "d"
    gaps = [float(line.split(",")[-1]) for line in lines[1:]]
    assert gaps[0] > gaps[1] > 0


def test_run_minimize(tmp_path):
    cfg = {"grid": GRID, "s": 0.5, "volume_cells": 8, "iterations": 50,
           "seeds": [0, 1],
           "functional": {"name": "l1", "k": 1, "combiner": "l1"}}
    run_experiment("minimize", cfg, tmp_path)
    for seed in (0, 1):
        lines = (tmp_path / f"trajectory_seed{seed}.jsonl").read_text().splitlines()
        values = [json.loads(line)["value"] for line in lines]
        assert all(b <= a for a, b in zip(values, values[1:]))
        summary = json.loads((tmp_path / f"summary_seed{seed}.json").read_text())
        assert summary["final_value"] == values[-1]
        assert summary["verdict"] in ("compactness", "dichotomy", "inconclusive")


def test_minimize_full_box_verdict_is_inconclusive(tmp_path):
    # a full box admits no move, so the walk has one snapshot and no tail;
    # at the parent its summary read "compactness"
    cfg = {"grid": {"dim": 1, "half_width": 2.0, "resolution": 16}, "s": 0.5,
           "volume_cells": 16, "iterations": 5, "seeds": [0],
           "functional": {"name": "l1", "k": 1, "combiner": "l1"}}
    run_experiment("minimize", cfg, tmp_path)
    assert len((tmp_path / "trajectory_seed0.jsonl").read_text().splitlines()) == 1
    summary = json.loads((tmp_path / "summary_seed0.json").read_text())
    assert summary["verdict"] == "inconclusive" and summary["separations"] == []


def test_run_classify(tmp_path):
    cfg = {"generator": "translating-bump", "seeds": [0], "length": 8}
    run_experiment("classify", cfg, tmp_path)
    rep = json.loads((tmp_path / "report_seed0.json").read_text())
    assert rep["verdict"] == "compactness"


def test_run_lieb(tmp_path):
    cfg = {"grid": GRID, "s": 0.5, "trials": 5, "seeds": [0, 1]}
    run_experiment("lieb", cfg, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["trials"] == 10
    assert summary["satisfied"] == 10


def test_run_audit_passes(tmp_path):
    # seed 4 draws a mask with lambda_1 close to lambda_2 (21.76, 22.04), where
    # an iterative estimate of the resolvent norm 1/lambda_1 converges slowly
    cfg = {"seeds": [0, 4], "checks": ["stiffness_symmetry", "torsion_nonnegative",
                                       "empty_set_conventions"]}
    run_experiment("audit", cfg, tmp_path)
    lines = (tmp_path / "audit.csv").read_text().splitlines()[1:]
    assert len(lines) == 6
    assert all(line.split(",")[2] == "1" for line in lines)


def _with_stencil(base, stencil):
    return StiffnessOperator(base.grid, base.params, stencil, base.diag)


def test_audit_negative_control():
    # corrupt one offset of the stencil and confirm the symmetry check names it
    base = assemble_stiffness(build_grid(1, 4.0, 64), 0.5)
    k = base.stencil.copy()
    k[63 - 6] *= 2.0     # offset -6; offset +6 is unchanged
    broken = _with_stencil(base, k)
    result = check_stiffness_symmetry(_Solved(broken), 0)
    assert result.name == "stiffness_symmetry"
    assert not result.passed
    assert result.worst_slack < 0


def test_audit_sign_negative_control():
    # a symmetric pair of positive off-diagonal entries breaks the M-matrix
    # sign pattern without breaking symmetry
    base = assemble_stiffness(build_grid(1, 4.0, 64), 0.5)
    k = base.stencil.copy()
    k[63 - 6] = k[63 + 6] = -k[63 - 6]
    broken = _with_stencil(base, k)
    result = check_stiffness_symmetry(_Solved(broken), 0)
    assert not result.passed
    assert result.worst_slack < 0


@pytest.mark.parametrize("rel", [0.5e-14, 2e-14])
def test_audit_symmetry_passed_follows_slack(rel):
    # a small 2D box at small s has every entry of A below 1; the verdict
    # and the slack must still agree on either side of the threshold
    base = assemble_stiffness(build_grid(2, 0.5, 8), 0.1)
    k = base.stencil.copy()
    scale = max(np.abs(k).max(), np.abs(base.diag).max())
    assert scale < 1.0
    k[3, 9] += rel * scale
    broken = _with_stencil(base, k)
    result = check_stiffness_symmetry(_Solved(broken), 0)
    assert result.passed == (rel < 1e-14)
    assert result.passed == (result.worst_slack > 0)


def test_run_audit_passes_2d(tmp_path):
    cfg = {"grid": {"dim": 2, "half_width": 4.0, "resolution": 24}}
    run_experiment("audit", cfg, tmp_path)
    lines = (tmp_path / "audit.csv").read_text().splitlines()[1:]
    assert len(lines) == 12
    assert all(line.split(",")[2] == "1" for line in lines)


def test_cutoff_decay_negative_control(monkeypatch):
    # a defect that does not decay with R must fail the check
    base = assemble_stiffness(build_grid(1, 4.0, 64), 0.5)
    monkeypatch.setattr(audit_mod, "cutoff_defect", lambda *args: 1.0)
    result = audit_mod.check_cutoff_decay(_Solved(base), 0)
    assert not result.passed
    assert result.worst_slack <= 0


def _packed(mask):
    return np.packbits(mask.cells).tobytes()


def test_audit_solves_each_instance_once(monkeypatch):
    # one Cholesky factorization per distinct mask that the solving checks
    # draw (torsion_nonnegative/energy_identity, the nested pairs, and the
    # projection pairs), however many checks draw it
    base = assemble_stiffness(build_grid(1, 4.0, 64), 0.5)
    grid = base.grid
    factored = []
    exact = DirichletOperator._cho.func

    def counted(self):
        factored.append(_packed(self.mask))
        return exact(self)

    prop = cached_property(counted)
    prop.__set_name__(DirichletOperator, "_cho")
    monkeypatch.setattr(DirichletOperator, "_cho", prop)

    rng = np.random.default_rng(0)
    drawn = {_packed(audit_mod._random_mask(rng, grid))
             for _ in range(audit_mod.TRIALS)}
    rng = np.random.default_rng(0)
    for _ in range(audit_mod.TRIALS):
        drawn |= {_packed(m) for m in audit_mod._nested_pair(rng, grid)}
    rng = np.random.default_rng(0)
    for _ in range(audit_mod.PROJECTION_PAIRS):
        inner, outer = audit_mod._nested_pair(rng, grid)
        drawn |= {_packed(inner), _packed(outer)}
        for _ in range(audit_mod.PROJECTION_COMPETITORS):
            rng.standard_normal(inner.n_active)

    bounds_audit(base, 0)
    assert len(factored) == len(drawn)
    assert set(factored) == drawn
    # a selection runs only its own checks' work
    factored.clear()
    bounds_audit(base, 0, ["stiffness_symmetry", "poincare"])
    assert factored == []


@pytest.mark.parametrize("grid", [(1, 4.0, 64), (2, 4.0, 12)])
def test_audit_check_alone_matches_full_suite(grid):
    # the shared memo hands each check the bits it would compute alone
    base = assemble_stiffness(build_grid(*grid), 0.5)
    full = bounds_audit(base, 3)
    assert [r.name for r in full] == audit_mod.check_names()
    for result in full:
        (alone,) = bounds_audit(base, 3, [result.name])
        assert alone == result
        assert repr(alone.worst_slack) == repr(result.worst_slack)


def test_audit_duality_negative_control(monkeypatch):
    # torsion functions off by 1e-4 relative must break the duality identity
    base = assemble_stiffness(build_grid(1, 4.0, 64), 0.5)
    assert bounds_audit(base, 0, ["duality"])[0].passed
    exact = audit_mod.solve_torsion

    def corrupted(op):
        tor = exact(op)
        return replace(tor, values=GridFunction(op.grid, tor.values.values * (1 + 1e-4)))

    monkeypatch.setattr(audit_mod, "solve_torsion", corrupted)
    result = bounds_audit(base, 0, ["duality"])[0]
    assert not result.passed and result.worst_slack < 0


def test_audit_cli_exit_3_on_failure(tmp_path, monkeypatch):
    base = assemble_stiffness(build_grid(1, 4.0, 64), 0.5)
    k = base.stencil.copy()
    k[63 - 6] *= 2.0
    broken = _with_stencil(base, k)

    def fake_assemble(grid, s, **kw):
        return broken

    monkeypatch.setattr(cli_mod, "assemble_stiffness", fake_assemble)
    cfg = _write_config(tmp_path, {"checks": ["stiffness_symmetry"]})
    rc = main(["audit", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3


# --- main() entry point ----------------------------------------------------------

def test_main_grid_roundtrip(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"grid": GRID})
    rc = main(["grid", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "manifest.json" in capsys.readouterr().out


def test_main_rejects_malformed_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"grid": GRID, "s": 1.5, "mask": "full"})
    rc = main(["torsion", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "'s'" in capsys.readouterr().err


def test_main_rejects_grid_over_dense_budget(tmp_path, capsys):
    big = {"dim": 2, "half_width": 4.0, "resolution": 100}
    cfg = _write_config(tmp_path, {"grid": big, "s": 0.5, "mask": "full", "k": 1})
    rc = main(["eig", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "'grid'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the grid subcommand assembles nothing and keeps the larger budget
    validate_config("grid", {"grid": big})


@pytest.mark.parametrize("indices", [[5000], [-1, -2]])
def test_main_rejects_mask_index_off_grid(tmp_path, capsys, indices):
    mask = {"type": "indices", "indices": indices}
    cfg = _write_config(tmp_path, {"grid": GRID, "s": 0.5, "mask": mask, "k": 1})
    rc = main(["eig", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "'mask'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


MINIMIZE = {"grid": GRID, "s": 0.5, "iterations": 10, "seeds": [0],
            "functional": {"name": "l1", "k": 1, "combiner": "l1"}}
THREE_CELLS = {"type": "indices", "indices": [3, 4, 5]}
TWO_BALL = {"total_volume_cells": 16, "distances_cells": [4, 8]}
LIEB = {"trials": 2, "seeds": [0]}
CLASSIFY = {"generator": "translating-bump", "seeds": [0]}


@pytest.mark.parametrize("kind, config, field", [
    # a ball without its keys: at the parent a KeyError traceback, exit 1
    pytest.param("eig", {"mask": {"type": "ball", "volume_cells": 8}, "k": 1},
                 "mask.center", id="ball-without-center"),
    pytest.param("eig", {"mask": {"type": "ball", "center": [0.0]}, "k": 1},
                 "mask.volume_cells", id="ball-without-volume"),
    pytest.param("torsion", {"mask": {"type": "ball", "center": [0.0, 1.0],
                                      "volume_cells": 8}},
                 "mask.center", id="ball-center-of-wrong-dim"),
    pytest.param("eig", {"mask": {"type": "indices", "indices": []}, "k": 1},
                 "mask", id="empty-index-list"),
    # k beyond the mask's cell count, or not an integer
    pytest.param("eig", {"mask": THREE_CELLS, "k": 9}, "k", id="k-over-mask"),
    pytest.param("eig", {"mask": THREE_CELLS, "k": 0}, "k", id="k-zero"),
    pytest.param("eig", {"mask": THREE_CELLS, "k": 1.5}, "k", id="k-not-integer"),
    # volume outside [2, n_cells] of the 64-cell grid
    pytest.param("minimize", dict(MINIMIZE, volume_cells=1), "volume_cells",
                 id="volume-one-cell"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=65), "volume_cells",
                 id="volume-over-grid"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8.5), "volume_cells",
                 id="volume-not-integer"),
    # schedule: at the parent {"t0": 1} is a TypeError traceback (exit 1)
    # and a negative decay runs with a temperature that flips sign
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8, schedule={"t0": 1}),
                 "schedule.t0", id="schedule-unknown-key"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8, schedule={"decay": -2.0}),
                 "schedule.decay", id="schedule-negative-decay"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8, schedule={"decay": 0}),
                 "schedule.decay", id="schedule-zero-decay"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8,
                                  schedule={"t0_factor": -0.1}),
                 "schedule.t0_factor", id="schedule-negative-t0"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8,
                                  schedule={"t0_factor": float("inf")}),
                 "schedule.t0_factor", id="schedule-infinite-t0"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8, schedule=[0.1, 0.9]),
                 "schedule", id="schedule-not-object"),
    # two-ball on the 64-cell grid: at the parent both raise from
    # two_ball_experiment after --out exists, naming no field
    pytest.param("two-ball", dict(TWO_BALL, distances_cells=[0]),
                 "distances_cells", id="two-ball-zero-distance"),
    pytest.param("two-ball", dict(TWO_BALL, distances_cells=[4, 49]),
                 "distances_cells", id="two-ball-outside-box"),
    pytest.param("two-ball", dict(TWO_BALL, distances_cells=[]),
                 "distances_cells", id="two-ball-no-distance"),
    pytest.param("two-ball", dict(TWO_BALL, total_volume_cells=200),
                 "total_volume_cells", id="two-ball-volume-over-grid"),
    # lieb on the 64-cell grid: at the parent "5" is a TypeError traceback
    # and 70 a ValueError from rng.integers (exit 1), -3 runs 0 trials
    pytest.param("lieb", dict(LIEB, trials="5"), "trials", id="lieb-trials-string"),
    pytest.param("lieb", dict(LIEB, trials=-3), "trials", id="lieb-trials-negative"),
    pytest.param("lieb", dict(LIEB, mask_cells_min=0), "mask_cells_min",
                 id="lieb-cells-min-zero"),
    pytest.param("lieb", dict(LIEB, mask_cells_max=70), "mask_cells_max",
                 id="lieb-cells-max-over-grid"),
    pytest.param("lieb", dict(LIEB, mask_cells_max=63), "mask_cells_max",
                 id="lieb-cells-max-no-window-room"),
    pytest.param("lieb", dict(LIEB, mask_cells_min=12, mask_cells_max=6),
                 "mask_cells_min", id="lieb-cells-min-over-max"),
    # classify: at the parent "5" is a TypeError traceback (exit 1)
    pytest.param("classify", dict(CLASSIFY, length="5"), "length",
                 id="classify-length-string"),
    pytest.param("classify", dict(CLASSIFY, length=5), "length",
                 id="classify-length-under-8"),
    # at the parent these ran after --out existed and exited 2 on a grid
    # resolution over the grid budget, naming no config field
    pytest.param("classify", dict(CLASSIFY, generator="flattening-bump", length=12),
                 "length", id="classify-flattening-length-over-budget"),
    pytest.param("classify", dict(CLASSIFY, generator="separating-pair", length=129),
                 "length", id="classify-separating-length-over-budget"),
    pytest.param("classify", dict(CLASSIFY, length=510), "length",
                 id="classify-translating-length-over-budget"),
    pytest.param("classify", dict(CLASSIFY, epsilon_fraction=0.25),
                 "epsilon_fraction", id="classify-epsilon-quarter"),
    pytest.param("classify", dict(CLASSIFY, epsilon_fraction=0), "epsilon_fraction",
                 id="classify-epsilon-zero"),
    # audit: at the parent 5 is a TypeError traceback and "dunford" an
    # unknown check 'd'; an empty selection passes vacuously
    pytest.param("audit", {"checks": 5}, "checks", id="audit-checks-number"),
    pytest.param("audit", {"checks": "dunford"}, "checks", id="audit-checks-string"),
    pytest.param("audit", {"checks": []}, "checks", id="audit-checks-empty"),
    # JSON booleans are not integers
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8, iterations=True),
                 "iterations", id="iterations-true"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8, seeds=[True]),
                 "seeds", id="seeds-true"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8,
                                  functional={"name": "l1", "k": True, "combiner": "l1"}),
                 "functional", id="functional-k-true"),
    pytest.param("lieb", dict(LIEB, seeds=[False]), "seeds", id="lieb-seeds-false"),
    # grid fields: at the parent 5 and a null half width are TypeError
    # tracebacks (exit 1), and true runs as 1
    pytest.param("eig", {"grid": 5, "mask": "full", "k": 1}, "grid",
                 id="grid-not-object"),
    pytest.param("torsion", {"grid": dict(GRID, half_width=None), "mask": "full"},
                 "grid.half_width", id="grid-half-width-null"),
    pytest.param("torsion", {"grid": dict(GRID, half_width="4"), "mask": "full"},
                 "grid.half_width", id="grid-half-width-string"),
    pytest.param("torsion", {"grid": dict(GRID, half_width=float("nan")),
                             "mask": "full"},
                 "grid.half_width", id="grid-half-width-nan"),
    pytest.param("eig", {"grid": dict(GRID, dim=True, half_width=True),
                         "mask": "full", "k": 1},
                 "grid.dim", id="grid-dim-true"),
    pytest.param("eig", {"grid": dict(GRID, half_width=True), "mask": "full", "k": 1},
                 "grid.half_width", id="grid-half-width-true"),
    pytest.param("eig", {"grid": dict(GRID, resolution=[64]), "mask": "full", "k": 1},
                 "grid.resolution", id="grid-resolution-list"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8,
                                  grid=dict(GRID, spacing=0.1)),
                 "grid.spacing", id="grid-unknown-key"),
    # at the parent k = 1e9 passed and minimize_shape padded 7.45 GiB of +inf
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8,
                                  functional={"name": "big", "k": 1000000000,
                                              "combiner": "l1"}),
                 "functional.k", id="functional-k-over-volume"),
    # at the parent a negative seed raised ValueError from default_rng (exit 1)
    # after --out existed
    pytest.param("classify", dict(CLASSIFY, seeds=[-1]), "seeds", id="classify-seed-negative"),
    pytest.param("lieb", dict(LIEB, seeds=[-1]), "seeds", id="lieb-seed-negative"),
    pytest.param("audit", {"seeds": [-1]}, "seeds", id="audit-seed-negative"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8, seeds=[-1]), "seeds",
                 id="minimize-seed-negative"),
    # at the parent a TypeError traceback (exit 1)
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8, functional=5), "functional",
                 id="functional-not-object"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8,
                                  functional={"name": "l1", "k": 1, "combiner": 5}),
                 "functional.combiner", id="functional-combiner-number"),
    pytest.param("classify", dict(CLASSIFY, generator=["translating-bump"]), "generator",
                 id="classify-generator-list"),
    # at the parent accepted: an extra key ignored, any JSON value as a name,
    # null read as every check
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8,
                                  functional={"name": "l1", "k": 1, "combiner": "l1",
                                              "extra": 1}),
                 "functional.extra", id="functional-unknown-key"),
    pytest.param("minimize", dict(MINIMIZE, volume_cells=8,
                                  functional={"name": 5, "k": 1, "combiner": "l1"}),
                 "functional.name", id="functional-name-number"),
    pytest.param("eig", {"mask": {"type": "ball", "center": [0.0], "volume_cells": 8,
                                  "radius": 1.0}, "k": 1},
                 "mask.radius", id="ball-unknown-key"),
    pytest.param("torsion", {"mask": dict(THREE_CELLS, center=[0.0])}, "mask.center",
                 id="indices-unknown-key"),
    pytest.param("audit", {"checks": None}, "checks", id="audit-checks-null"),
    # at the parent a NaN residual (exit 3) after --out existed, and an
    # arbitrary 8-cell "ball" with an overflow warning
    pytest.param("torsion", {"grid": dict(GRID, half_width=1e300), "mask": "full"},
                 "grid.half_width", id="grid-half-width-huge"),
    pytest.param("eig", {"mask": {"type": "ball", "center": [1e300], "volume_cells": 8},
                         "k": 1},
                 "mask.center", id="ball-center-outside-box"),
])
def test_main_rejects_field_before_any_output(tmp_path, capsys, kind, config, field):
    if kind != "classify":
        config = dict({"grid": GRID, "s": 0.5}, **config)
    cfg = _write_config(tmp_path, config)
    rc = main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config field {field!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_accepts_field_bounds():
    validate_config("eig", {"grid": GRID, "s": 0.5, "mask": THREE_CELLS, "k": 3})
    for cells in (2, 64):
        validate_config("minimize", dict(MINIMIZE, volume_cells=cells))
    for schedule in ({}, {"t0_factor": 0, "decay": 1}, {"decay": 0.5}):
        validate_config("minimize", dict(MINIMIZE, volume_cells=8,
                                         schedule=schedule))
    # balls of 8 cells of h = 1/8 on the half width 4: a distance of 48
    # cells puts the outer ball edges at 3 + 1 = 4, the box edge (49 fails)
    validate_config("two-ball", dict(TWO_BALL, grid=GRID, s=0.5,
                                     distances_cells=[1, 48]))
    for cells in ({"mask_cells_min": 1, "mask_cells_max": 62},
                  {"mask_cells_min": 5, "mask_cells_max": 5}):
        validate_config("lieb", dict(LIEB, grid=GRID, s=0.5, **cells))
    validate_config("classify", dict(CLASSIFY, length=8, epsilon_fraction=0.2499))
    for generator, length in (("translating-bump", 509), ("flattening-bump", 11),
                              ("separating-pair", 128)):
        validate_config("classify", dict(CLASSIFY, generator=generator, length=length))
    validate_config("audit", {"checks": ["dunford", "duality"]})


def test_main_rejects_negative_seed_override(tmp_path, capsys):
    # at the parent --seed skipped validation and -3 raised from default_rng
    cfg = _write_config(tmp_path, CLASSIFY)
    rc = main(["classify", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "-3"])
    assert rc == 2
    assert "config field 'seeds'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("{", "Expecting property name"),
    (None, "No such file"),
    ("[1]", "config must be a JSON object"),
    ('"eig"', "config must be a JSON object"),
])
def test_main_rejects_unreadable_config(tmp_path, capsys, text, message):
    # at the parent a traceback (exit 1), or a message naming a field of a
    # config that is no object
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    rc = main(["audit", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    if message != "config must be a JSON object":
        assert str(path) in err
    assert not (tmp_path / "out").exists()


def test_validate_fills_defaults_without_changing_the_config():
    config = dict(CLASSIFY)
    checked = validate_config("classify", config)
    assert config == CLASSIFY
    assert (checked["length"], checked["epsilon_fraction"]) == (10, 0.2)
    lieb = validate_config("lieb", dict(LIEB, grid=GRID, s=0.5))
    assert (lieb["mask_cells_min"], lieb["mask_cells_max"]) == (4, 16)
    audit = validate_config("audit", {})
    assert audit["grid"] == build_grid(1, 4.0, 64) and audit["s"] == 0.5
    assert audit["checks"] == audit_mod.check_names() and audit["seeds"] == [0]


# --- schema fuzz -------------------------------------------------------------------

FUZZ_VALUES = [True, None, "5", -1, 0, 1e300, float("nan"), [], {}, [True], 2.5, [1e300]]
# a valid config per subcommand with every field given, on the 64-cell grid;
# eig takes a ball and torsion an index list, so each mask spec is fuzzed
FUZZ_BASE = {
    "grid": {"grid": GRID},
    "eig": {"grid": GRID, "s": 0.5, "k": 2, "seeds": [0],
            "mask": {"type": "ball", "center": [0.0], "volume_cells": 8}},
    "torsion": {"grid": GRID, "s": 0.5, "mask": THREE_CELLS, "seeds": [0]},
    "two-ball": dict(TWO_BALL, grid=GRID, s=0.5),
    "minimize": dict(MINIMIZE, volume_cells=8, schedule={"t0_factor": 0.1, "decay": 0.995}),
    "classify": dict(CLASSIFY, length=8, epsilon_fraction=0.2),
    "lieb": dict(LIEB, grid=GRID, s=0.5, mask_cells_min=4, mask_cells_max=16),
    "audit": {"grid": GRID, "s": 0.5, "seeds": [0], "checks": ["stiffness_symmetry"]},
}


def _schema_paths(table, prefix=""):
    for name, entry in table.items():
        rule = entry[0] if isinstance(entry, tuple) else entry
        yield prefix + name
        yield from _schema_paths(getattr(rule, "fields", {}), f"{prefix}{name}.")


def _mutated(config, path, value):
    config = json.loads(json.dumps(config))
    *parents, name = path.split(".")
    inner = config
    for key in parents:
        inner = inner[key]
    inner[name] = value
    return config


def _fuzz(kind):
    """Each schema field of the base config set to each fuzz value; returns
    the configs that validate.  A rejection names the field, one that encloses
    it, or a key missing inside it."""
    accepted = []
    for path in _schema_paths(cli_mod.SCHEMA[kind]):
        for value in FUZZ_VALUES:
            config = _mutated(FUZZ_BASE[kind], path, value)
            try:
                validate_config(kind, config)
            except ParameterError as exc:
                named = exc.field
                assert (named == path or path.startswith(named + ".")
                        or named.startswith(path + ".")), (path, value, str(exc))
                assert str(exc).startswith(f"config field {named!r}: ")
                continue
            accepted.append(config)
    return accepted


@pytest.mark.parametrize("kind", list(cli_mod.SCHEMA))
def test_fuzzed_field_is_named_or_runs(tmp_path, kind):
    for i, config in enumerate(_fuzz(kind)):
        cfg = _write_config(tmp_path, config, name=f"config{i}.json")
        assert main([kind, "--config", cfg, "--out", str(tmp_path / f"out{i}")]) == 0, config


def test_fuzz_negative_control(monkeypatch):
    # without its string rule, a combiner that is no string reaches compile()
    functional = cli_mod.SCHEMA["minimize"]["functional"]
    monkeypatch.setitem(functional.fields, "combiner", lambda value, top: value)
    with pytest.raises(TypeError):
        _fuzz("minimize")


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_tables():
    """{subcommand: field paths} from the README's per-subcommand tables."""
    tables, kind = {}, None
    for line in README.read_text().splitlines():
        if line.startswith("#### `fracshape "):
            kind = line.split()[2].strip("`")
            tables[kind] = set()
        elif kind and line.startswith("| `"):
            tables[kind].add(line.split("`")[1])
        elif kind and not line.startswith("|") and tables[kind]:
            kind = None
    return tables


def test_readme_tables_list_the_schema():
    assert _readme_tables() == {kind: set(_schema_paths(table))
                                for kind, table in cli_mod.SCHEMA.items()}
    text = README.read_text()
    example = text.split("Example config for `minimize`:")[1].split("```json")[1]
    validate_config("minimize", json.loads(example.split("```")[0]))


def test_validate_bounds_functional_k_by_volume():
    cfg = dict(MINIMIZE, volume_cells=8,
               functional={"name": "f", "k": 8, "combiner": "l1 + l8"})
    validate_config("minimize", cfg)
    cfg["functional"] = dict(cfg["functional"], k=9)
    with pytest.raises(ParameterError, match="'functional.k'"):
        validate_config("minimize", cfg)


@pytest.mark.parametrize("checks, match", [
    (["dunfrod"], "unknown check 'dunfrod'"),
    ("dunford", "nonempty list"),       # at the parent: selected by substring
    ([], "nonempty list"),              # at the parent: an audit of no check
    (["dunford", 3], "nonempty list"),
])
def test_bounds_audit_rejects_bad_selection(checks, match):
    # at the parent bounds_audit(None, 0, ["dunfrod"]) returned [], an audit
    # that passes vacuously
    with pytest.raises(ParameterError, match=match):
        bounds_audit(None, 0, checks)
    with pytest.raises(ParameterError, match=f"'checks'.*{match}"):
        validate_config("audit", {"checks": checks})


def test_select_checks_keeps_suite_order():
    picked = audit_mod.select_checks(["poincare", "stiffness_symmetry"])
    assert [fn.__name__ for fn in picked] == ["check_stiffness_symmetry",
                                              "check_poincare"]
    assert audit_mod.select_checks(None) == audit_mod.ALL_CHECKS


# the scipy subpackages that fracshape does not use; importing any of them
# costs start-up time in every CLI process
HEAVY_SCIPY = ("scipy.ndimage", "scipy.spatial", "scipy.special", "scipy.sparse",
               "scipy.fft", "scipy.signal")
_IMPORT_PROBE = """
import sys
{before}
import fracshape.cli
loaded = [m for m in {heavy!r} if m in sys.modules]
sys.exit(f"loaded: {{loaded}}" if loaded else 0)
"""


@pytest.mark.parametrize("before, clean", [
    ("", True),
    # negative control: the probe fails once scipy.ndimage is loaded
    ("import scipy.ndimage", False),
])
def test_cli_import_loads_no_unused_scipy(before, clean):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = _IMPORT_PROBE.format(before=before, heavy=HEAVY_SCIPY)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode == 0) == clean, proc.stderr
    if not clean:
        assert "scipy.ndimage" in proc.stderr


def test_main_list_checks(capsys):
    rc = main(["audit", "--list-checks"])
    assert rc == 0
    names = capsys.readouterr().out.split()
    assert "duality" in names and "lieb" in names
    assert len(names) == 12


def test_seed_override(tmp_path):
    cfg = {"generator": "translating-bump", "seeds": [0], "length": 8}
    run_experiment("classify", cfg, tmp_path / "a", seed_override=4)
    assert (tmp_path / "a" / "report_seed4.json").exists()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["seeds"] == [4]


def test_reproducible_artifacts(tmp_path):
    cfg = {"grid": GRID, "s": 0.5, "volume_cells": 8, "iterations": 100,
           "seeds": [0],
           "functional": {"name": "l1", "k": 1, "combiner": "l1"}}
    b1 = run_experiment("minimize", cfg, tmp_path / "r1")
    b2 = run_experiment("minimize", cfg, tmp_path / "r2")
    for f1, f2 in zip(b1["files"], b2["files"]):
        assert f1.read_bytes() == f2.read_bytes()
    m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    assert m1["files"] == m2["files"]
