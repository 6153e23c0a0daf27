"""Command line harness: validated JSON configs in, hashed artifacts out.

Subcommands: grid, eig, torsion, two-ball, minimize, classify, lieb, audit.
Every run writes its artifacts plus a manifest (config echo, versions, wall
time, seed list, per-file sha256) into the output directory.  Identical
configs produce byte-identical artifact files.

Every subcommand except `grid` assembles the dense stiffness matrix, so its
grid may have at most forms.MAX_DENSE_CELLS (4,096) cells; validation
rejects a larger one before any work starts or any directory is created.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import concentration as cc
from . import shapeopt
from .errors import FracshapeError, ParameterError
from .forms import MAX_DENSE_CELLS, assemble_stiffness
from .grid import (DomainMask, build_grid, full_mask, grid_to_json,
                   mask_from_indices, mask_to_json)
from .serialize import write_csv, write_json, write_manifest
from .solvers import eigenpairs, restrict, solve_torsion

GENERATORS = {
    "translating-bump": cc.translating_bump_sequence,
    "flattening-bump": cc.flattening_bump_sequence,
    "separating-pair": cc.separating_pair_sequence,
}

_SCHEMAS = {
    "grid": {"required": {"grid"}, "optional": set()},
    "eig": {"required": {"grid", "s", "mask", "k"}, "optional": {"seeds"}},
    "torsion": {"required": {"grid", "s", "mask"}, "optional": {"seeds"}},
    "two-ball": {"required": {"grid", "s", "total_volume_cells", "distances_cells"},
                 "optional": set()},
    "minimize": {"required": {"grid", "s", "functional", "volume_cells",
                              "iterations", "seeds"},
                 "optional": {"schedule"}},
    "classify": {"required": {"generator", "seeds"},
                 "optional": {"length", "epsilon_fraction"}},
    "lieb": {"required": {"grid", "s", "trials", "seeds"},
             "optional": {"mask_cells_min", "mask_cells_max"}},
    "audit": {"required": set(),
              "optional": {"grid", "s", "seeds", "checks"}},
}
# values of the optional fields when a config leaves them out
_DEFAULTS = {"length": 10, "epsilon_fraction": 0.2,
             "mask_cells_min": 4, "mask_cells_max": 16}


def _fail(field: str, message: str):
    raise ParameterError(f"config field {field!r}: {message}")


def validate_config(kind: str, config: dict) -> dict:
    """Schema check: required keys present, unknown keys rejected, values
    within the preconditions of the operation being driven."""
    schema = _SCHEMAS[kind]
    keys = set(config)
    missing = schema["required"] - keys
    if missing:
        _fail(sorted(missing)[0], "missing")
    unknown = keys - schema["required"] - schema["optional"]
    if unknown:
        _fail(sorted(unknown)[0], "unknown key")
    if "grid" in config:
        g = config["grid"]
        fields = ("dim", "half_width", "resolution")
        if not isinstance(g, dict):
            _fail("grid", f"must be an object with keys {', '.join(fields)}")
        missing = [f for f in fields if f not in g]
        if missing:
            _fail(f"grid.{missing[0]}", "missing")
        unknown = sorted(set(g) - set(fields))
        if unknown:
            _fail(f"grid.{unknown[0]}", "unknown key")
        try:
            grid = build_grid(g["dim"], g["half_width"], g["resolution"])
        except ParameterError as exc:
            _fail(f"grid.{exc.field}", str(exc))
        if kind != "grid" and grid.n_cells > MAX_DENSE_CELLS:
            _fail("grid", f"{grid.n_cells} cells, over the dense-assembly "
                          f"budget of {MAX_DENSE_CELLS}")
        if "mask" in config:
            n_active = _build_mask(grid, config["mask"]).n_active
            if "k" in config and not _int_in(config["k"], 1, n_active):
                _fail("k", f"must be an integer in [1, {n_active}] (the mask's "
                           f"cell count), got {config['k']!r}")
        for fld in ("volume_cells", "total_volume_cells"):
            if fld in config and not _int_in(config[fld], 2, grid.n_cells):
                _fail(fld, f"must be an integer in [2, {grid.n_cells}], "
                           f"got {config[fld]!r}")
        if "distances_cells" in config:
            _check_distances(grid, config["total_volume_cells"],
                             config["distances_cells"])
        if kind == "lieb":
            _check_lieb_cells(grid, config)
    # type(x) is int, not isinstance, throughout: a JSON true is no integer
    if "s" in config and not (type(config["s"]) in (int, float)
                              and 0 < config["s"] < 1):
        _fail("s", f"must lie in (0, 1), got {config['s']}")
    if "seeds" in config:
        seeds = config["seeds"]
        if (not isinstance(seeds, list) or not seeds
                or not all(type(x) is int for x in seeds)):
            _fail("seeds", "must be a nonempty list of integers")
    if "functional" in config:
        f = config["functional"]
        for fld in ("name", "k", "combiner"):
            if fld not in f:
                _fail(f"functional.{fld}", "missing")
        try:
            shapeopt.make_functional(f["name"], f["k"], f["combiner"])
        except ParameterError as exc:
            _fail("functional", str(exc))
        # a k over the mask's cell count only pads +inf eigenvalues, and
        # minimize_shape allocates that padding
        if "volume_cells" in config and f["k"] > config["volume_cells"]:
            _fail("functional.k", f"must be at most volume_cells "
                                  f"({config['volume_cells']}), got {f['k']!r}")
    if "generator" in config and config["generator"] not in GENERATORS:
        _fail("generator", f"must be one of {sorted(GENERATORS)}")
    for fld, lo in (("iterations", 1), ("trials", 1), ("length", cc.MIN_LENGTH)):
        if fld in config and not _int_in(config[fld], lo, math.inf):
            _fail(fld, f"must be an integer >= {lo}, got {config[fld]!r}")
    if "epsilon_fraction" in config:
        frac = config["epsilon_fraction"]
        # classify takes epsilon in (0, mass_limit / 4)
        if not (type(frac) in (int, float) and 0 < frac < 0.25):
            _fail("epsilon_fraction", f"must lie in (0, 0.25), got {frac!r}")
    if "schedule" in config:
        _check_schedule(config["schedule"])
    if "checks" in config:
        try:
            audit_mod.select_checks(config["checks"])
        except ParameterError as exc:
            _fail("checks", str(exc))
    return config


def _int_in(value, lo: int, hi: int) -> bool:
    return type(value) is int and lo <= value <= hi


def _check_distances(grid, total_cells: int, distances) -> None:
    """Each distance keeps the two-ball pair apart and inside the box, by
    the geometry `two_ball_experiment` uses."""
    if not (isinstance(distances, list) and distances
            and all(type(d) is int and d >= 1 for d in distances)):
        _fail("distances_cells", f"must be a nonempty list of positive "
                                 f"integers, got {distances!r}")
    for d in distances:
        try:
            shapeopt.two_ball_offset(grid, total_cells * grid.cell_volume,
                                     d * grid.h)
        except ParameterError as exc:
            _fail("distances_cells", f"{d} cells: {exc}")


def _check_lieb_cells(grid, config) -> None:
    """mask_cells_min <= mask_cells_max, both in [1, n_cells - 2], so that
    the window of `_run_lieb` leaves a start offset to draw."""
    hi_cells = grid.n_cells - 2
    lo, hi = (config.get(f, _DEFAULTS[f]) for f in ("mask_cells_min", "mask_cells_max"))
    for fld, value in (("mask_cells_min", lo), ("mask_cells_max", hi)):
        if not _int_in(value, 1, hi_cells):
            _fail(fld, f"must be an integer in [1, {hi_cells}], got {value!r}")
    if lo > hi:
        fld = "mask_cells_min" if "mask_cells_min" in config else "mask_cells_max"
        _fail(fld, f"mask_cells_min ({lo}) exceeds mask_cells_max ({hi})")


def _check_schedule(schedule) -> None:
    """Keys of AnnealingSchedule only; t0_factor finite and >= 0, decay in
    (0, 1], so the temperature stays finite, nonnegative and nonincreasing."""
    if not isinstance(schedule, dict):
        _fail("schedule", "must be an object with keys t0_factor, decay")
    unknown = set(schedule) - {"t0_factor", "decay"}
    if unknown:
        _fail(f"schedule.{sorted(unknown)[0]}", "unknown key; the keys are "
                                                "t0_factor and decay")
    if "t0_factor" in schedule:
        t0 = schedule["t0_factor"]
        if not (type(t0) in (int, float) and math.isfinite(t0) and t0 >= 0):
            _fail("schedule.t0_factor", f"must be a finite number >= 0, got {t0!r}")
    if "decay" in schedule:
        decay = schedule["decay"]
        if not (type(decay) in (int, float) and 0 < decay <= 1):
            _fail("schedule.decay", f"must lie in (0, 1], got {decay!r}")


def _build_mask(grid, spec) -> DomainMask:
    if spec == "full":
        return full_mask(grid)
    if isinstance(spec, dict) and spec.get("type") == "ball":
        center, cells = spec.get("center"), spec.get("volume_cells")
        if not (isinstance(center, list) and len(center) == grid.dim
                and all(type(x) in (int, float) for x in center)):
            _fail("mask.center", f"must be a list of {grid.dim} numbers")
        if not _int_in(cells, 1, grid.n_cells):
            _fail("mask.volume_cells", f"must be an integer in [1, {grid.n_cells}]")
        return shapeopt.ball_mask(grid, center, cells * grid.cell_volume)
    if isinstance(spec, dict) and spec.get("type") == "indices":
        idx = spec.get("indices")
        if not (isinstance(idx, list) and idx
                and all(_int_in(i, 0, grid.n_cells - 1) for i in idx)):
            _fail("mask", f"indices must be a nonempty list of integers in "
                          f"[0, {grid.n_cells})")
        return mask_from_indices(grid, idx)
    _fail("mask", "must be 'full', a ball spec, or an index list")


# --- subcommand runners --------------------------------------------------------

def _run_grid(config, out, seeds):
    grid = build_grid(**config["grid"])
    write_json(out / "grid.json", grid_to_json(grid))
    rows = [(i,) + tuple(c) for i, c in enumerate(grid.cell_centers)]
    header = ["cell_index"] + [f"x{a}" for a in range(grid.dim)]
    write_csv(out / "centers.csv", header, rows)
    return [out / "grid.json", out / "centers.csv"]


def _run_eig(config, out, seeds):
    grid = build_grid(**config["grid"])
    base = assemble_stiffness(grid, config["s"])
    mask = _build_mask(grid, config["mask"])
    spec = eigenpairs(restrict(base, mask), config["k"])
    write_json(out / "spectrum.json", {
        "eigenvalues": spec.eigenvalues, "residuals": spec.residuals,
        "mask": mask_to_json(mask),
    })
    files = [out / "spectrum.json"]
    for j, ef in enumerate(spec.eigenfunctions, start=1):
        path = out / f"eigenfunction_{j}.csv"
        write_csv(path, ["cell_index", "value"], list(enumerate(ef.values)))
        files.append(path)
    return files


def _run_torsion(config, out, seeds):
    grid = build_grid(**config["grid"])
    base = assemble_stiffness(grid, config["s"])
    mask = _build_mask(grid, config["mask"])
    tor = solve_torsion(restrict(base, mask))
    write_json(out / "torsion.json", {"residual": tor.residual,
                                      "mask": mask_to_json(mask)})
    write_csv(out / "torsion.csv", ["cell_index", "value"],
              list(enumerate(tor.values.values)))
    return [out / "torsion.json", out / "torsion.csv"]


def _run_two_ball(config, out, seeds):
    grid = build_grid(**config["grid"])
    h = grid.h
    rows = shapeopt.two_ball_experiment(
        grid, config["s"], config["total_volume_cells"] * grid.cell_volume,
        [d * h for d in config["distances_cells"]])
    header = ["d", "lambda1_union", "lambda2_union", "lambda1_half_ball", "gap"]
    write_csv(out / "table.csv", header, [[r[k] for k in header] for r in rows])
    return [out / "table.csv"]


def _run_minimize(config, out, seeds):
    grid = build_grid(**config["grid"])
    base = assemble_stiffness(grid, config["s"])
    f = config["functional"]
    spec = shapeopt.make_functional(f["name"], f["k"], f["combiner"])
    sched = shapeopt.AnnealingSchedule(**config.get("schedule", {}))
    files = []
    for seed in seeds:
        traj = shapeopt.minimize_shape(
            spec, base, config["volume_cells"] * grid.cell_volume,
            config["iterations"], seed, sched)
        lines = [json.dumps({"value": v, "cells": mask_to_json(m)["cells"]},
                            sort_keys=True)
                 for m, v in zip(traj.masks, traj.values)]
        path = out / f"trajectory_seed{seed}.jsonl"
        path.write_text("\n".join(lines) + "\n", newline="\n")
        files.append(path)
        report = shapeopt.detect_dichotomy(traj, base)
        write_json(out / f"summary_seed{seed}.json", {
            "final_value": traj.values[-1],
            "final_mask": mask_to_json(traj.masks[-1]),
            "verdict": report.verdict,
            "separations": report.separations,
            "component_volumes": report.component_volumes,
        })
        files.append(out / f"summary_seed{seed}.json")
    return files


def _run_classify(config, out, seeds):
    gen = GENERATORS[config["generator"]]
    length = config.get("length", _DEFAULTS["length"])
    frac = config.get("epsilon_fraction", _DEFAULTS["epsilon_fraction"])
    files = []
    for seed in seeds:
        seq = gen(seed, length)
        rep = cc.classify(seq, frac * seq.mass_limit)
        write_json(out / f"report_seed{seed}.json", {
            "verdict": rep.verdict,
            "alpha": rep.alpha,
            "centers": rep.centers,
            "mass_limit": seq.mass_limit,
            "evidence": rep.evidence,
            "thresholds": rep.thresholds,
        })
        files.append(out / f"report_seed{seed}.json")
    return files


def _run_lieb(config, out, seeds):
    grid = build_grid(**config["grid"])
    base = assemble_stiffness(grid, config["s"])
    lo = config.get("mask_cells_min", _DEFAULTS["mask_cells_min"])
    hi = config.get("mask_cells_max", _DEFAULTS["mask_cells_max"])
    window = max(hi + 1, grid.n_cells // 3)
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for trial in range(config["trials"]):
            na, nb = rng.integers(lo, hi + 1, 2)
            # bounded extent keeps in-box overlapping shifts available
            sa, sb = rng.integers(0, grid.n_cells - window, 2)
            a = mask_from_indices(grid, sa + rng.choice(window, na, replace=False))
            b = mask_from_indices(grid, sb + rng.choice(window, nb, replace=False))
            res = cc.lieb_translation_search(base, a, b)
            rows.append([seed, trial, int(res.z[0]), res.lambda1_intersection,
                         res.bound, int(res.satisfied)])
    write_csv(out / "results.csv",
              ["seed", "trial", "z0", "lambda1_intersection", "bound", "satisfied"],
              rows)
    write_json(out / "summary.json", {
        "trials": len(rows),
        "satisfied": int(sum(r[5] for r in rows)),
    })
    return [out / "results.csv", out / "summary.json"]


def _run_audit(config, out, seeds):
    g = config.get("grid", {"dim": 1, "half_width": 4.0, "resolution": 64})
    base = assemble_stiffness(build_grid(**g), config.get("s", 0.5))
    results = []
    for seed in seeds:
        for r in audit_mod.bounds_audit(base, seed, config.get("checks")):
            results.append([seed, r.name, int(r.passed), r.worst_slack])
    write_csv(out / "audit.csv", ["seed", "check", "passed", "worst_slack"],
              results)
    all_passed = all(r[2] for r in results)
    write_json(out / "summary.json", {"all_passed": all_passed,
                                      "n_checks": len(results)})
    if not all_passed:
        failed = sorted({r[1] for r in results if not r[2]})
        raise FracshapeError(f"audit failed: {', '.join(failed)}")
    return [out / "audit.csv", out / "summary.json"]


_RUNNERS = {
    "grid": _run_grid,
    "eig": _run_eig,
    "torsion": _run_torsion,
    "two-ball": _run_two_ball,
    "minimize": _run_minimize,
    "classify": _run_classify,
    "lieb": _run_lieb,
    "audit": _run_audit,
}


def run_experiment(kind: str, config: dict, out_dir, seed_override=None) -> dict:
    """Validate, dispatch, and write artifacts plus the manifest."""
    config = validate_config(kind, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = [seed_override] if seed_override is not None else \
        config.get("seeds", [0])
    start = time.perf_counter()
    files = _RUNNERS[kind](config, out, seeds)
    wall = time.perf_counter() - start
    manifest = write_manifest(out, config, seeds, wall, files)
    return {"manifest": manifest, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracshape",
        description="spectral shape optimization lab for the fractional "
                    "Dirichlet Laplacian",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _SCHEMAS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=(kind != "audit"))
        p.add_argument("--out", required=False, default=None)
        p.add_argument("--seed", type=int, default=None)
        if kind == "audit":
            p.add_argument("--list-checks", action="store_true")
    args = parser.parse_args(argv)
    if args.kind == "audit" and getattr(args, "list_checks", False):
        for name in audit_mod.check_names():
            print(name)
        return 0
    try:
        config = json.loads(Path(args.config).read_text()) if args.config else {}
        if args.out is None:
            raise ParameterError("config field 'out': --out directory required")
        bundle = run_experiment(args.kind, config, args.out, args.seed)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FracshapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for f in bundle["files"]:
        print(f)
    print(bundle["manifest"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
