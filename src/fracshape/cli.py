"""Command line harness: validated JSON configs in, hashed artifacts out.

Subcommands: grid, eig, torsion, two-ball, minimize, classify, lieb, audit.
Every run writes its artifacts plus a manifest (config echo, versions, wall
time, seed list, per-file sha256) into the output directory.  Identical
configs produce byte-identical artifact files.

Every subcommand except `grid` assembles the stiffness form, whose dense
products are n x n, so its grid may have at most forms.MAX_DENSE_CELLS
(4,096) cells; validation rejects a larger one before any work starts.
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
from .grid import (_is_int, build_grid, full_mask, grid_to_json, mask_from_indices,
                   mask_to_json)
from .serialize import write_csv, write_json, write_manifest
from .solvers import eigenpairs, restrict, solve_torsion

GENERATORS = {
    "translating-bump": cc.translating_bump_sequence,
    "flattening-bump": cc.flattening_bump_sequence,
    "separating-pair": cc.separating_pair_sequence,
}

# --- config schema ---------------------------------------------------------------
# A rule is a callable (value, top) -> value that raises ParameterError.  `top`
# holds the top-level fields validated so far, for bounds on an earlier field.
# `grid`, `mask`, `functional` and `schedule` come back built.

def _any(value, top):
    return value


def _int(lo, hi=math.inf):
    """An integer in [lo, hi], where a bound may be a callable of `top`; a
    JSON true or false is no integer."""
    def _rule(value, top):
        lo_, hi_ = (b(top) if callable(b) else b for b in (lo, hi))
        if _is_int(value) and lo_ <= value <= hi_:
            return value
        raise ParameterError(f"must be an integer in [{lo_}, {hi_}], got {value!r}")
    return _rule


def _num(lo, hi, ends="()"):
    """A number between lo and hi, each end open "(" or closed "["."""
    def _rule(value, top):
        if (type(value) in (int, float) and (lo < value or ends[0] == "[" and value == lo)
                and (value < hi or ends[1] == "]" and value == hi)):
            return value
        raise ParameterError(f"must be a number in {ends[0]}{lo}, {hi}{ends[1]}, "
                             f"got {value!r}")
    return _rule


def _str(choices=None):
    """A string, one of `choices` if given."""
    def _rule(value, top):
        if type(value) is str and (choices is None or value in choices):
            return value
        what = "a string" if choices is None else f"one of {sorted(choices)}"
        raise ParameterError(f"must be {what}, got {value!r}")
    return _rule


def _list(item):
    def _rule(value, top):
        if not (isinstance(value, list) and value):
            raise ParameterError(f"must be a nonempty list, got {value!r}")
        return [item(x, top) for x in value]
    return _rule


def _obj(table, then=_any):
    """An object with the fields of `table`, then checked whole by `then`."""
    def _rule(value, top):
        if not isinstance(value, dict):
            raise ParameterError(f"must be an object with keys {', '.join(table)}, "
                                 f"got {value!r}")
        return then(_walk(table, value, top), top)
    _rule.fields = table
    return _rule


def _walk(table, obj, top=None):
    """The fields of `table` in order.  An entry is a rule, for a required
    field, or (rule, default); a default passes the rule too.  `...` marks
    a required field."""
    unknown = sorted(set(obj) - set(table), key=str)
    if unknown:
        raise ParameterError(f"unknown key; the keys are {', '.join(table)}",
                             field=unknown[0])
    out = {}
    for name, entry in table.items():
        rule, default = entry if isinstance(entry, tuple) else (entry, ...)
        if name not in obj and default is ...:
            raise ParameterError("missing", field=name)
        try:
            out[name] = rule(obj.get(name, default), out if top is None else top)
        except ParameterError as exc:
            path = name if exc.field is None else f"{name}.{exc.field}"
            raise ParameterError(str(exc), field=path) from None
    return out


def _validated(table, config) -> dict:
    try:
        return _walk(table, config)
    except ParameterError as exc:
        raise ParameterError(f"config field {exc.field!r}: {exc}", field=exc.field) from None


def _grid(budget):
    """build_grid's fields and rule, and at most `budget` cells."""
    def _built(g, top):
        grid = build_grid(**g)
        if grid.n_cells > budget:
            raise ParameterError(f"{grid.n_cells} cells, over the dense-assembly "
                                 f"budget of {budget}")
        return grid
    return _obj({"dim": _any, "half_width": _any, "resolution": _any}, _built)


def _ball(spec, top):
    grid, center = top["grid"], spec["center"]
    if len(center) != grid.dim or max(map(abs, center)) > grid.half_width:
        raise ParameterError(f"must be a list of {grid.dim} numbers in the box, "
                             f"[-{grid.half_width}, {grid.half_width}]", field="center")
    # ball_mask rejects a volume the grid cannot hold
    return shapeopt.ball_mask(grid, center, spec["volume_cells"] * grid.cell_volume)


def _indices(spec, top):
    # the list is the whole mask, so its errors name `mask`
    grid = top["grid"]
    return mask_from_indices(grid, _list(_int(0, grid.n_cells - 1))(spec["indices"], top))


_MASKS = {"ball": _obj({"type": _any, "center": _list(_num(-math.inf, math.inf)),
                        "volume_cells": _int(1)}, _ball),
          "indices": _obj({"type": _any, "indices": _any}, _indices)}


def _mask(spec, top):
    if spec == "full":
        return full_mask(top["grid"])
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind not in tuple(_MASKS):     # a list or object type is unhashable
        raise ParameterError(f"must be 'full', a ball spec, or an index list, got {spec!r}")
    return _MASKS[kind](spec, top)


_mask.fields = {**_MASKS["ball"].fields, **_MASKS["indices"].fields}


def _distance(d, top):
    grid = top["grid"]
    shapeopt.two_ball_offset(grid, top["total_volume_cells"] * grid.cell_volume,
                             _int(1)(d, top) * grid.h)
    return d


def _functional(f, top):
    spec = shapeopt.make_functional(f["name"], f["k"], f["combiner"])
    # a k over the mask's cell count only pads +inf eigenvalues, and
    # minimize_shape allocates that padding
    if spec.k > top["volume_cells"]:
        raise ParameterError(f"must be at most volume_cells ({top['volume_cells']}), "
                             f"got {spec.k}", field="k")
    return spec


def _checks(names, top):
    audit_mod.select_checks(_list(_any)(names, top))
    return list(names)


def _n_cells(top):
    return top["grid"].n_cells


_GRID, _S, _SEEDS = _grid(MAX_DENSE_CELLS), _num(0, 1), _list(_int(0))
_DEFAULT_SEEDS = [0]
_SCHEDULE = {"t0_factor": (_num(0, math.inf, "[)"), shapeopt.AnnealingSchedule.t0_factor),
             "decay": (_num(0, 1, "(]"), shapeopt.AnnealingSchedule.decay)}

# One table per subcommand, in validation order (see `_walk`).
SCHEMA = {
    "grid": {"grid": _grid(math.inf)},
    "eig": {"grid": _GRID, "s": _S, "mask": _mask,
            "k": _int(1, lambda top: top["mask"].n_active), "seeds": (_SEEDS, _DEFAULT_SEEDS)},
    "torsion": {"grid": _GRID, "s": _S, "mask": _mask, "seeds": (_SEEDS, _DEFAULT_SEEDS)},
    "two-ball": {"grid": _GRID, "s": _S, "total_volume_cells": _int(2, _n_cells),
                 "distances_cells": _list(_distance)},
    "minimize": {"grid": _GRID, "s": _S, "volume_cells": _int(2, _n_cells),
                 "functional": _obj({"name": _str(), "k": _any, "combiner": _str()},
                                    _functional),
                 "iterations": _int(1), "seeds": _SEEDS,
                 # the temperature stays finite, nonnegative and nonincreasing
                 "schedule": (_obj(_SCHEDULE, lambda d, top: shapeopt.AnnealingSchedule(**d)),
                              {})},
    # classify takes epsilon in (0, mass_limit / 4) and a length its grids fit
    "classify": {"generator": _str(GENERATORS), "seeds": _SEEDS,
                 "length": (_int(cc.MIN_LENGTH, lambda top: cc.max_length(top["generator"])), 10),
                 "epsilon_fraction": (_num(0, 0.25), 0.2)},
    # the window of `_run_lieb` must leave a start offset to draw
    "lieb": {"grid": _GRID, "s": _S, "trials": _int(1), "seeds": _SEEDS,
             "mask_cells_max": (_int(1, lambda top: _n_cells(top) - 2), 16),
             "mask_cells_min": (_int(1, lambda top: top["mask_cells_max"]), 4)},
    "audit": {"grid": (_GRID, {"dim": 1, "half_width": 4.0, "resolution": 64}),
              "s": (_S, 0.5), "seeds": (_SEEDS, _DEFAULT_SEEDS),
              "checks": (_checks, audit_mod.check_names())},
}


def validate_config(kind: str, config) -> dict:
    """A new dict of the config's fields by SCHEMA[kind], defaults filled in
    and `grid`, `mask`, `functional` and `schedule` built; a rejected field is
    a ParameterError whose `field` is its dotted path."""
    if not isinstance(config, dict):
        raise ParameterError("config must be a JSON object")
    return _validated(SCHEMA[kind], config)


# --- subcommand runners --------------------------------------------------------

def _run_grid(config, out, seeds):
    grid = config["grid"]
    write_json(out / "grid.json", grid_to_json(grid))
    header = ["cell_index"] + [f"x{a}" for a in range(grid.dim)]
    write_csv(out / "centers.csv", header,
              [np.arange(grid.n_cells), *grid.cell_centers.T])
    return [out / "grid.json", out / "centers.csv"]


def _run_eig(config, out, seeds):
    base, mask = assemble_stiffness(config["grid"], config["s"]), config["mask"]
    spec = eigenpairs(restrict(base, mask), config["k"])
    write_json(out / "spectrum.json", {
        "eigenvalues": spec.eigenvalues, "residuals": spec.residuals,
        "mask": mask_to_json(mask),
    })
    files = [out / "spectrum.json"]
    for j, ef in enumerate(spec.eigenfunctions, start=1):
        path = out / f"eigenfunction_{j}.csv"
        write_csv(path, ["cell_index", "value"], [np.arange(ef.values.size), ef.values])
        files.append(path)
    return files


def _run_torsion(config, out, seeds):
    base, mask = assemble_stiffness(config["grid"], config["s"]), config["mask"]
    tor = solve_torsion(restrict(base, mask))
    write_json(out / "torsion.json", {"residual": tor.residual,
                                      "mask": mask_to_json(mask)})
    write_csv(out / "torsion.csv", ["cell_index", "value"],
              [np.arange(tor.values.values.size), tor.values.values])
    return [out / "torsion.json", out / "torsion.csv"]


def _run_two_ball(config, out, seeds):
    grid = config["grid"]
    rows = shapeopt.two_ball_experiment(
        grid, config["s"], config["total_volume_cells"] * grid.cell_volume,
        [d * grid.h for d in config["distances_cells"]])
    header = ["d", "lambda1_union", "lambda2_union", "lambda1_half_ball", "gap"]
    write_csv(out / "table.csv", header, [[r[k] for r in rows] for k in header])
    return [out / "table.csv"]


def _run_minimize(config, out, seeds):
    grid = config["grid"]
    base = assemble_stiffness(grid, config["s"])
    files = []
    for seed in seeds:
        traj = shapeopt.minimize_shape(
            config["functional"], base, config["volume_cells"] * grid.cell_volume,
            config["iterations"], seed, config["schedule"])
        lines = [json.dumps({"value": v, "cells": mask_to_json(m)["cells"]},
                            sort_keys=True)
                 for m, v in zip(traj.masks, traj.values)]
        path = out / f"trajectory_seed{seed}.jsonl"
        path.write_text("\n".join(lines) + "\n", newline="\n")
        files.append(path)
        report = shapeopt.detect_dichotomy(traj.masks, base)
        write_json(out / f"summary_seed{seed}.json", {
            "final_value": traj.values[-1], "final_mask": mask_to_json(traj.masks[-1]),
            "verdict": report.verdict, "separations": report.separations,
            "component_volumes": report.component_volumes})
        files.append(out / f"summary_seed{seed}.json")
    return files


def _run_classify(config, out, seeds):
    gen = GENERATORS[config["generator"]]
    files = []
    for seed in seeds:
        seq = gen(seed, config["length"])
        rep = cc.classify(seq, config["epsilon_fraction"] * seq.mass_limit)
        write_json(out / f"report_seed{seed}.json", {
            "verdict": rep.verdict, "alpha": rep.alpha, "centers": rep.centers,
            "mass_limit": seq.mass_limit, "evidence": rep.evidence,
            "thresholds": rep.thresholds})
        files.append(out / f"report_seed{seed}.json")
    return files


def _run_lieb(config, out, seeds):
    grid = config["grid"]
    base = assemble_stiffness(grid, config["s"])
    lo, hi = config["mask_cells_min"], config["mask_cells_max"]
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
              list(zip(*rows)))
    write_json(out / "summary.json", {"trials": len(rows),
                                      "satisfied": int(sum(r[5] for r in rows))})
    return [out / "results.csv", out / "summary.json"]


def _run_audit(config, out, seeds):
    base = assemble_stiffness(config["grid"], config["s"])
    results = []
    for seed in seeds:
        for r in audit_mod.bounds_audit(base, seed, config["checks"]):
            results.append([seed, r.name, int(r.passed), r.worst_slack])
    write_csv(out / "audit.csv", ["seed", "check", "passed", "worst_slack"],
              list(zip(*results)))
    all_passed = all(r[2] for r in results)
    write_json(out / "summary.json", {"all_passed": all_passed,
                                      "n_checks": len(results)})
    if not all_passed:
        failed = sorted({r[1] for r in results if not r[2]})
        raise FracshapeError(f"audit failed: {', '.join(failed)}")
    return [out / "audit.csv", out / "summary.json"]


_RUNNERS = {"grid": _run_grid, "eig": _run_eig, "torsion": _run_torsion,
            "two-ball": _run_two_ball, "minimize": _run_minimize,
            "classify": _run_classify, "lieb": _run_lieb, "audit": _run_audit}


def run_experiment(kind: str, config: dict, out_dir, seed_override=None) -> dict:
    """Validate, dispatch, and write artifacts plus the manifest, which
    echoes `config` as given.  A seed override replaces the seed list and
    passes the same rule."""
    checked = validate_config(kind, config)
    if seed_override is not None:
        checked.update(_validated({"seeds": _SEEDS}, {"seeds": [seed_override]}))
    seeds = checked.get("seeds", _DEFAULT_SEEDS)   # grid and two-ball draw none
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    files = _RUNNERS[kind](checked, out, seeds)
    wall = time.perf_counter() - start
    manifest = write_manifest(out, config, seeds, wall, files)
    return {"manifest": manifest, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracshape", description="spectral shape optimization lab for the "
                                      "fractional Dirichlet Laplacian")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in SCHEMA:
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
        try:
            config = json.loads(Path(args.config).read_text()) if args.config else {}
        except (OSError, ValueError) as exc:   # a JSONDecodeError is a ValueError
            raise ParameterError(f"config {args.config}: {exc}") from None
        if args.out is None:
            raise ParameterError("config field 'out': --out directory required")
        bundle = run_experiment(args.kind, config, args.out, args.seed)
    except FracshapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParameterError) else 3
    for f in bundle["files"]:
        print(f)
    print(bundle["manifest"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
