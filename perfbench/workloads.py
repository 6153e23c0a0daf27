"""The benchmark's three workloads: inputs made from a seed, the operations
of one round, and the checks of their outputs.

A round is a fixed list of operations, the same in every round of a run.
Each operation is one `fracshape.cli.run_experiment` call (one CLI
subcommand) or, for the energy cross-check, two public-API calls; a
*derived* operation (the parity check) is computed from other operations'
outputs.  The program sees only the generated configs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import checks
# Program functions are looked up on their modules at call time (fs.x,
# cli.x), so that the tracer's wrappers see the benchmark's own calls too.
import fracshape as fs
from fracshape import cli, forms

S = 0.5
GRID_1D = {"dim": 1, "half_width": 8.0, "resolution": 128}   # README's minimize grid
AUDIT_GRID = {"dim": 1, "half_width": 4.0, "resolution": 64}  # the audit's default
LIEB_GRID = AUDIT_GRID
VOLUME_CELLS = 24
AUDIT_SEEDS = range(20)


class Op:
    """One operation: a CLI subcommand with its config, or an API call."""

    def __init__(self, name, kind, config):
        self.name, self.kind, self.config = name, kind, config

    def run(self, out: Path):
        if self.kind == "energy":
            return _energy(**self.config)
        return cli.run_experiment(self.kind, self.config, out)


def _energy(grid, center, width):
    """Kernel-sum and Fourier-side Gagliardo energy of a Gaussian."""
    g = fs.build_grid(**grid)
    op = fs.assemble_stiffness(g, S)
    x = g.cell_centers
    u = fs.GridFunction(g, np.exp(-((x - center) ** 2).sum(axis=1) / width ** 2))
    return fs.gagliardo_sq(op, u), fs.fourier_seminorm_sq(g, op.params, u)


class Reference:
    """Dense box matrices for the checks, assembled once per grid."""

    def __init__(self):
        self._cache = {}

    def matrix(self, grid: dict):
        key = tuple(sorted(grid.items()))
        if key not in self._cache:
            g = fs.build_grid(**grid)
            self._cache[key] = (checks.dense_matrix(fs.assemble_stiffness(g, S)),
                                g.cell_volume)
        return self._cache[key]

    def eigvals(self, grid: dict, idx, k: int):
        """Reference eigenvalues, cached: every round repeats the same masks."""
        idx = np.asarray(idx)
        key = ("eig", tuple(sorted(grid.items())), idx.tobytes(), k)
        if key not in self._cache:
            a, vol = self.matrix(grid)
            self._cache[key] = checks.dirichlet_eigvals(a, vol, idx, k)
        return self._cache[key]

    def oracle(self, grid: dict, cells: int) -> float:
        key = ("oracle", tuple(sorted(grid.items())), cells)
        if key not in self._cache:
            a, vol = self.matrix(grid)
            self._cache[key] = checks.interval_oracle(a, vol, cells)
        return self._cache[key]


def _read_json(path):
    return json.loads(Path(path).read_text())


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _mask(obj) -> np.ndarray:
    g = obj["grid"]
    return checks.decode_cells(obj["cells"], g["resolution"] ** g["dim"])


def _manifest_hashes(out: Path) -> list:
    return _read_json(out / "manifest.json")["files"]


class Workload:
    """Inputs, set-up and checks of one workload."""

    name = ""
    dims = ()
    derived = ()
    # operations that fail on every run because of a program fault (see
    # the README); any other failure is an error
    known_faults = frozenset()

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = self.make_ops(np.random.default_rng(seed))

    def make_ops(self, rng) -> list:
        raise NotImplementedError

    def setup(self):
        """Finish the program's lazy set-up: the cached normalization and
        face-correction constants of every dimension used, and the grids
        (which validates every config's grid)."""
        for dim in self.dims:
            forms.normalization_constant(S, dim)
            forms.adjacent_correction_factor(S, dim)
        for op in self.ops:
            if "grid" in op.config:
                fs.build_grid(**op.config["grid"])

    def check(self, results: dict, outs: dict, ref: Reference):
        """Return (names of failed derived operations, correctness errors)."""
        raise NotImplementedError


class Anneal1D(Workload):
    """CLI `minimize` as the README configures it: the l2 dichotomy
    functional for 10,000 moves, plus one l1 compactness control, 24 cells
    on the README's 1D grid."""

    name = "anneal-1d"
    dims = (1,)
    # The README's config and criterion 09's l2 runs: long enough to reach
    # the cold, near-greedy end of the default schedule, as that traffic does.
    L2_ITERATIONS = 10000
    # Enough moves for the control to reach the best interval from any
    # seed: over 126 seeds the last one got within 1% by 2,500 moves,
    # and one in 30 was still 8% above it after 2,000.
    L1_ITERATIONS = 4000

    def make_ops(self, rng):
        l2_seed, l1_seed = (int(x) for x in rng.choice(10 ** 6, 2, replace=False))
        return [Op(f"l{k}-seed{seed}", "minimize", {
                    "grid": GRID_1D, "s": S,
                    "functional": {"name": f"l{k}", "k": k, "combiner": f"l{k}"},
                    "volume_cells": VOLUME_CELLS, "iterations": iterations,
                    "seeds": [seed]})
                for k, seed, iterations in ((2, l2_seed, self.L2_ITERATIONS),
                                            (1, l1_seed, self.L1_ITERATIONS))]

    def check(self, results, outs, ref):
        errors = []
        a, vol = ref.matrix(GRID_1D)
        for op in self.ops:
            if isinstance(results[op.name], Exception):
                continue
            seed, k = op.config["seeds"][0], op.config["functional"]["k"]
            lines = (outs[op.name] / f"trajectory_seed{seed}.jsonl").read_text().splitlines()
            steps = [json.loads(line) for line in lines]
            n = GRID_1D["resolution"]
            errors += checks.check_trajectory(
                [s["value"] for s in steps],
                [checks.decode_cells(s["cells"], n) for s in steps], VOLUME_CELLS)
            summary = _read_json(outs[op.name] / f"summary_seed{seed}.json")
            final = summary["final_value"]
            errors += checks.check_final_value(final, _mask(summary["final_mask"]),
                                               a, vol, k)
            if k == 1:
                errors += checks.check_control(final, ref.oracle(GRID_1D, VOLUME_CELLS))
        return [], [f"{self.name}: {e}" for e in errors]


class Box2D(Workload):
    """CLI `eig` (k = 4) and `torsion` on full 2D boxes at 32, 33 and 34
    cells a side and on a 240-cell ball at 24, plus the kernel-vs-Fourier
    energy of a Gaussian at 24."""

    name = "box-2d"
    dims = (2,)
    derived = ("parity-32-33-34",)
    known_faults = frozenset(derived)
    PARITY = (32, 33, 34)
    SMALL = 24

    @staticmethod
    def _grid(resolution):
        return {"dim": 2, "half_width": 4.0, "resolution": resolution}

    def make_ops(self, rng):
        center = [round(float(c), 3) for c in rng.uniform(-0.5, 0.5, 2)]
        ball = {"type": "ball", "center": center, "volume_cells": 240}
        small = self._grid(self.SMALL)
        ops = [Op(f"eig-full-{r}", "eig",
                  {"grid": self._grid(r), "s": S, "mask": "full", "k": 4})
               for r in self.PARITY]
        ops += [
            Op("torsion-full-32", "torsion",
               {"grid": self._grid(32), "s": S, "mask": "full"}),
            Op("eig-ball-24", "eig", {"grid": small, "s": S, "mask": ball, "k": 4}),
            Op("torsion-ball-24", "torsion", {"grid": small, "s": S, "mask": ball}),
            Op("torsion-ball-24-repeat", "torsion",
               {"grid": small, "s": S, "mask": ball}),
            Op("energy-24", "energy",
               {"grid": small, "center": np.array(center),
                "width": float(rng.uniform(0.8, 1.2))}),
        ]
        return ops

    def check(self, results, outs, ref):
        errors, failed = [], []
        lam1 = {}
        for op in self.ops:
            res = results[op.name]
            if isinstance(res, Exception):
                continue
            out = outs[op.name]
            if op.kind == "energy":
                errors += checks.check_energy(*res)
                continue
            a, vol = ref.matrix(op.config["grid"])
            full = op.config["mask"] == "full"
            if op.kind == "eig":
                spec = _read_json(out / "spectrum.json")
                idx = np.flatnonzero(_mask(spec["mask"]))
                vals = spec["eigenvalues"]
                errors += checks.check_eigenvalues(
                    vals, ref.eigvals(op.config["grid"], idx, len(vals)))
                if full:
                    errors += checks.check_square_degeneracy(vals)
                    lam1[op.config["grid"]["resolution"]] = vals[0]
            else:
                idx = np.flatnonzero(_mask(_read_json(out / "torsion.json")["mask"]))
                w = np.array([float(r["value"]) for r in _read_csv(out / "torsion.csv")])
                errors += checks.check_torsion(
                    w, a, vol, idx, op.config["grid"]["resolution"] if full else None)
        if not isinstance(results["torsion-ball-24-repeat"], Exception):
            errors += checks.check_same_hashes(
                _manifest_hashes(outs["torsion-ball-24"]),
                _manifest_hashes(outs["torsion-ball-24-repeat"]))
        if len(lam1) < 3 or not checks.parity_holds(*(lam1[r] for r in self.PARITY)):
            failed.append(self.derived[0])
        return failed, [f"{self.name}: {e}" for e in errors]


GENERATORS = ("translating-bump", "flattening-bump", "separating-pair")


class Analysis1D(Workload):
    """CLI `audit` for seeds 0-19 on the default 1D grid (one operation per
    seed), `classify` for each generator, `lieb` and `two-ball`."""

    name = "analysis-1d"
    dims = (1,)
    LIEB_TRIALS = 100
    # resolvent-norm fault: these seeds fail empty_set_conventions
    RESOLVENT_SEEDS = (4, 9, 10, 14, 18)
    known_faults = frozenset(f"audit-{seed}" for seed in RESOLVENT_SEEDS)

    def make_ops(self, rng):
        ops = [Op(f"audit-{seed}", "audit", {"seeds": [seed]}) for seed in AUDIT_SEEDS]
        ops += [Op(f"classify-{gen}", "classify",
                   {"generator": gen,
                    "seeds": [int(x) for x in rng.choice(400, 5, replace=False)]})
                for gen in GENERATORS]
        ops.append(Op("lieb", "lieb", {"grid": LIEB_GRID, "s": S,
                                       "trials": self.LIEB_TRIALS,
                                       "seeds": [int(rng.integers(10 ** 6))]}))
        distances = sorted(int(x) for x in rng.choice(np.arange(1, 49), 6, replace=False))
        ops.append(Op("two-ball", "two-ball", {"grid": GRID_1D, "s": S,
                                               "total_volume_cells": VOLUME_CELLS,
                                               "distances_cells": distances}))
        return ops

    def check(self, results, outs, ref):
        errors = []
        n_checks = len(fs.check_names())
        for op in self.ops:
            out = outs[op.name]
            if isinstance(results[op.name], Exception):
                if op.kind == "audit":
                    # audit.csv is written before the audit raises
                    path = out / "audit.csv"
                    errors += (checks.check_failed_audit(_read_csv(path), n_checks)
                               if path.is_file()
                               else [f"{op.name} raised before writing audit.csv"])
                continue
            if op.kind == "audit":
                errors += checks.check_audit(_read_json(out / "summary.json"),
                                             _read_csv(out / "audit.csv"), n_checks)
            elif op.kind == "classify":
                for seed in op.config["seeds"]:
                    errors += checks.check_classify(
                        op.config["generator"], _read_json(out / f"report_seed{seed}.json"))
            elif op.kind == "lieb":
                errors += self._check_lieb(op.config, _read_csv(out / "results.csv"), ref)
            else:
                rows = [{k: float(v) for k, v in r.items()}
                        for r in _read_csv(out / "table.csv")]
                errors += checks.check_two_ball(rows)
        return [], [f"{self.name}: {e}" for e in errors]

    @staticmethod
    def _check_lieb(config, rows, ref):
        """Redraw the CLI's masks (same generator calls in the same order)
        and redo every trial's shift scan."""
        a, _ = ref.matrix(config["grid"])
        n = a.shape[0]

        def lam1(idx):
            return ref.eigvals(config["grid"], idx, 1)[0]

        lo, hi = 4, 16
        window = max(hi + 1, n // 3)
        errors, i = [], 0
        for seed in config["seeds"]:
            rng = np.random.default_rng(seed)
            for _ in range(config["trials"]):
                na, nb = rng.integers(lo, hi + 1, 2)
                sa, sb = rng.integers(0, n - window, 2)
                cells_a = np.zeros(n, dtype=bool)
                cells_b = np.zeros(n, dtype=bool)
                cells_a[sa + rng.choice(window, na, replace=False)] = True
                cells_b[sb + rng.choice(window, nb, replace=False)] = True
                if i < len(rows):
                    errors += checks.check_lieb_row(rows[i], cells_a, cells_b, lam1)
                i += 1
        if i != len(rows):
            errors.append(f"lieb reported {len(rows)} trials, expected {i}")
        return errors


def tally(failed_by_round: list, known_faults) -> tuple:
    """Failed operations of a run from each round's set of failed names.

    Returns (names that failed in every round, errors).  An operation that
    fails in some rounds only, or one that is not a known fault, is an
    error, so the failure count is one round's and cannot depend on how
    many rounds fit in the run.
    """
    always = set.intersection(*failed_by_round)
    sometimes = set.union(*failed_by_round) - always
    errors = [f"{name} failed in {sum(name in f for f in failed_by_round)} of "
              f"{len(failed_by_round)} rounds" for name in sorted(sometimes)]
    errors += [f"{name} failed and is not a known fault"
               for name in sorted(always - set(known_faults))]
    return sorted(always), errors


WORKLOADS = {w.name: w for w in (Anneal1D, Box2D, Analysis1D)}
