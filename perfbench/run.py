"""fracshape benchmark: three workloads driven through the public API and
`fracshape.cli.run_experiment`, timed from outside.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload anneal-1d --seed 1 --seconds 30 --trace 0

Each workload runs in its own process with BLAS pinned to one thread and
``src`` first on the path.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics (setup_s, wall_s, peak_rss_mb); with ``--trace 1``
the same workload runs once more with every public fracshape function
wrapped and the line holds the per-layer metrics.  The line before it is
the run's provenance.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("anneal-1d", "box-2d", "analysis-1d")
SETUP_PROBES = 2          # set-up-only processes before, and again after, the main one
TIME_LIMIT_S = 170.0      # the whole run, set-up probes included
OUT_DIR = ".perfbench_out"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
          "PYTHONDONTWRITEBYTECODE": "1"}


def _cpu_steal_s() -> float | None:
    """Cumulative steal time of all CPUs from /proc/stat, in seconds."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_sha256(root: Path) -> str:
    """Digest of every file under src/, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _child(args, env, deadline, out, extra=()):
    """Run one workload process; return its last stdout line as JSON."""
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--t0", repr(time.time()), *extra]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "fracshape" / "__init__.py").is_file():
        print("error: run from the root of a fracshape checkout "
              "(src/fracshape is missing)", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [x for x in [os.environ.get("PYTHONPATH")] if x])
    out = root / OUT_DIR / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    steal0, load1 = _cpu_steal_s(), os.getloadavg()[0]
    try:
        # set-up samples spread over the run, since the machine's speed drifts
        def probes():
            return [_child(args, env, deadline, out, ["--setup-only"])["setup_s"]
                    for _ in range(0 if args.trace else SETUP_PROBES)]
        setups = probes()
        run = _child(args, env, deadline, out)
        setups += probes()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    steal1 = _cpu_steal_s()

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in _per_layer_units(root, run["per_layer"])}
    else:
        setups.append(run["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": run["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": _git_sha(root), "src_sha256": _src_sha256(root),
        "nproc": os.cpu_count(), "loadavg_1m": load1,
        "cpu_steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "setup_samples_s": setups, "round_s": run["round_s"], "op_s": run["op_s"],
        "failed_ops": run["failed_ops"], "errors": run["errors"],
        **run["versions"],
    }
    result = {"correct": run["n_errors"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    (out / "result.json").write_text(json.dumps(
        {"provenance": provenance, **result}, indent=2) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


def _per_layer_units(root: Path, values: dict):
    for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]:
        yield m["name"], values[m["name"]], m["unit"]


if __name__ == "__main__":
    sys.exit(main())
