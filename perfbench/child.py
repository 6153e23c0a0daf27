"""One workload process: set-up, timed rounds, checks, one JSON result line.

Started by run.py with BLAS pinned to one thread and ``src`` on the path;
not meant to be run by hand.  ``--t0`` is the parent's wall clock just
before it started this process, so set-up time runs from process start
until the inputs are ready.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _versions() -> dict:
    """numpy and scipy versions, and the thread count each bundled OpenBLAS
    reports (the library ignores OPENBLAS_NUM_THREADS set after it loads)."""
    import ctypes
    import glob

    import numpy
    import scipy

    threads = {}
    for mod in (numpy, scipy):
        libs = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for lib in glob.glob(str(libs / "libscipy_openblas*")):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    get_threads = getattr(handle, symbol)
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    threads[mod.__name__] = get_threads()
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": threads}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import fracshape
    import fracshape.cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(fracshape.__file__).resolve().parents:
        print(f"fracshape imported from {fracshape.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    import workloads
    from fracshape.errors import FracshapeError

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Rounds run back to back; a new one starts only while it is expected
    # to end within --seconds.  Outputs are checked after the timed phase.
    out_root = Path(args.out)
    rounds, round_s, op_s = [], [], {}
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() + statistics.median(round_s) <= deadline:
        if tracer is not None:
            tracer.phase = len(rounds) + 1
        results, outs, elapsed = {}, {}, 0.0
        for op in workload.ops:
            outs[op.name] = out_root / f"round{len(rounds) + 1}" / op.name
            start = time.perf_counter()
            try:
                results[op.name] = op.run(outs[op.name])
            except FracshapeError as exc:
                results[op.name] = exc
            took = time.perf_counter() - start
            op_s.setdefault(op.name, []).append(took)
            elapsed += took
        rounds.append((results, outs))
        round_s.append(elapsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    ref = workloads.Reference()
    failed_by_round, errors = [], []
    for results, outs in rounds:
        failed_derived, round_errors = workload.check(results, outs, ref)
        failed_by_round.append(set(failed_derived) | {
            n for n, r in results.items() if isinstance(r, Exception)})
        errors += round_errors
    failed_ops, tally_errors = workloads.tally(failed_by_round, workload.known_faults)
    errors += tally_errors
    # one round's work, each operation timed by its median over the rounds:
    # a stall of a shared host (CPU steal, a busy neighbour) then moves one
    # sample, not the result
    wall_s = sum(statistics.median(times) for times in op_s.values())
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "round_s": round_s,
        "op_s": op_s,
        # one round's operations, so the counts do not depend on speed
        "attempted": len(workload.ops) + len(workload.derived),
        "failed": len(failed_ops),
        "failed_ops": failed_ops,
        "errors": errors[:20],
        "n_errors": len(errors),
        "peak_rss_mb": peak_rss_mb,
        "versions": _versions(),
    }
    if tracer is not None:
        names = json.loads(Path("BENCHMARK.json").read_text())["per_layer"]
        metrics = tracer.metrics([m["name"] for m in names if m["name"] != "traced_wall_s"],
                                 len(round_s))
        metrics["traced_wall_s"] = wall_s
        report["per_layer"] = metrics
        tracer.write_spans(out_root / "spans.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
