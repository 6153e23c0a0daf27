"""Span tracer that wraps fracshape's public functions from outside.

`install` replaces every public function of every ``fracshape.*`` module in
each place that binds it: the defining module, every other module that
imported it by name (``shapeopt``, ``audit`` and ``cli`` import solver
functions that way), the package namespace, and module-level lists and
dicts (``audit.ALL_CHECKS``, ``cli.GENERATORS``).  ``DirichletOperator.solve``
is wrapped on its class.  Nothing inside ``src/`` changes; ``uninstall``
puts every original back.

Spans stay in memory as ``[name, start_ns, end_ns, parent, phase]`` lists
and are written out by `write_spans` when the run ends.  Phase 0 is the
set-up; phase r >= 1 is timed round r.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from collections import defaultdict

PACKAGE = "fracshape"
METHODS = [("solvers", "DirichletOperator", "solve")]


def _add_cells(tracer, args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    tracer.count("forms.cells_assembled", grid.n_cells)


def _add_eig_cells(tracer, args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    tracer.count("solvers.eigenpairs.cells", op.n_active)


def _add_moves(tracer, args, kwargs, result):
    iterations = args[3] if len(args) > 3 else kwargs["iterations"]
    tracer.count("shapeopt.moves", int(iterations))
    tracer.count("shapeopt.accepted", len(result.move_log))


def _add_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("serialize.bytes_written", os.path.getsize(path))


# work counters read at the layer boundary, keyed by span name
COUNTERS = {
    "forms.assemble_stiffness": _add_cells,
    "solvers.eigenpairs": _add_eig_cells,
    "shapeopt.minimize_shape": _add_moves,
    "serialize.write_csv": _add_bytes,
    "serialize.write_json": _add_bytes,   # write_manifest writes through it
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)   # (phase > 0, name) -> total
        self.phase = 0
        self._stack = []
        self._patches = []                 # (container, key, original)
        self._wrappers = {}                # id(original) -> wrapper

    def count(self, name, amount):
        self.counts[(self.phase > 0, name)] += amount

    def wrap(self, name, fn):
        tracer = self
        on_return = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.phase]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return traced

    def _wrapper_for(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            short = fn.__module__.rsplit(".", 1)[-1]
            wrapper = self.wrap(f"{short}.{fn.__name__}", fn)
            self._wrappers[id(fn)] = wrapper
        return wrapper

    def _patch(self, container, key, original, replacement):
        self._patches.append((container, key, original))
        if isinstance(container, (dict, list)):
            container[key] = replacement
        else:
            setattr(container, key, replacement)

    def install(self, package=PACKAGE):
        """Wrap every public package function wherever a module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package or name.startswith(package + ".")]

        def is_target(value):
            return (isinstance(value, types.FunctionType)
                    and not value.__name__.startswith("_")
                    and value.__module__.startswith(package + "."))

        for module in modules:
            for key, value in list(vars(module).items()):
                if is_target(value):
                    self._patch(module, key, value, self._wrapper_for(value))
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if is_target(item):
                            self._patch(value, i, item, self._wrapper_for(item))
                elif isinstance(value, dict):
                    for k, item in list(value.items()):
                        if is_target(item):
                            self._patch(value, k, item, self._wrapper_for(item))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{package}.{mod_name}"], cls_name)
            original = vars(cls)[meth]
            self._patch(cls, meth, original,
                        self.wrap(f"{mod_name}.{cls_name}.{meth}", original))
        return self

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, (dict, list)):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()
        self._wrappers.clear()

    # --- aggregation ----------------------------------------------------------

    def totals(self):
        """Per-phase-kind totals: {(is_round, key): value} for calls, inclusive
        seconds and per-module self seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            kind = phase > 0
            dur = end - start
            out[(kind, f"{name}.calls")] += 1
            out[(kind, f"{name}.s")] += dur * 1e-9
            out[(kind, f"{name.split('.', 1)[0]}.self_s")] += (dur - child_ns[i]) * 1e-9
        for key, value in self.counts.items():
            out[key] += value
        return out

    def metrics(self, names, rounds: int) -> dict:
        """Each metric covers the set-up plus one round: set-up totals plus
        round totals divided by the number of rounds traced."""
        totals = self.totals()

        def value(name):
            # audit.check.<name>.s is the span of audit.check_<name>
            key = name.replace("audit.check.", "audit.check_")
            return totals[(False, key)] + totals[(True, key)] / max(rounds, 1)

        moves = totals[(True, "shapeopt.moves")]
        derived = {
            "shapeopt.accept_ratio":
                totals[(True, "shapeopt.accepted")] / moves if moves else 0.0,
            "shapeopt.evals_per_move":
                totals[(True, "shapeopt.eval_functional.calls")] / moves if moves else 0.0,
        }
        return {n: derived[n] if n in derived else value(n) for n in names}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
