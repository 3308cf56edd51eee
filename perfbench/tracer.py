"""Spans and counters recorded around clspool's public functions.

The tracer wraps, from outside the program, every public function of the
``data``, ``encoder``, ``heads``, ``arraycore``, ``training`` and ``cli``
modules. Nothing in the program changes: each wrapper replaces every module
attribute in ``clspool.*`` that is bound to the original function, which
includes the aliases that ``from .x import f`` creates.

- A public function gets a span: name, start, end, parent span, run id.
- An ``arraycore`` op is counted, not spanned: calls, forward time and
  backward time, where the backward time comes from wrapping the ``bwd`` of
  the node the op returns. A training step runs ~270 ops, and a span each
  would cost more than the work it measures.
- ``Tape.trace`` also counts the nodes it records.
- ``gc.callbacks`` counts what the cyclic collector frees. Tape graphs are
  ``Node.output`` <-> ``Array.node`` cycles, so only that collector frees them.

Spans stay in memory and are written when the run ends. Grid workers inherit
the wrappers through fork; each worker starts with empty records and writes its
own file when it exits, which the repetition merges.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import multiprocessing.util
import os
import sys
import types
from pathlib import Path
from time import perf_counter

MODULES = ("data", "encoder", "heads", "arraycore", "training", "cli")
# arraycore's public functions that record no tape node; they get spans.
NOT_OPS = frozenset({"array", "zeros", "backward", "set_debug_checks", "grad_check"})
TAPE_METHODS = ("trace", "run_backward")
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def public_functions(module) -> dict:
    """Functions a module defines and exports (its ``__all__``, else no ``_``)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        fn = getattr(module, name)
        if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
            out[name] = fn
    return out


def _clspool_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "clspool" or name.startswith("clspool."))]


class _TimedBwd:
    """A node's backward rule that adds its own run time to the op's stats."""

    __slots__ = ("fn", "stats")

    def __init__(self, fn, stats):
        self.fn = fn
        self.stats = stats

    def __call__(self, g):
        t0 = perf_counter()
        try:
            return self.fn(g)
        finally:
            self.stats[2] += perf_counter() - t0


class Tracer:
    """Records spans and counters for one repetition of a workload.

    ``only`` limits the wrapped functions to the given span names (for example
    ``{"training.evaluate"}``); without it every public function is wrapped and
    the collector is watched too.
    """

    def __init__(self, run_id: str, out_dir: Path, only: frozenset | None = None):
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.only = only
        self.spans: list[list] = []          # [name, start, end, parent index]
        self._open: list[int] = []
        self.ops: dict[str, list] = {}       # op -> [calls, fwd_s, bwd_s]
        self.counts = {"tape_nodes": 0, "gc_collected": 0, "gc_gen2": 0}
        self._patches: list[tuple] = []      # (owner, attr, original, wrapper)
        self._targets: dict[str, object] = {}  # label -> original function
        self.installed = False

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, counter: str | None = None):
        spans, open_, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                open_.pop()
            if counter is not None:
                counts[counter] += len(out.nodes)
            return out

        return wrapper

    def _op(self, name: str, fn):
        stats = self.ops.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            stats[1] += perf_counter() - t0
            stats[0] += 1
            node = out.node
            # An op may hand back an input unchanged (dropout at p=0); its
            # node belongs to the op that made it and is already timed.
            if node is not None and not isinstance(node.bwd, _TimedBwd):
                node.bwd = _TimedBwd(node.bwd, stats)
            return out

        return wrapper

    def _wanted(self, label: str) -> bool:
        return self.only is None or label in self.only

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"clspool.{m}") for m in MODULES}
        # Collect every target before patching any, so that an alias patched
        # early is never mistaken for a function of its own.
        for short, module in modules.items():
            for name, fn in public_functions(module).items():
                if self._wanted(f"{short}.{name}"):
                    self._targets[f"{short}.{name}"] = fn
        bound = _clspool_modules()
        for label, fn in self._targets.items():
            short, name = label.split(".")
            is_op = short == "arraycore" and name not in NOT_OPS
            wrapper = self._op(name, fn) if is_op else self._span(label, fn)
            for owner in bound:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._patches.append((owner, attr, fn, wrapper))
                        setattr(owner, attr, wrapper)
        tape = modules["arraycore"].Tape
        for name in TAPE_METHODS:
            label = f"arraycore.{name}"
            if not self._wanted(label):
                continue
            original = tape.__dict__[name]
            fn = original.__func__ if isinstance(original, classmethod) else original
            wrapper = self._span(label, fn, "tape_nodes" if name == "trace" else None)
            if isinstance(original, classmethod):
                wrapper = classmethod(wrapper)
            self._targets[label] = fn
            self._patches.append((tape, name, original, wrapper))
            setattr(tape, name, wrapper)
        if self.only is None:
            gc.callbacks.append(self._on_gc)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self.installed = False

    def binding_errors(self) -> list[str]:
        """Module attributes that defeat the wrapping, as ``module.attr`` names.

        While installed: any ``clspool.*`` attribute still bound to an
        original function, which calls through it would bypass the trace.
        After ``uninstall``: any attribute not restored to its original.
        """
        errors = []
        if self.installed:
            originals = {id(fn) for fn in self._targets.values()}
            for owner in _clspool_modules():
                for attr, value in vars(owner).items():
                    if id(value) in originals:
                        errors.append(f"{owner.__name__}.{attr}")
        for owner, attr, original, wrapper in self._patches:
            expect = wrapper if self.installed else original
            if owner.__dict__.get(attr) is not expect:
                errors.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return errors

    # -- collector, fork, output --------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "stop":
            self.counts["gc_collected"] += info["collected"]
            if info["generation"] == 2:
                self.counts["gc_gen2"] += 1

    def _after_fork(self) -> None:
        # A worker starts with empty records (mutated in place: the wrappers
        # hold references to these containers) and writes them on exit.
        if not self.installed:
            return
        self.spans.clear()
        self._open.clear()
        for stats in self.ops.values():
            stats[:] = [0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0
        multiprocessing.util.Finalize(self, self.write, exitpriority=10)

    def records(self) -> dict:
        return {
            "pid": os.getpid(),
            "run": self.run_id,
            "env": {k: os.environ.get(k) for k in ENV_KEYS},
            "spans": self.spans,
            "ops": self.ops,
            "counts": self.counts,
        }

    def write(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.records()), encoding="utf-8")


def load_records(out_dir: Path) -> list[dict]:
    """Every process's records for one repetition, by file name."""
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(Path(out_dir).glob("spans-*.json"))]
