"""Spans recorded from outside the program, around calls into each layer.

The tracer wraps public functions of the ``repro`` modules (module or
class attributes, replaced in place and restored by :meth:`uninstall`),
keeps every span in memory and writes them when the run ends. Spans
nest on one stack: a span's *self* time is its duration minus the
durations of the spans opened directly inside it, which — spans being
strictly nested in one thread — is the part of its interval no child
covers.

Hot per-record or per-batch functions (WKT parsing, kernels, R-tree
probes, block read checks, history records) are *aggregate* spans: they
count into their layer totals and their parent's child time like any
span, but no record of each call is kept.

Calls made in forked worker processes pass straight through: under
``workers=2`` worker-side work is visible only as the parent process's
``executor`` span around it.

:meth:`Tracer.patch_on_import` patches the modules of a package that
are loaded now and each one the program imports later, when it is
imported, so tracing imports nothing the program would not.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.abc
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """An in-memory span stack with per-name totals and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.pid = os.getpid()
        #: Completed kept spans: dicts with id/name/parent/op/start/end/self.
        self.spans: List[Dict[str, Any]] = []
        #: name -> [total seconds, self seconds, calls].
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: Dict[str, float] = defaultdict(float)
        #: Seconds covered by top-level spans (opened on an empty stack).
        self.top_s = 0.0
        #: Identifier shared by the spans of one benchmark operation.
        self.op: Optional[int] = None
        self._stack: List[List[Any]] = []  # [id, name, start, child_s]
        self._next_id = 1
        self._patches: List[Tuple[Any, str, Any]] = []
        self._hooks: List["_OnImport"] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def end(self, keep: bool = True) -> float:
        span_id, name, start, child_s = self._stack.pop()
        end = self.clock()
        duration = end - start
        self_s = duration - child_s
        total = self.totals[name]
        total[0] += duration
        total[1] += self_s
        total[2] += 1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        else:
            self.top_s += duration
            parent = None
        if keep:
            self.spans.append({
                "id": span_id, "name": name, "parent": parent, "op": self.op,
                "start": start, "end": end, "self": self_s,
            })
        return duration

    @contextlib.contextmanager
    def span(self, name: str, keep: bool = True) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end(keep)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    # -- wrapping ----------------------------------------------------------
    def wrap_callable(
        self,
        fn: Callable,
        name: str,
        keep: bool = True,
        after: Optional[Callable[["Tracer", Any, tuple, dict], None]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``after`` sees (tracer, result, args, kwargs)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:  # a forked worker: not ours
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(keep)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        traced._perfbench_tracer = tracer
        return traced

    def _wrapped(self, fn: Any) -> bool:
        """Whether ``fn`` is already one of this tracer's wrappers.

        A module imported while tracing is installed may bind a wrapper
        by name (``from m import f``); patching it again would nest the
        span inside itself.
        """
        return getattr(fn, "_perfbench_tracer", None) is self

    def patch(self, owner: Any, attr: str, name: str, keep: bool = True,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its traced version until uninstall."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if self._wrapped(original):
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap_callable(original, name, keep, after))

    def patch_factory(self, owner: Any, attr: str, name: str) -> None:
        """Trace the callables a factory (``owner.attr``) returns."""
        original = getattr(owner, attr)
        if self._wrapped(original):
            return
        self._patches.append((owner, attr, original))

        @functools.wraps(original)
        def factory(*args, **kwargs):
            return self.wrap_callable(original(*args, **kwargs), name)

        factory._perfbench_tracer = self
        setattr(owner, attr, factory)

    def patch_on_import(self, package: str, apply: Callable[[ModuleType], None]) -> None:
        """``apply`` every module of ``package`` loaded now, and each later one once imported."""
        for name, module in sorted(sys.modules.items()):
            if name.split(".")[0] == package and module is not None:
                apply(module)
        hook = _OnImport(package, apply)
        self._hooks.append(hook)
        sys.meta_path.insert(0, hook)

    def uninstall(self) -> None:
        packages = {hook.package for hook in self._hooks}
        while self._hooks:
            sys.meta_path.remove(self._hooks.pop())
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # Wrappers a module imported while tracing was installed bound by name.
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] in packages and module is not None:
                for attr, value in list(vars(module).items()):
                    if self._wrapped(value):
                        setattr(module, attr, value.__wrapped__)

    # -- output ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Totals, counts and spans as plain data (merged across processes)."""
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counts": dict(self.counts),
            "top_s": self.top_s,
            "spans": self.spans,
        }

    def merge(self, data: Dict[str, Any], op: Optional[int] = None) -> None:
        """Fold another process's :meth:`snapshot` into this tracer."""
        for name, (total, self_s, calls) in data["totals"].items():
            mine = self.totals[name]
            mine[0] += total
            mine[1] += self_s
            mine[2] += calls
        for name, value in data["counts"].items():
            self.counts[name] += value
        self.top_s += data["top_s"]
        for span in data["spans"]:
            self.spans.append(dict(span, op=op, pid="child"))

    def write(self, path: Path, metrics: Dict[str, Any]) -> None:
        """Spans as JSON lines, then one line with the per-layer metrics."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({"metrics": metrics}) + "\n")


class _OnImport(importlib.abc.MetaPathFinder):
    """Calls ``apply(module)`` after each module of ``package`` is executed."""

    def __init__(self, package: str, apply: Callable[[ModuleType], None]):
        self.package = package
        self.apply = apply

    def find_spec(self, name, path, target=None):
        if name.split(".")[0] != self.package:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is not None and hasattr(loader, "exec_module"):
            execute = loader.exec_module

            def exec_module(module: ModuleType) -> None:
                execute(module)
                self.apply(module)

            loader.exec_module = exec_module  # this spec's own loader object
        return spec
