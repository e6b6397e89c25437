"""Span tracing of spinsync's layers from outside the package.

The traced run wraps every public function of the layer modules, by object
identity, in every ``spinsync.*`` namespace that holds it.  Names are imported
by value (``catalog`` binds its own ``build_liouvillian``), so each binding is
patched separately; calls that go through a module's globals are then traced
wherever they happen.  ``numpy.linalg``'s decompositions are wrapped the same
way.  Spans stay in memory; :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("spin", "lindblad", "signals", "perturbation", "catalog", "cli")
LINALG_FUNCTIONS = ("svd", "solve", "lstsq", "eig")

# A misalignment below this is treated as aligned when classifying the input
# of the peak search; the program's own fast path uses 1e-12.
_ALIGNED_TOL = 1e-9


def is_general_peak_input(terms) -> bool:
    """True when both harmonics are nonzero and do not peak together."""
    if terms.amp1 == 0.0 or terms.amp2 == 0.0:
        return False
    misalign = (terms.phase2 - 2.0 * terms.phase1 + math.pi) % (2.0 * math.pi) - math.pi
    return abs(misalign) >= _ALIGNED_TOL


class Tracer:
    """Records (name, start, end, parent, command) spans of wrapped calls."""

    def __init__(self):
        self.spans: list = []
        self.command = -1
        self.general_peak_calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import numpy.linalg

        import spinsync  # noqa: F401  (loads every layer module)

        targets = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"spinsync.{short}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    targets[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "spinsync" or name.startswith("spinsync.")
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, attr, hit[1])
        for fname in LINALG_FUNCTIONS:
            original = getattr(numpy.linalg, fname)
            self._patch(numpy.linalg, fname, self._wrap(f"linalg.{fname}", original))

    def restore(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, ns, attr: str, wrapper) -> None:
        self._patches.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        classify = name == "spin.max_shifted_phase"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if classify and is_general_peak_input(args[0]):
                self.general_peak_calls += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.command)

        return traced

    # -- analysis ---------------------------------------------------------

    def summary(self, scale=None) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s``.

        Self time is a span's duration minus the durations of its direct
        children, i.e. time spent in that function outside any other wrapped
        call.  ``scale[command]``, when given, multiplies the times of that
        command's spans.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for i, (name, start, end, _, command) in enumerate(self.spans):
            factor = 1.0 if scale is None else scale[command]
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start - child_time[i]) * factor
        return dict(out)

    def calls_by_command(self, name: str) -> dict[int, int]:
        counts: dict[int, int] = defaultdict(int)
        for span_name, _, _, _, command in self.spans:
            if span_name == name:
                counts[command] += 1
        return dict(counts)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,command\n")
            for name, start, end, parent, command in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{command}\n")
