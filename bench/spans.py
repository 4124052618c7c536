"""Span tracer for the traced run, applied from outside the program.

Every public function of the traced fraclab modules is wrapped, and the
wrapper is bound wherever the original is bound: in the defining module and
in every fraclab module that imported it by name (``find_crossings`` lives in
both ``fraclab.kernel`` and ``fraclab.experiments``; ``interp_sweep`` looks up
``fraclab.spectral.interpolation_ratio`` at call time). Spans are kept in
memory and folded into per-function totals when a pass ends.

A span's self time is its duration minus the time its child spans cover.
The wrapper's own bookkeeping is charged to no span; its total per pass is
reported as ``trace.instrument_s``.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("expr", "grid", "spectral", "experiments", "kernel", "special", "reports")

# functions whose argument 0 is a GridFunction: count its points and whether
# the same samples were already seen in the current op
_SAMPLED_INPUT = {"kernel.find_crossings", "spectral.forward_transform"}


def _digest(arr) -> bytes:
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "error", "result")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.error = False
        self.result = None


class Tracer:
    def __init__(self):
        self._patched = []  # (module, attribute, original)
        self._stack = []
        self._seen = defaultdict(set)  # name -> input digests seen in this op
        self.spans = []
        self.counts = defaultdict(float)  # "<name>.<counter>" -> value
        self.instrument_s = 0.0

    # -- installation ---------------------------------------------------
    def install(self):
        originals = {}
        for short in MODULES:
            mod = sys.modules[f"fraclab.{short}"]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    originals[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "fraclab" or name.startswith("fraclab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ------------------------------------------------------
    def begin_op(self):
        self._seen.clear()

    def take_pass(self):
        """Return (spans, counts) recorded since the last call and reset."""
        self.counts["trace.instrument_s"] = self.instrument_s
        spans, counts = self.spans, self.counts
        self.spans, self.counts, self.instrument_s = [], defaultdict(float), 0.0
        return spans, counts

    def _probe_in(self, name, args):
        c = self.counts
        if name in _SAMPLED_INPUT:
            samples = args[0].samples
            c[f"{name}.points"] += samples.size
            key = _digest(samples)
            if key in self._seen[name]:
                c[f"{name}.repeats"] += 1
            self._seen[name].add(key)
        elif name == "grid.sample":
            c[f"{name}.points"] += args[1].N
        elif name == "experiments.dealias_spectrum":
            c[f"{name}.kinks"] += len(args[1])

    def _probe_out(self, span):
        c = self.counts
        if span.name == "kernel.phi_integral":
            if span.error:
                c["kernel.phi_integral.errors"] += 1
            else:
                depth = span.result.depth
                if depth > c["kernel.phi_integral.depth_max"]:
                    c["kernel.phi_integral.depth_max"] = depth
        elif span.name == "experiments.refined_form" and not span.error:
            c["experiments.refined_form.diverged"] += int(span.result.diverged)

    def _wrap(self, name, fn):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            t_in = clock()
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent)
            tracer._probe_in(name, args)
            tracer._stack.append(span)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                tracer._stack.pop()
                tracer._probe_out(span)
                span.result = None
                tracer.spans.append(span)
                t_out = clock()
                if parent is not None:
                    parent.child_s += t_out - t_in
                tracer.instrument_s += (t_out - t_in) - (span.end - span.start)

        traced.__wrapped__ = fn
        return traced


def fold(spans, counts):
    """Per-function calls, self time and the probe counters of one pass."""
    out = defaultdict(float)
    for sp in spans:
        out[f"{sp.name}.calls"] += 1
        out[f"{sp.name}.self_s"] += (sp.end - sp.start) - sp.child_s
    out.update(counts)
    return out
