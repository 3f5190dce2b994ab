"""Span tracing of ``uncert`` from outside the program.

:class:`Tracer` wraps every public function of the layer modules at every
module that binds it: ``metrology``, ``observables`` and ``cli`` import
names with ``from .grids import ...``, so patching only ``uncert.grids``
would miss their calls.  It also wraps ``outcome_distribution`` on each
kernel class and ``GridMeasure.__init__``.  Spans (name, start, end, parent,
operation id) and computed counts stay in memory until the run writes them
out.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import uncert
import uncert.cli
import uncert.grids
import uncert.metrology
import uncert.observables
import uncert.states

LAYERS = {
    "grids": uncert.grids,
    "states": uncert.states,
    "observables": uncert.observables,
    "metrology": uncert.metrology,
    "cli": uncert.cli,
}

PROBE_STATES = ("point_state", "box_state", "momentum_point_state", "momentum_box_state")


# Counts computed from a span's arguments and result: span name -> hook.
COUNT_HOOKS = {
    # output length of each convolution
    "grids.convolve": lambda a, r: {"grids.convolve.points": r.grid.n},
    # one forward FFT per mixture component, one inverse per momentum probe
    "states.momentum_distribution": lambda a, r: {"states.fft.calls": len(a[0].components)},
    "states.momentum_point_state": lambda a, r: {"states.fft.calls": 1},
    "states.momentum_box_state": lambda a, r: {"states.fft.calls": 1},
    "metrology.localized_probes": lambda a, r: {"metrology.probes.count": len(r)},
    "metrology.resolution_probes": lambda a, r: {"metrology.probes.count": len(r)},
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, op id]
        self.counts = []     # per op id: {counter name: value}
        self._stack = []
        self._op = -1
        self._patches = []   # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                counts = self.counts[self._op]
                for key, value in hook(args, result).items():
                    counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every traced callable; :meth:`remove` undoes it."""
        wrappers = {}
        for short, mod in LAYERS.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in (uncert, *LAYERS.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(mod, attr, wrappers[id(obj)][1])
        obs = uncert.observables
        for cls in vars(obs).values():
            if inspect.isclass(cls) and "outcome_distribution" in vars(cls):
                fn = vars(cls)["outcome_distribution"]
                self._patch(cls, "outcome_distribution",
                            self._wrap(f"observables.{cls.__name__}.outcome_distribution", fn))
        gm = uncert.grids.GridMeasure
        self._patch(gm, "__init__", self._wrap("grids.GridMeasure", vars(gm)["__init__"]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin_op(self) -> None:
        self._op += 1
        self.counts.append(defaultdict(int))

    def per_op(self) -> list:
        """Per traced op: {span name: [calls, self seconds]} plus the op's counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ops = [defaultdict(lambda: [0, 0.0]) for _ in self.counts]
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            entry = ops[op][name]
            entry[0] += 1
            entry[1] += (end - start) - child[i]
        return ops

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                 "counts": self.counts}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics: median over traced ops of per-op totals."""
    per_op = tracer.per_op()

    def med(fn):
        return statistics.median(fn(op, counts) for op, counts in zip(per_op, tracer.counts))

    def calls(*names):
        return med(lambda op, _: sum(op[n][0] for n in names if n in op))

    def self_s(*names):
        return med(lambda op, _: sum(op[n][1] for n in names if n in op))

    def prefixed(prefix, field):
        return med(lambda op, _: sum(v[field] for n, v in op.items() if n.startswith(prefix)))

    def count(key):
        return med(lambda _, counts: counts.get(key, 0))

    kernels = sorted({s[0] for s in tracer.spans if s[0].endswith(".outcome_distribution")
                      and s[0].count(".") == 2})
    probes = [f"states.{n}" for n in PROBE_STATES]
    m = {
        "grids.convolve.calls": (calls("grids.convolve"), "count"),
        "grids.convolve.self_s": (self_s("grids.convolve"), "s"),
        "grids.convolve.points": (count("grids.convolve.points"), "count"),
        "states.momentum_distribution.calls": (calls("states.momentum_distribution"), "count"),
        "states.momentum_distribution.self_s": (self_s("states.momentum_distribution"), "s"),
        "states.probe_states.calls": (calls(*probes), "count"),
        "states.probe_states.self_s": (self_s(*probes), "s"),
        "states.fft.calls": (count("states.fft.calls"), "count"),
        "grids.GridMeasure.count": (calls("grids.GridMeasure"), "count"),
        "grids.GridMeasure.self_s": (self_s("grids.GridMeasure"), "s"),
        "metrology.localized_probes.calls": (calls("metrology.localized_probes"), "count"),
        "metrology.localized_probes.self_s": (self_s("metrology.localized_probes"), "s"),
        "metrology.probes.count": (count("metrology.probes.count"), "count"),
        "metrology.calibration_error.calls": (calls("metrology.calibration_error"), "count"),
        "metrology.calibration_error.self_s": (self_s("metrology.calibration_error"), "s"),
        "metrology.error_bar_width.self_s": (self_s("metrology.error_bar_width"), "s"),
        "metrology.resolution_width.self_s": (self_s("metrology.resolution_width"), "s"),
        "metrology.verify_joint_ur.calls": (calls("metrology.verify_joint_ur"), "count"),
        "metrology.verify_joint_ur.self_s": (self_s("metrology.verify_joint_ur"), "s"),
        "observables.outcome_distribution.calls": (calls(*kernels), "count"),
        "observables.outcome_distribution.self_s": (self_s(*kernels), "s"),
        "observables.marginal_measures.self_s": (self_s("observables.marginal_measures"), "s"),
        "observables.pushforward.calls": (calls("observables.pushforward"), "count"),
        "observables.pushforward.self_s": (self_s("observables.pushforward"), "s"),
        "observables.joint_distribution.calls": (calls("observables.joint_distribution"), "count"),
        "observables.joint_distribution.self_s": (self_s("observables.joint_distribution"), "s"),
        "observables.warp_joint.self_s": (self_s("observables.warp_joint"), "s"),
        "observables.covariance_residual.self_s":
            (self_s("observables.covariance_residual"), "s"),
        "grids.overall_width.calls": (calls("grids.overall_width"), "count"),
        "grids.overall_width.self_s": (self_s("grids.overall_width"), "s"),
        "grids.centered_width.calls": (calls("grids.centered_width"), "count"),
        "grids.centered_width.self_s": (self_s("grids.centered_width"), "s"),
        "states.gaussian_state.calls": (calls("states.gaussian_state"), "count"),
        "states.gaussian_state.self_s": (self_s("states.gaussian_state"), "s"),
    }
    for short in LAYERS:
        m[f"{short}.self_s"] = (prefixed(short + ".", 1), "s")
    m["trace.spans"] = (prefixed("", 0), "count")
    return m
