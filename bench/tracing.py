"""Per-layer tracing for the benchmark: wrappers around the program's public functions.

Each wrapper goes in at the name its caller looks up (``symdom.less_noisy_exact``
as well as ``preorders.less_noisy_exact``; ``preorders.linprog`` for scipy's
LP), records one span per call in memory and is removed again by
``Tracer.uninstall``.  Untraced runs never construct a Tracer.

A span is (name, start, duration, parent index).  A layer's self time is its
spans' durations minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module attribute path, layer).  Several paths share a layer when more than
# one module imported the same function by name.
WRAPPED = (
    ("cli.main", "cli.main"),
    ("preorders.linprog", "preorders.linprog"),
    ("preorders.psd_check", "preorders.psd_check"),
    ("dirichlet.psd_check", "preorders.psd_check"),
    ("preorders.is_degraded", "preorders.is_degraded"),
    ("symdom.is_degraded", "preorders.is_degraded"),
    ("preorders.less_noisy_exact", "preorders.less_noisy_exact"),
    ("symdom.less_noisy_exact", "preorders.less_noisy_exact"),
    ("preorders.less_noisy_sampled", "preorders.less_noisy_sampled"),
    ("symdom.less_noisy_sampled", "preorders.less_noisy_sampled"),
    ("preorders.majorizes", "preorders.majorizes"),
    ("symdom.majorizes", "preorders.majorizes"),
    ("preorders.kl", "divergences"),
    ("preorders.chi2", "divergences"),
    ("symdom.kl", "divergences"),
    ("dirichlet.kl", "divergences"),
    ("symdom.lower_hull_member", "symdom.lower_hull"),
    ("symdom.classify_noise_pmf", "symdom.classify"),
    ("symdom.region_sample", "symdom.region_sample"),
    ("symdom.delta_star", "symdom.delta_star"),
    ("channels.Pmf.__init__", "channels.construct"),
    ("channels.Channel.__init__", "channels.construct"),
    ("channels.circulant", "groups"),
    ("preorders.circulant", "groups"),
    ("symdom.circulant", "groups"),
    ("symdom.cyclic_group", "groups"),
    ("groups.group_from_json", "groups"),
    ("dirichlet.dirichlet_domination_check", "dirichlet"),
)


class Tracer:
    """Installs the wrappers and keeps the spans of the current operation."""

    def __init__(self, package):
        self._package = package
        self._saved = []
        self._stack = []
        self.spans = []  # (layer, start, duration, parent index or -1)
        self.samples_used = 0  # summed over less_noisy_sampled verdicts
        self.probes = 0  # summed over delta_star results

    def install(self) -> None:
        for path, layer in WRAPPED:
            owner, attr = self._resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _resolve(self, path: str):
        parts = path.split(".")
        owner = getattr(self._package, parts[0])
        for part in parts[1:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer
            if layer == "cli.main":
                name = f"cli.main.{args[0][0]}"
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                spans[index] = (name, start, duration, stack[-1] if stack else -1)
            if layer == "preorders.less_noisy_sampled":
                self.samples_used += result.samples_used
            elif layer == "symdom.delta_star":
                self.probes += len(result.probes)
            return result

        return wrapper

    def drain(self, totals: "LayerTotals") -> None:
        """Fold the spans recorded so far into ``totals`` and forget them."""
        child = [0.0] * len(self.spans)
        for name, _, duration, parent in self.spans:
            if parent >= 0:
                child[parent] += duration
        for (name, _, duration, parent), covered in zip(self.spans, child):
            entry = totals.layers[name]
            entry[0] += 1
            entry[1] += duration - covered
            entry[2] += duration
            if parent < 0:
                totals.top_level_s += duration
        totals.samples_used += self.samples_used
        totals.probes += self.probes
        self.spans.clear()
        self.samples_used = self.probes = 0


class LayerTotals:
    """Calls, self seconds and inclusive seconds per layer over the traced operations."""

    def __init__(self):
        self.layers = defaultdict(lambda: [0, 0.0, 0.0])
        self.top_level_s = 0.0
        self.samples_used = 0
        self.probes = 0

    def calls(self, layer: str) -> int:
        return self.layers[layer][0] if layer in self.layers else 0

    def self_s(self, layer: str) -> float:
        return self.layers[layer][1] if layer in self.layers else 0.0

    def inclusive_s(self, layer: str) -> float:
        return self.layers[layer][2] if layer in self.layers else 0.0

    def table(self, op_seconds: float) -> list[str]:
        """Self time per layer, largest first, as a share of the traced op time."""
        rows = sorted(self.layers.items(), key=lambda item: -item[1][1])
        lines = [f"{'layer':34s} {'calls':>9s} {'self_ms':>11s} {'share':>7s}"]
        for name, (calls, self_s, _) in rows:
            share = 100.0 * self_s / op_seconds if op_seconds else 0.0
            lines.append(f"{name:34s} {calls:9d} {1e3 * self_s:11.2f} {share:6.1f}%")
        rest = op_seconds - self.top_level_s
        lines.append(f"{'(outside any layer)':34s} {'':9s} {1e3 * rest:11.2f} "
                     f"{100.0 * rest / op_seconds if op_seconds else 0.0:6.1f}%")
        return lines
