"""Spans around the calls into passgain's public functions, recorded from outside.

:class:`Tracer` replaces each function in ``TRACED`` by a timing wrapper at
every name under which a loaded ``passgain`` module holds it: ``cli`` calls
``run_sweep`` and ``write_csv`` through its own namespace, ``experiments``
calls ``array_gain_exact`` through its own and ``coupling.gain_mc`` through the
``coupling`` module, so each of those names is patched.  Private helpers
(``_search_best_m``, ``_pair_gains``, ...) are not wrapped; their time stays
in the self time of the public function that calls them.

A span is ``(name, start, end, parent)``, ``parent`` being the index of the
enclosing span or -1.  Spans stay in memory until the caller writes them out.
A layer's self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import warnings
from collections import Counter, defaultdict

# (span name, defining module, function name).  The sweep runners
# (run_gain_vs_n, ...) are deliberately absent so that the sweep's own row
# building and search stay in experiments.run_sweep.self_s.
TRACED = (
    ("cli.main", "passgain.cli", "main"),
    ("experiments.run_sweep", "passgain.experiments", "run_sweep"),
    ("experiments.write_csv", "passgain.experiments", "write_csv"),
    ("coupling.gain_mc", "passgain.coupling", "gain_mc"),
    ("coupling.gain_mc_two_closed", "passgain.coupling", "gain_mc_two_closed"),
    ("refine.refined_half_deltas", "passgain.refine", "refined_half_deltas"),
    ("channel.array_gain_exact", "passgain.channel", "array_gain_exact"),
    ("geometry.symmetric_uniform_layout", "passgain.geometry", "symmetric_uniform_layout"),
    ("gain.uniform_deltas", "passgain.gain", "uniform_deltas"),
    ("gain.max_gain_estimate", "passgain.gain", "max_gain_estimate"),
    ("gain.find_xstar", "passgain.gain", "find_xstar"),
)

# Counts kept next to the spans, named as the per-layer metrics.
COUNTERS = ("coupling.floored_points", "refine.antennas", "experiments.csv_rows",
            "experiments.csv_bytes")


class Tracer:
    """Installs and removes the wrappers; collects spans and counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def reset(self):
        """Forget the spans and counts recorded so far (callers copy them first)."""
        self.spans.clear()
        self.counts.clear()

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "passgain" or n.startswith("passgain."))]
        for name, module, attr in TRACED:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                continue
            wrapped = self._span(name, self._count(name, fn))
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    self._patches.append((m, key, fn))
                    setattr(m, key, wrapped)

    def remove(self):
        for m, key, fn in reversed(self._patches):
            setattr(m, key, fn)
        self._patches = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def _count(self, name, fn):
        """Add the counters measured at this boundary, if any."""
        counts = self.counts
        if name == "coupling.gain_mc":

            @functools.wraps(fn)
            def gain_mc(*args, **kwargs):
                # Seen here, then re-issued so the sweep's own recorder still
                # receives every warning.
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                if any("floored" in str(w.message) for w in caught):
                    counts["coupling.floored_points"] += 1
                for w in caught:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                return result

            return gain_mc
        if name == "refine.refined_half_deltas":

            @functools.wraps(fn)
            def refined_half_deltas(n_half, *args, **kwargs):
                counts["refine.antennas"] += int(n_half)
                return fn(n_half, *args, **kwargs)

            return refined_half_deltas
        if name == "experiments.write_csv":

            @functools.wraps(fn)
            def write_csv(points, path, *args, **kwargs):
                result = fn(points, path, *args, **kwargs)
                counts["experiments.csv_rows"] += len(points)
                counts["experiments.csv_bytes"] += os.path.getsize(path)
                return result

            return write_csv
        return fn


def layer_totals(spans):
    """{name: (calls, self seconds)} over a list of spans."""
    covered = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - covered[i]
    return {name: (calls[name], self_s[name]) for name in calls}
