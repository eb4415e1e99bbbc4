"""Outside-in spans around the calls into novikit's layers.

The program has no instrumentation of its own, so the tracer rebinds names:
every module that imported a traced function by name (``novikit.cli.parse``,
``novikit.reduction.fixed_point``, ``novikit.invariants.fixed_point`` ...)
gets a wrapper that records a span under the function's own layer.  A call
made inside the defining module goes through that module's global, which is
rebound too.  ``NovikovElement`` operators are counted, not spanned, because
they run millions of times.

Spans share one stack: ``novikit beta`` runs its slices on a one-thread pool
while the main thread waits, so the worker's spans nest under ``cli.main``.
This holds for the default single worker only.

Every job runs inside one top-level span (``cli.main``, or the stability
job's ``main``), so the top-level spans must cover nearly all of a traced
pass; ``check_coverage`` fails when they do not, which is what a span lost
to a missed rebinding or a broken nesting looks like.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

TRACED = (
    ("cli", "main"),
    ("fileformat", "parse"), ("fileformat", "emit"),
    ("models", "gen_random"), ("models", "line_family"),
    ("complexes", "validate"), ("complexes", "ell_curve"),
    ("reduction", "persistence_barcode"), ("reduction", "floer_divergence_check"),
    ("reduction", "fixed_point"), ("reduction", "best_approximation"),
    ("invariants", "rho"), ("invariants", "spectrum_against"),
    ("invariants", "boundary_depth"), ("invariants", "scan_semicontinuity"),
    ("invariants", "bottleneck"),
    ("envelope", "pointwise_min"),
)
COUNTED_OPERATORS = (("mul", "__mul__"), ("add", "__add__"), ("sub", "__sub__"))
MIN_COVERAGE = 0.95  # share of a traced pass's wall time inside top-level spans


class TraceError(RuntimeError):
    """The spans of a traced pass do not account for its wall time."""


def _size(name, args, result) -> int:
    """The per-call quantity some spans add up besides their time."""
    if name == "fileformat.parse":
        return len(args[0].encode("utf-8"))
    if name == "reduction.fixed_point":
        return len(result.trace)
    if name == "invariants.bottleneck":
        return len(args[0].bars) + len(args[1].bars)
    if name == "envelope.pointwise_min":
        return len(result.knots)
    return 0


class Tracer:
    """Spans kept in memory; ``install`` rebinds, ``uninstall`` restores."""

    def __init__(self, traced=TRACED):
        self.traced = tuple(traced)
        self.spans: list[list] = []  # [name, parent index, start ns, end ns, size]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self, extra_modules=()) -> None:
        """Rebind the traced functions in novikit and in ``extra_modules``;
        each extra module's own ``main`` gets a span named after it."""
        import novikit.cli  # noqa: F401  (loads every layer)
        from novikit.series import NovikovElement

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "novikit" or n.startswith("novikit.")]
        modules += list(extra_modules)
        for mod in extra_modules:
            self._rebind(mod, "main", mod.main, self._span(f"{mod.__name__}.main", mod.main))
        for layer, fname in self.traced:
            fn = getattr(sys.modules[f"novikit.{layer}"], fname)
            wrapper = self._span(f"{layer}.{fname}", fn)
            for mod in modules:
                if mod.__dict__.get(fname) is fn:
                    self._rebind(mod, fname, fn, wrapper)
        for short, op in COUNTED_OPERATORS:
            fn = NovikovElement.__dict__[op]
            self._rebind(NovikovElement, op, fn, self._counter(f"series.{short}.calls", fn))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _rebind(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            spans[idx][4] = _size(name, args, result)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def mark(self) -> tuple[int, Counter]:
        """A point to summarize from, so each pass is summarized alone."""
        return len(self.spans), Counter(self.counts)

    def summary(self, since: tuple[int, Counter]) -> dict:
        """Per-name self time, calls and sizes of the spans since a mark.

        Returns the metrics plus ``covered_s``, the time inside top-level
        spans, so callers can check self times against wall time.
        """
        first, counts0 = since
        spans = self.spans[first:]
        child_ns = defaultdict(int)
        for name, parent, start, end, _ in spans:
            if parent >= first:
                child_ns[parent] += end - start
        out: dict = defaultdict(float)
        covered = 0
        names = [s[0] for s in self.spans]
        for offset, (name, parent, start, end, size) in enumerate(spans):
            idx = first + offset
            out[f"{name}.self_s"] += (end - start - child_ns[idx]) / 1e9
            out[f"{name}.calls"] += 1
            out[f"{name}.size"] += size
            if parent < first:
                covered += end - start
            if name == "reduction.fixed_point" and self._under(idx, "reduction.floer_divergence_check", names):
                out["fixed_point.in_checks"] += 1
            if name == "reduction.best_approximation" and self._under(idx, "invariants.scan_semicontinuity", names):
                out["invariants.scan_semicontinuity.probes"] += 1
        for key, n in self.counts.items():
            out[key] = n - counts0.get(key, 0)
        out["covered_s"] = covered / 1e9
        return dict(out)

    @staticmethod
    def check_coverage(summary: dict, wall_s: float) -> float:
        """The share of ``wall_s`` inside top-level spans; raises
        ``TraceError`` when it is below ``MIN_COVERAGE``."""
        share = summary["covered_s"] / wall_s
        if share < MIN_COVERAGE:
            self_s = sum(v for k, v in summary.items() if k.endswith(".self_s"))
            raise TraceError(f"top-level spans cover {share:.1%} of a {wall_s:.4f} s traced "
                             f"pass (self times sum to {self_s:.4f} s)")
        return share

    def _under(self, idx: int, ancestor: str, names: list) -> bool:
        parent = self.spans[idx][1]
        while parent >= 0:
            if names[parent] == ancestor:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, parent index, start and end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end, size in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start_ns": start,
                                     "end_ns": end, "size": size}) + "\n")
