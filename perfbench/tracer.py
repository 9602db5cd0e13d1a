"""Per-layer tracing installed from outside the package.

The package is not edited.  Instead each traced function is replaced by a
timing wrapper in every package module that binds it, because a module that
did ``from .oracle import outcome`` calls its own binding: patching
``oracle.outcome`` alone would miss the calls made by ``builder``.

Coarse calls get one span each (name, start, end, parent span).  Hot leaf
calls, made millions of times by a quotient build, only add to a call count
and a time total.  Every wrapper keeps a stack frame so that self time (a
call's duration minus the time inside wrapped calls it made) is exact for
coarse and hot calls alike.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gc
import importlib
import statistics
import time

PACKAGE = "misere_quotients"
LAYERS = ("octal", "oracle", "semigroup", "builder", "verifier", "structure", "cli")

# (module, attribute, span name, coarse).  A "Class.method" attribute wraps
# the method in the class.  Private scan functions share one span name.
TARGETS = (
    ("cli", "main", "cli.main", True),
    ("octal", "moves_from_heap", "octal.moves_from_heap", False),
    ("oracle", "outcome", "oracle.outcome", False),
    ("oracle", "genus", "oracle.genus", True),
    ("builder", "build_quotient", "builder.build_quotient", True),
    ("builder", "analysis_from_json", "builder.analysis_from_json", True),
    ("builder", "analysis_to_json", "builder.analysis_to_json", True),
    ("builder", "phi_of_position", "builder.phi_of_position", False),
    ("builder", "kayles_analysis", "builder.kayles_analysis", True),
    ("semigroup", "knuth_bendix", "semigroup.knuth_bendix", True),
    ("semigroup", "enumerate_elements", "semigroup.enumerate_elements", True),
    ("semigroup", "FiniteCommutativeMonoid.__init__",
     "semigroup.FiniteCommutativeMonoid", True),
    ("verifier", "certify_period", "verifier.certify_period", True),
    ("verifier", "verify_to_heap", "verifier.verify_to_heap", True),
    ("verifier", "move_pairs", "verifier.move_pairs", True),
    ("verifier", "check_no_PP", "verifier.check_no_PP", True),
    ("verifier", "_scan_collapsed", "verifier.scan", True),
    ("verifier", "_scan_naive", "verifier.scan", True),
    ("structure", "idempotents", "structure.idempotents", True),
    ("structure", "idempotent_order", "structure.idempotent_order", True),
    ("structure", "hasse_edges", "structure.hasse_edges", True),
    ("structure", "kernel_ideal", "structure.kernel_ideal", True),
    ("structure", "mutual_divisibility_classes",
     "structure.mutual_divisibility_classes", True),
    ("structure", "principal_series", "structure.principal_series", True),
    ("structure", "tame_islands", "structure.tame_islands", True),
)


def _modules():
    names = (PACKAGE,) + tuple(f"{PACKAGE}.{m}" for m in LAYERS)
    return [importlib.import_module(n) for n in names]


class Tracer:
    """Wrappers, their accumulated statistics, and the span list."""

    def __init__(self):
        # name -> [calls, total seconds, seconds inside wrapped callees]
        self.stats: dict[str, list] = {}
        # span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        # exact-repeat counters read from results of the traced calls
        self.counts: dict[str, int] = {}
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._frames = [[0.0]]
        self._open_spans = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _modules()
        for mod_name, attr, name, coarse in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth), coarse))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, coarse)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def reset(self) -> None:
        """Forget everything measured so far (the set-up phase)."""
        self.stats.clear()
        self.spans.clear()
        self.counts.clear()
        self.gc_seconds = 0.0
        self.gc_collections = 0

    def _patch(self, obj, key, value) -> None:
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def _wrap(self, name, fn, coarse):
        clock = time.perf_counter
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        stats = self.stats
        counts = self.counts
        on_result = _RESULT_COUNTS.get(name)

        if not coarse:
            def hot(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    frames.pop()
                    frames[-1][0] += dt
                    st = stats.get(name)
                    if st is None:
                        st = stats[name] = [0, 0.0, 0.0]
                    st[0] += 1
                    st[1] += dt
                    st[2] += frame[0]

            return hot

        def span(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_spans[-1]])
            open_spans.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                open_spans.pop()
                frames.pop()
                frames[-1][0] += dt
                if index < len(spans):  # reset() may have emptied the list
                    spans[index][1:3] = [t0, t1]
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt
                st[2] += frame[0]
            if on_result is not None:
                on_result(counts, result)
            return result

        return span

    # -- reading ------------------------------------------------------------

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_time(self, name: str) -> float:
        st = self.stats.get(name, [0, 0.0, 0.0])
        return st[1] - st[2]

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, total, inner) in self.stats.items():
            out[name.split(".")[0]] += total - inner
        return out

    def p50_ms(self, name: str) -> float:
        durations = [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name]
        return statistics.median(durations) if durations else 0.0


def _add(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


def _verify_counts(counts, report) -> None:
    _add(counts, "verifier.scan.nodes", report.stats["nodes"])
    _add(counts, "verifier.scan.evaluations", report.stats["evaluations"])
    _add(counts, "verifier.move_pairs.count", report.stats["move_pairs"])


def _build_counts(counts, qa) -> None:
    counts["builder.classes"] = len(qa.monoid)


def _completion_counts(counts, rws) -> None:
    counts["semigroup.knuth_bendix.rules"] = len(rws.rules)


# Counters read from the value a traced call returns.  They repeat exactly
# from run to run for a fixed workload, so later changes can cite them.
_RESULT_COUNTS = {
    "verifier.verify_to_heap": _verify_counts,
    "builder.build_quotient": _build_counts,
    "semigroup.knuth_bendix": _completion_counts,
}


def memo_sizes() -> dict[str, int]:
    """Entries in the oracle's module-level memo tables."""
    oracle = importlib.import_module(f"{PACKAGE}.oracle")
    return {
        "oracle.outcome.memo_entries": sum(len(c) for c in oracle._outcome_caches.values()),
        "oracle.genus.memo_entries": sum(len(c) for c in oracle._gminus_ext_caches.values()),
    }

