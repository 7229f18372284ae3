"""In-memory tracing of shapewilf's layers, from outside the program.

``install`` replaces public functions and methods of the imported shapewilf
modules with wrappers.  A function is replaced under every module attribute
that refers to it (``harness.counted`` and ``enumeration.counted`` alike), so
calls made through any import path are seen.  Each wrapper records a span:
its calls, its inclusive time, and its self time (inclusive time minus the
time of spans it caused).  ``LastColumnChecker.fires`` and
``ResultCache.get`` are only counted: they run millions of times, or in a
few microseconds.  Nothing is written until ``metrics`` is read.
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span) for the plain functions that are timed.
SPANS = [
    ("matcher", "contains", "matcher.contains"),
    ("enumeration", "counted", "enumeration.counted"),
    ("enumeration", "count_fillings", "enumeration.fixed_count"),
    ("enumeration", "count_positive_fillings", "enumeration.positive_count"),
    ("enumeration", "count_all_fillings", "enumeration.unconstrained_count"),
    ("bijection", "alpha", "bijection.alpha"),
    ("bijection", "alpha_inverse", "bijection.alpha"),
    ("bijection", "reconstruct", "bijection.reconstruct"),
    ("bijection", "i_sequence", "bijection.sequence"),
    ("bijection", "n_sequence", "bijection.sequence"),
    ("bijection", "blowup", "bijection.blowup_shrink"),
    ("bijection", "shrink", "bijection.blowup_shrink"),
    ("core", "border_path", "core.border_path"),
    ("harness", "reproduce_table", "harness.scan"),
    ("harness", "check_equivalence", "harness.scan"),
    ("harness", "scan_conjecture1", "harness.scan"),
    ("harness", "scan_conjecture2", "harness.scan"),
    ("cli", "main", "cli.main"),
]

COUNTS = (
    "enumeration.fixed_count",
    "enumeration.positive_count",
    "enumeration.unconstrained_count",
)


class Tracer:
    """Calls, inclusive and self time per span name, plus plain counters."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self._open = []  # one [time of finished child spans] per open span

    def span(self, name, fn, on_result=None):
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append([0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()[0]
                calls[name] += 1
                inclusive[name] += elapsed
                self_time[name] += elapsed - children
                if open_spans:
                    open_spans[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def streamed(self, name, fn):
        """Time every step of a generator function; count the items it yields."""
        step = self.span(name, next)
        items = f"{name}.items"
        calls = self.calls

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                calls[items] += 1
                yield item

        return traced

    def counted(self, name, fn):
        calls = self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return traced

    def merge(self, other):
        """Add the totals of another tracer (a child process's, as from ``dump``)."""
        self.calls.update(other["calls"])
        for name, value in other["inclusive"].items():
            self.inclusive[name] += value
        for name, value in other["self_time"].items():
            self.self_time[name] += value

    def dump(self):
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self_time": dict(self.self_time),
        }

    def metrics(self):
        c, t, s = self.calls, self.inclusive, self.self_time
        return {
            "matcher.fires_calls": (c["matcher.fires"], "count"),
            "matcher.contains_calls": (c["matcher.contains"], "count"),
            "matcher.contains_s": (t["matcher.contains"], "s"),
            "enumeration.counts": (sum(c[n] for n in COUNTS), "count"),
            "enumeration.count_s": (sum(t[n] for n in COUNTS), "s"),
            "enumeration.fixed_count_s": (t["enumeration.fixed_count"], "s"),
            "enumeration.positive_count_s": (t["enumeration.positive_count"], "s"),
            "enumeration.unconstrained_count_s": (t["enumeration.unconstrained_count"], "s"),
            "enumeration.fillings_streamed": (c["enumeration.enumerate.items"], "count"),
            "enumeration.enumerate_s": (t["enumeration.enumerate"], "s"),
            "enumeration.cache_load_s": (t["enumeration.cache_load"], "s"),
            "enumeration.cache_add_s": (t["enumeration.cache_add"], "s"),
            "enumeration.cache_hits": (c["enumeration.cache_hit"], "count"),
            "enumeration.cache_misses": (c["enumeration.cache_miss"], "count"),
            "enumeration.pools_started": (c["enumeration.pool"], "count"),
            "bijection.round_trips": (c["bijection.round_trip"], "count"),
            "bijection.alpha_s": (t["bijection.alpha"], "s"),
            "bijection.reconstruct_calls": (c["bijection.reconstruct"], "count"),
            "bijection.reconstruct_s": (t["bijection.reconstruct"], "s"),
            "bijection.sequence_s": (t["bijection.sequence"], "s"),
            "bijection.blowup_shrink_s": (t["bijection.blowup_shrink"], "s"),
            "core.border_path_calls": (c["core.border_path"], "count"),
            "core.border_path_s": (t["core.border_path"], "s"),
            "harness.records": (c["harness.records"], "count"),
            "harness.self_s": (s["harness.scan"], "s"),
            "cli.self_s": (s["cli.main"], "s"),
        }


def _replace(original, wrapper):
    """Point every shapewilf module attribute that holds ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "shapewilf" or name.startswith("shapewilf."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer):
    """Wrap the layers of the imported shapewilf package; returns the tracer."""
    import shapewilf.cli  # noqa: F401  (loads every layer)

    layers = ("matcher", "enumeration", "bijection", "core", "harness", "cli")
    modules = {name: sys.modules[f"shapewilf.{name}"] for name in layers}

    def count_records(report):
        tracer.calls["harness.records"] += len(report.records)

    for module, attr, name in SPANS:
        original = getattr(modules[module], attr)
        on_result = count_records if module == "harness" else None
        _replace(original, tracer.span(name, original, on_result))

    enumeration = modules["enumeration"]
    original = enumeration.enumerate_fillings
    _replace(original, tracer.streamed("enumeration.enumerate", original))

    checker = modules["matcher"].LastColumnChecker
    checker.fires = tracer.counted("matcher.fires", checker.fires)

    cache = enumeration.ResultCache
    cache.__init__ = tracer.span("enumeration.cache_load", cache.__init__)
    cache.add = tracer.span("enumeration.cache_add", cache.add)
    get = cache.get

    def traced_get(self, key):
        hit = get(self, key)
        tracer.calls["enumeration.cache_hit" if hit is not None else "enumeration.cache_miss"] += 1
        return hit

    cache.get = traced_get

    pool = enumeration.ProcessPoolExecutor

    class CountedPool(pool):
        def __init__(self, *args, **kwargs):
            tracer.calls["enumeration.pool"] += 1
            super().__init__(*args, **kwargs)

    enumeration.ProcessPoolExecutor = CountedPool
    return tracer
