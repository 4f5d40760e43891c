"""Per-layer tracing from outside the package.

`install` wraps the public functions of every twogen module: the module
attribute and every binding of the same object that other modules took with
`from .x import y`, so internal calls are seen too.  Each call becomes a span
(name, start, end, parent span, item id) kept in memory; `summary` turns the
spans into per-layer call counts and self times, where a span's self time is
its duration minus the time its direct child spans cover.  A few result
counters (cache hits, census nodes, ...) are taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Layer functions that get spans, by module of definition.
FUNCTIONS = {
    "arith": ("factorize", "is_prime", "primitive_root", "primes_up_to"),
    "reduction": ("reduce",),
    "indicators": ("reduce_power", "strip_exponent", "expand_power", "decompose"),
    "synthesis": ("synthesize", "minimal_modulus", "render", "verify_formula"),
    "modulus": ("modulus_of", "dependence_check"),
    "counting": ("count_prime_power", "count_special"),
    "semigroup": ("enumerate_by_genus", "count_two_generator"),
    "cli": ("main",),
}
# FactorCache.load and .save get spans too; .get and .put only counters.
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns) + (
    "factor_cache.load",
    "factor_cache.save",
)
COUNTER_NAMES = (
    "factor_cache.load.entries",
    "factor_cache.get.hits",
    "factor_cache.get.misses",
    "factor_cache.put.calls",
    "synthesis.verify_formula.primes",
    "modulus.modulus_of.unfactored",
    "semigroup.nodes",
)

# Result counters read off a span's return value.
_RESULT_COUNTERS = {
    "factor_cache.load": ("factor_cache.load.entries", len),
    "synthesis.verify_formula": ("synthesis.verify_formula.primes", lambda r: r.primes_checked),
    "modulus.modulus_of": ("modulus.modulus_of.unfactored", lambda r: len(r.unfactored)),
    "semigroup.enumerate_by_genus": ("semigroup.nodes", lambda r: sum(map(len, r))),
}


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent, item, error]
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.item = None
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        spans, stack, counters = self.spans, self._stack, self.counters
        result_counter = _RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if result_counter is not None:
                counters[result_counter[0]] += result_counter[1](result)
            return result

        traced.__wrapped__ = func
        return traced

    def count_get(self, func):
        counters = self.counters

        def get(cache, n):
            hit = func(cache, n)
            counters["factor_cache.get.hits" if hit is not None else "factor_cache.get.misses"] += 1
            return hit

        return get

    def count_put(self, func):
        counters = self.counters

        def put(cache, fact):
            counters["factor_cache.put.calls"] += 1
            return func(cache, fact)

        return put


def install(tracer: Tracer) -> None:
    """Route every twogen layer function through `tracer`."""
    importlib.import_module("twogen.cli")
    modules = [m for name, m in sys.modules.items() if name == "twogen" or name.startswith("twogen.")]
    for mod_name, fns in FUNCTIONS.items():
        mod = importlib.import_module(f"twogen.{mod_name}")
        for fn in fns:
            original = getattr(mod, fn)
            traced = tracer.wrap(f"{mod_name}.{fn}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
    from twogen.factor_cache import FactorCache

    load = FactorCache.__dict__["load"].__func__
    FactorCache.load = classmethod(tracer.wrap("factor_cache.load", load))
    FactorCache.save = tracer.wrap("factor_cache.save", FactorCache.save)
    FactorCache.get = tracer.count_get(FactorCache.get)
    FactorCache.put = tracer.count_put(FactorCache.put)


def write(path, spans, counters) -> None:
    with open(path, "w") as handle:
        json.dump({"spans": spans, "counters": counters}, handle)


def read(path) -> tuple[list, dict]:
    with open(path) as handle:
        dump = json.load(handle)
    return dump["spans"], dump["counters"]


def merge(parts) -> tuple[list, dict]:
    """Concatenate (spans, counters) pairs from several processes."""
    spans: list = []
    counters = dict.fromkeys(COUNTER_NAMES, 0)
    for part_spans, part_counters in parts:
        offset = len(spans)
        for name, start, end, parent, item, error in part_spans:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, item, error])
        for key, value in part_counters.items():
            counters[key] += value
    return spans, counters


def summary(spans, counters) -> dict[str, float]:
    """Per-layer metrics: `<name>.calls`, `<name>.self_s` and the counters."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    timeouts = 0
    for index, (name, start, end, _, _, error) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[index]
        if name == "arith.factorize" and error == "FactorizationTimeout":
            timeouts += 1
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
    metrics["arith.factorize.timeouts"] = timeouts
    metrics.update(counters)
    gets = counters["factor_cache.get.hits"] + counters["factor_cache.get.misses"]
    metrics["factor_cache.hit_ratio"] = counters["factor_cache.get.hits"] / gets if gets else 0.0
    return metrics
