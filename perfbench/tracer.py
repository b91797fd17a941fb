"""Spans around latcop's public functions, installed from outside the package.

A traced worker replaces each target function in the globals of every
latcop module that binds it, so calls between modules and calls inside one
module both pass through the wrapper.  Nothing under ``src/`` changes.

A span is ``[name, parent, start, end, outermost]``; spans stay in memory
and are summarised once, when the worker finishes.  Self time is a span
minus its child spans; inclusive time counts only the outermost span of a
name, so a function that reaches itself is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _table_entries(res) -> int:
    return sum(len(tab) for _, _, tab in res.algebra.ops())


# Traced functions, keyed by "<module>.<function>", with the counts taken
# from each call's result.
TARGETS = {
    "algebra.direct_product": {"elements": lambda r: r.size},
    "algebra.subuniverse_closure": {},
    "algebra.subuniverses": {"found": len},
    "algebra.isomorphic": {},
    "algebra.in_isp": {},
    "algebra.hom_enumerate": {"homs": len},
    "algebra.free_algebra": {"elements": lambda r: r.size},
    "piggyback.maximal_subuniverses_in": {"relations": len},
    "piggyback.sep_condition": {"holds": lambda r: int(r.holds)},
    "piggyback.minimal_omega_certified": {},
    "piggyback.build_alter_ego": {},
    "classify.flowchart_classify": {},
    "classify.simplify_generators": {},
    "classify.find_single_generator": {},
    "duality.e_functor": {"elements": lambda r: r.algebra.size, "table_entries": _table_entries},
    "duality.natural_dual": {},
    "duality.structure_product": {"points": lambda r: r.point_count},
    "duality.coproduct": {},
    "distlat.d_reduct": {},
    "catalog.make": {},
}

# Modules whose globals are rewritten; the package namespace is included so
# that a call through ``latcop.<name>`` is traced too.
PATCHED_MODULES = ("algebra", "piggyback", "classify", "duality", "distlat", "catalog")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn, counters: dict):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, active[name] == 0]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                span[3] = clock()
            for key, count in counters.items():
                counts[f"{name}.{key}"] += count(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the latcop modules that bind it."""
        pkg = sys.modules["latcop"]
        wrappers: dict[int, object] = {}
        for target, counters in TARGETS.items():
            module, func = target.split(".")
            original = getattr(sys.modules[f"latcop.{module}"], func)
            wrappers[id(original)] = self._wrap(target, original, counters)
        for module in [pkg] + [sys.modules[f"latcop.{m}"] for m in PATCHED_MODULES]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: ``<target>.calls``, ``.s``, ``.self_s``, the
        result counts, and the derived figures named in BENCHMARK.json."""
        out: dict[str, float] = {}
        for target in TARGETS:
            out[f"{target}.calls"] = 0
            out[f"{target}.s"] = 0.0
            out[f"{target}.self_s"] = 0.0
            for key in TARGETS[target]:
                out[f"{target}.{key}"] = self.counts.get(f"{target}.{key}", 0)
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        universal_hom_s = 0.0
        for idx, (name, parent, start, end, outermost) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[idx]
            if outermost:
                out[f"{name}.s"] += dur
            if (
                name == "algebra.hom_enumerate"
                and parent >= 0
                and self.spans[parent][0] == "duality.coproduct"
            ):
                universal_hom_s += dur
        out["duality.coproduct.universal_hom_s"] = universal_hom_s
        calls = out["piggyback.sep_condition.calls"]
        out["piggyback.sep_condition.useful_ratio"] = (
            out["piggyback.sep_condition.holds"] / calls if calls else 0.0
        )
        out["run.spans"] = len(self.spans)
        return out
