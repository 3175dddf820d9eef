"""Spans around finmot's public functions, recorded from outside the package.

``install`` wraps the public functions of each layer module and the hot
methods ``SuperMorphism.compose``/``tensor`` and
``GroupAlgebraElement.__mul__``.  A wrapped module-level function is also
swapped in every finmot module that re-bound it through ``from ... import``
(``cli.wedge``, ``karoubi.young_idempotent``, ``motives.invert_unit``, ...),
so calls through those names are traced too.

Each call records one span ``[name_id, start, end, parent]`` in memory.
Work counts are computed from operand sizes before the call, so they repeat
exactly for the same inputs.  ``summary`` turns the spans into per-name
calls, total and self time (duration minus the time covered by direct
child spans); ``dump`` writes the raw spans out once the task has ended.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("symgroup", "supercat", "karoubi", "lifting", "motives", "cli")

# public module-level functions timed per layer
FUNCTIONS = {
    "symgroup": ("young_idempotent",),
    "supercat": ("invert_unit", "permutation_action"),
    "karoubi": ("schur_apply", "schur_super_dimension", "split_parity",
                "classify", "s_wedge"),
    "lifting": ("lift_idempotent", "lift_family", "corner_unit_check",
                "nilpotency_index"),
    "motives": ("chow_kunneth", "surface_projector_relations",
                "split_middle", "albanese_wedge"),
    "cli": ("main",),
}

# (module, class, method, span name)
METHODS = (
    ("supercat", "SuperMorphism", "compose", "supercat.compose"),
    ("supercat", "SuperMorphism", "tensor", "supercat.tensor"),
    ("symgroup", "GroupAlgebraElement", "__mul__", "symgroup.group_algebra_mul"),
)


class Tracer:
    """In-memory span recorder with exact work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        # schur_apply span index -> ambient parities of its argument
        self._schur_parities: dict[int, tuple] = {}
        self.schur_keys: set = set()
        self.operator_keys: set = set()
        self._hooks = {
            "supercat.compose": self._count_compose,
            "supercat.tensor": self._count_tensor,
            "symgroup.group_algebra_mul": self._count_group_mul,
            "karoubi.schur_apply": self._count_schur,
            "symgroup.young_idempotent": self._count_young,
        }

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            if hook is not None:
                hook(idx, args)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    # --- work counters, computed from operand sizes -------------------------

    def _count_compose(self, idx, args):
        left, right = args[0], args[1]
        orows = right.rows
        self.counts["supercat.compose.muladds"] += sum(
            len(orows.get(m, ())) for row in left.rows.values() for m in row)
        dim = max(left.target.dim, left.source.dim, right.source.dim)
        self.peaks["supercat.compose.peak_dim"] = max(
            self.peaks["supercat.compose.peak_dim"], dim)

    def _count_tensor(self, idx, args):
        self.counts["supercat.tensor.products"] += args[0].nnz() * args[1].nnz()

    def _count_group_mul(self, idx, args):
        left, right = args[0], args[1]
        if hasattr(right, "terms"):
            self.counts["symgroup.group_algebra_mul.term_pairs"] += (
                len(left.terms) * len(right.terms))

    def _count_schur(self, idx, args):
        lam, x = args[0], args[1]
        self._schur_parities[idx] = x.ambient.parities
        self.schur_keys.add((hash(x.fingerprint()), lam.parts))
        self.peaks["karoubi.schur_apply.peak_dim"] = max(
            self.peaks["karoubi.schur_apply.peak_dim"], x.ambient.dim ** lam.n)

    def _count_young(self, idx, args):
        for parent in reversed(self.stack):
            parities = self._schur_parities.get(parent)
            if parities is not None:
                self.counts["karoubi.operator_builds"] += 1
                self.operator_keys.add((parities, args[0].parts))
                return

    # --- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls/total/self seconds plus the exact counters."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            dur = end - start
            calls[nid] += 1
            total[nid] += dur
            if parent >= 0:
                child[parent] += dur
        self_s = [0.0] * n
        lift_id = self._ids.get("lifting.lift_idempotent")
        compose_id = self._ids.get("supercat.compose")
        lift_composes = 0
        for i, (nid, start, end, parent) in enumerate(self.spans):
            self_s[nid] += end - start - child[i]
            if (nid == compose_id and parent >= 0
                    and self.spans[parent][0] == lift_id):
                lift_composes += 1
        counts = dict(self.counts)
        counts["lifting.lift_idempotent.composes"] = lift_composes
        counts["karoubi.schur_apply.distinct"] = len(self.schur_keys)
        counts["karoubi.operator_builds.distinct"] = len(self.operator_keys)
        return {
            "spans": {self.names[i]: {"calls": calls[i], "total_s": total[i],
                                      "self_s": self_s[i]} for i in range(n)},
            "counts": counts,
            "peaks": dict(self.peaks),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of the imported finmot package."""
    import importlib

    modules = {name: importlib.import_module(f"finmot.{name}") for name in LAYERS}
    rebinders = list(modules.values()) + [importlib.import_module("finmot")]
    for layer, funcs in FUNCTIONS.items():
        mod = modules[layer]
        for fname in funcs:
            original = getattr(mod, fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", original)
            for other in rebinders:
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapped)
    for layer, cls_name, method, span_name in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, tracer.wrap(span_name, getattr(cls, method)))
