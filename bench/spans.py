"""Spans and counters around the library's public functions, from outside.

``Tracer.install`` replaces every binding of each traced function in the
loaded ``kclass`` modules (``from .groups import kernel`` gives
``sixterm`` a binding of its own) and class attributes for methods, and
``uninstall`` puts the originals back.  Span functions record a span
(name, start, end, parent) kept in memory in flat arrays; counted
functions only count calls.  Self time is a span's duration minus the
time its child spans cover.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (metric prefix, module, attribute path, kind); kind "span" records
# calls and self time, "count" records calls only.  The two private
# sixterm routes are spans so that each isomorphic verdict can be
# attributed to the stage that found it; they are not reported.
TRACED = [
    ("cli.main", "cli", "main", "span"),
    ("matrix.snf", "matrix", "snf", "span"),
    ("matrix.solve", "matrix", "solve", "span"),
    ("matrix.kernel_basis", "matrix", "kernel_basis", "count"),
    ("matrix.IntMatrix", "matrix", "IntMatrix.__init__", "count"),
    ("groups.is_exact_pair", "groups", "is_exact_pair", "span"),
    ("groups.kernel", "groups", "kernel", "span"),
    ("groups.cokernel", "groups", "cokernel", "span"),
    ("groups.solve_hom_equations", "groups", "solve_hom_equations", "span"),
    ("groups.Presentation", "groups", "Presentation.__init__", "count"),
    ("ext.ext1", "ext", "ext1", "count"),
    ("ext.extension_class", "ext", "extension_class", "count"),
    ("ext.orbit_search", "ext", "orbit_search", "span"),
    ("autgroups.aut_generators", "autgroups", "aut_generators", "span"),
    ("autgroups.subgroup_closure", "autgroups", "subgroup_closure", "span"),
    ("autgroups.word_ball", "autgroups", "word_ball", "span"),
    ("sixterm.validate_sixterm", "sixterm", "validate_sixterm", "span"),
    ("sixterm.decide_iso_one_ideal", "sixterm", "decide_iso_one_ideal", "span"),
    ("sixterm.verify_witness", "sixterm", "verify_witness", "span"),
    ("sixterm.from_json", "sixterm", "SixTermInvariant.from_json", "span"),
    ("sixterm._ext_route", "sixterm", "_ext_route", "span"),
    ("sixterm._general_search", "sixterm", "_general_search", "span"),
    ("graphalg.hereditary_saturated_sets", "graphalg", "hereditary_saturated_sets", "span"),
    ("graphalg.evaluate_subset", "graphalg", "evaluate_subset", "count"),
    ("graphalg.one_ideal_invariant", "graphalg", "one_ideal_invariant", "span"),
    ("graphalg.classify_simple", "graphalg", "classify_simple", "span"),
    ("surd.parse_surd", "surd", "parse_surd", "count"),
    ("surd.cf_expansion", "surd", "cf_expansion", "span"),
    ("surd.QuadraticIrrational", "surd", "QuadraticIrrational.__init__", "count"),
    ("surd.sturmian_equivalent", "surd", "sturmian_equivalent", "span"),
    ("dimgroup.compare_substitution_invariants", "dimgroup",
     "compare_substitution_invariants", "span"),
    ("dimgroup.perron_slope", "dimgroup", "perron_slope", "span"),
    ("dimgroup.order_iso_base", "dimgroup", "order_iso_base", "span"),
    ("dimgroup.is_positive_slope_map", "dimgroup", "is_positive_slope_map", "count"),
]
REPORTED = [t for t in TRACED if not t[2].startswith("_")]


# Counts read from return values (and, for validation, from arguments).
def _observe_sets(tr, args, result):
    tr.extra["graphalg.hereditary_saturated_sets.found"] += len(result)


def _observe_closure(tr, args, result):
    tr.extra["autgroups.subgroup_closure.elements"] += len(result or ())


def _observe_ball(tr, args, result):
    tr.extra["autgroups.word_ball.elements"] += len(result)


def _observe_cf(tr, args, result):
    tr.extra["surd.cf_expansion.digits"] += len(result[0]) + len(result[1])


def _observe_validation(tr, args, result):
    tr.distinct_invariants.add(args[0])


OBSERVERS = {
    "graphalg.hereditary_saturated_sets": _observe_sets,
    "autgroups.subgroup_closure": _observe_closure,
    "autgroups.word_ball": _observe_ball,
    "surd.cf_expansion": _observe_cf,
    "sixterm.validate_sixterm": _observe_validation,
}


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kclass" or name.startswith("kclass."))]


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _, kind in TRACED if kind == "span"]
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.extra: Counter = Counter()
        self.distinct_invariants: set = set()
        self._stack: list[list] = []       # [span index, child time]
        self._patched: list[tuple] = []    # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        sid = self.names.index(name)
        observe = OBSERVERS.get(name)
        stack, perf = self._stack, time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx], ends[idx] = t0, t1
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        mods = {m.__name__: m for m in _modules()}
        for name, module, path, kind in TRACED:
            owner = mods[f"kclass.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = (self._span if kind == "span" else self._count)(name, fn)
            if cls_path:
                # one class object, whatever module names it
                self._patch(owner, attr, raw, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, fn, wrapped)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def decision_routes(self) -> list[str]:
        """For each decide_iso_one_ideal span in order, the route that
        ran inside it: 'general', 'ext' or '' for neither."""
        decide = self.names.index("sixterm.decide_iso_one_ideal")
        ext = self.names.index("sixterm._ext_route")
        general = self.names.index("sixterm._general_search")
        routes = {i: "" for i, s in enumerate(self.span_name) if s == decide}
        for i, s in enumerate(self.span_name):
            parent = self.span_parent[i]
            if s == general and parent in routes:
                routes[parent] = "general"
            elif s == ext and parent in routes and not routes[parent]:
                routes[parent] = "ext"
        return [routes[i] for i in sorted(routes)]

    def write(self, path: Path) -> None:
        """Spans as flat binary columns, with a JSON header beside them."""
        path = Path(path)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)
        header = {"names": self.names, "count": len(self.span_name),
                  "columns": [["name", self.span_name.typecode],
                              ["parent", self.span_parent.typecode],
                              ["start", self.span_start.typecode],
                              ["end", self.span_end.typecode]]}
        path.with_suffix(".json").write_text(json.dumps(header))
