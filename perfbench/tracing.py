"""Span tracer that wraps aftkit's layer boundaries from outside the package.

Each boundary is a public function or method of an ``aftkit`` module. A
function is replaced by object identity in every loaded ``aftkit.*`` module
namespace, because modules call their own from-imported bindings (``holog``
and ``laws`` call ``product`` and ``exponential`` through their own names, so
patching only ``aftkit.order`` would miss those calls). Methods are wrapped on
their class. ``uninstall`` puts every original back.

A span records its boundary, start, end, parent span and op id. Spans stay in
memory in flat arrays and are written out by ``write``; per-boundary self time
is the span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# (span name, module, attribute path, count). ``count`` is None or
# (count name, measure): measure "calls" counts calls, and a callable maps
# (args, result) to the amount of work the call reports.
BOUNDARIES = [
    ("cli.main", "aftkit.cli", "main", None),
    ("laws.run_suites", "aftkit.laws", "run_suites", None),
    ("holog.parse_program", "aftkit.holog", "parse_program", None),
    ("holog.typecheck", "aftkit.holog", "typecheck", None),
    ("holog.immediate_consequence", "aftkit.holog", "immediate_consequence",
     ("holog.interp_space.elements", lambda args, res: len(res.space))),
    ("holog.interpretation_structure", "aftkit.holog",
     "interpretation_structure", None),
    ("holog.analyze_model", "aftkit.holog", "analyze_model", None),
    ("holog.model_to_dict", "aftkit.holog", "model_to_dict", None),
    ("holog.decode_value", "aftkit.holog", "decode_value", None),
    ("holog.encode_semantic", "aftkit.holog", "encode_semantic", None),
    ("fixpoints.Operator.init", "aftkit.fixpoints", "Operator.__init__", None),
    ("fixpoints.Operator.call", "aftkit.fixpoints", "Operator.__call__",
     ("fixpoints.Operator.evals", "calls")),
    ("fixpoints.Operator.is_monotone", "aftkit.fixpoints",
     "Operator.is_monotone", None),
    ("fixpoints.lfp", "aftkit.fixpoints", "lfp", None),
    ("fixpoints.PairStructure", "aftkit.fixpoints", "PairStructure.__init__", None),
    ("fixpoints.PairStructure", "aftkit.fixpoints", "PairStructure.square", None),
    ("fixpoints.PairStructure", "aftkit.fixpoints",
     "PairStructure.componentwise", None),
    ("fixpoints.PairStructure", "aftkit.fixpoints", "PairStructure.pointwise", None),
    ("fixpoints.stable_revision", "aftkit.fixpoints", "stable_revision",
     ("fixpoints.stable_revision.calls", "calls")),
    ("fixpoints.well_founded", "aftkit.fixpoints", "well_founded", None),
    ("order.product", "aftkit.order", "product",
     ("order.product.elements", lambda args, res: len(res))),
    ("order.Poset.init", "aftkit.order", "Poset.__init__",
     ("order.Poset.init.calls", "calls")),
    ("order.MonotoneMap.init", "aftkit.order", "MonotoneMap.__init__",
     ("order.MonotoneMap.init.calls", "calls")),
    ("order.validate_poset", "aftkit.order", "validate_poset", None),
    ("order.subposet", "aftkit.order", "subposet", None),
    ("order.bound", "aftkit.order", "bound", None),
    ("order.classify", "aftkit.order", "classify", None),
    ("order.exponential", "aftkit.order", "exponential",
     ("order.exponential.elements", lambda args, res: len(res))),
    ("order.enumerate_monotone_tables", "aftkit.order", "enumerate_monotone_tables",
     ("order.enumerate_monotone_tables.maps", lambda args, res: len(res))),
    ("universal.check_universal", "aftkit.universal", "check_universal", None),
    ("universal.find_isomorphism", "aftkit.universal", "find_isomorphism", None),
    ("enumeration", "aftkit.enumeration", "posets_up_to", None),
    ("enumeration", "aftkit.enumeration", "lattices_up_to", None),
    ("enumeration", "aftkit.enumeration", "bounded_posets_up_to", None),
    ("bilat.product_iso", "aftkit.bilat", "product_iso", None),
    ("bilat.exponential_iso", "aftkit.bilat", "exponential_iso", None),
    ("bilat.classify_approximator", "aftkit.bilat", "classify_approximator",
     ("bilat.classify_approximator.calls", "calls")),
    ("lu.validate_tuple", "aftkit.lu", "validate_tuple", None),
    ("lu.lu_space", "aftkit.lu", "lu_space", None),
    ("lu.chain_sup", "aftkit.lu", "chain_sup", ("lu.chain_sup.calls", "calls")),
    ("lu.lu_exponential", "aftkit.lu", "lu_exponential", None),
    ("systems.app", "aftkit.systems", "ApproximationSystem.app", None),
    ("systems.exact_elements", "aftkit.systems",
     "ApproximationSystem.exact_elements", None),
    ("systems.project", "aftkit.systems", "ApproximationSystem.project",
     ("systems.project.calls", "calls")),
    ("systems.least_exact_representative", "aftkit.systems",
     "ApproximationSystem.least_exact_representative", None),
    ("systems.is_consistent_element", "aftkit.systems",
     "ApproximationSystem.is_consistent_element", None),
    ("systems.load_system", "aftkit.systems", "load_system", None),
    ("typesys.semantics", "aftkit.typesys", "semantics", None),
]

SPAN_NAMES = sorted({b[0] for b in BOUNDARIES})
# Operator.__call__ is a table lookup; its span exists to count evaluations
# and to attribute them to their caller, so no self time is reported for it.
TIMED_SPANS = [name for name in SPAN_NAMES if name != "fixpoints.Operator.call"]
COUNT_NAMES = sorted({b[3][0] for b in BOUNDARIES if b[3] is not None})


class Tracer:
    """Installs span-recording wrappers; one instance per traced run."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.op = -1
        self._stack = [-1]
        self._restore = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name, count):
        name_id = self.name_ids[name]
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack
        counts = self.counts
        count_name, measure = count if count is not None else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if measure == "calls":
                counts[count_name] += 1
            elif measure is not None:
                counts[count_name] += measure(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "aftkit" or n.startswith("aftkit."))]
        for name, module_name, path, count in BOUNDARIES:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, count))
                else:
                    wrapped = self._wrap(raw, name, count)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(original, name, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time summed per span name."""
        n = len(self.names)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for i in range(n):
            totals[SPAN_NAMES[self.names[i]]] += ends[i] - starts[i] - child[i]
        return totals

    def child_count(self, parent: str, child: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        parent_id, child_id = self.name_ids[parent], self.name_ids[child]
        names, parents = self.names, self.parents
        return sum(1 for i in range(len(names))
                   if names[i] == child_id and parents[i] >= 0
                   and names[parents[i]] == parent_id)

    def span_counts(self) -> dict:
        totals = dict.fromkeys(SPAN_NAMES, 0)
        for name_id in self.names:
            totals[SPAN_NAMES[name_id]] += 1
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": SPAN_NAMES}) + "\n")
            for i in range(len(self.names)):
                fh.write(f"[{self.names[i]},{self.starts[i]!r},{self.ends[i]!r},"
                         f"{self.parents[i]},{self.ops[i]}]\n")
