"""Kleene least fixpoints and the four fixpoint families of approximating
operators: Kripke-Kleene, supported, stable, well-founded.

Operators are explicit tables on finite spaces, checked exhaustively. The
chains behind least fixpoints, stable revisions and the well-founded fixpoint
(``kleene_chain``, ``alternating_fixpoint``) also follow an operator given as
a function, evaluating it only at their iterates, on a ``PairProduct`` whose
product space is never listed. An approximator couples a precision-monotone
operator with a pair structure that splits each element of its space into a
lower-lattice and an upper-lattice part; square bilattices split pairs
directly, products split componentwise, and function spaces split pointwise
into a monotone lower map and an antitone upper map. The stable operator
revises the lower part against a fixed upper part; its fixpoints and
the least fixpoint of the pairwise revision operator give the stable and
well-founded semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    InconsistentRevision,
    InternalLawFailure,
    NoBottom,
    NotMonotone,
    UnknownElement,
)
from .order import Poset, ProductOrder, _bits, product


class Operator:
    """A total endo-map on a finite poset, given by its table."""

    __slots__ = ("space", "table", "_monotone")

    def __init__(self, space: Poset, table: Mapping):
        self.space = space
        self.table = dict(table)
        for e in space.elements:
            if e not in self.table:
                raise UnknownElement(f"operator not total: missing {e!r}")
            space.index(self.table[e])
        self._monotone: Optional[bool] = None

    def __call__(self, x):
        try:
            return self.table[x]
        except KeyError:
            raise UnknownElement(f"{x!r} not in operator space") from None

    def is_monotone(self) -> bool:
        if self._monotone is None:
            self._monotone = True
            sp = self.space
            for i, x in enumerate(sp.elements):
                fx = self.table[x]
                for j in _bits(sp.above_mask(i)):
                    if not sp.leq(fx, self.table[sp.elements[j]]):
                        self._monotone = False
                        break
                if not self._monotone:
                    break
        return self._monotone

    @classmethod
    def from_function(cls, space: Poset, fn: Callable) -> "Operator":
        return cls(space, {e: fn(e) for e in space.elements})


def kleene_chain(step: Callable, start, leq: Callable, bound: int):
    """Follow start, step(start), step(step(start)), ... to its first fixpoint.

    Every iterate must lie below its successor, which holds for a monotone
    step from a bottom; otherwise NotMonotone is raised. ``bound`` caps the
    strict steps, such as the order's ``chain_bound()``.
    """
    x = start
    for _ in range(bound + 1):
        nxt = step(x)
        if nxt == x:
            return x
        if not leq(x, nxt):
            raise NotMonotone("chain is not ascending: an iterate is not below "
                              "its successor, so the step is not monotone here")
        x = nxt
    raise InternalLawFailure("Kleene iteration failed to stabilize")


def lfp(op: Operator) -> object:
    """Least fixpoint by Kleene iteration from bottom.

    Requires a monotone operator on a space with a bottom; finiteness bounds
    the iteration by the space size.
    """
    if not op.space.has_bottom():
        raise NoBottom("least fixpoint needs a bottom element")
    if not op.is_monotone():
        raise NotMonotone("least fixpoint needs a monotone operator")
    return kleene_chain(op, op.space.bottom(), op.space.leq,
                        op.space.chain_bound())


# ---------------------------------------------------------------------------
# Pair structures


class PairStructure:
    """Bijection between a pair-structured space and consistent (lower, upper)
    combinations. ``merge`` is partial when the space keeps only consistent
    pairs."""

    def __init__(self, space: Poset, lower: Poset, upper: Poset,
                 split_table: Mapping, name: str = "pairs"):
        self.space = space
        self.lower = lower
        self.upper = upper
        self.name = name
        self._split = dict(split_table)
        self._merge = {}
        for e, (x, y) in self._split.items():
            self._merge[(x, y)] = e

    def split(self, e):
        try:
            return self._split[e]
        except KeyError:
            raise UnknownElement(f"{e!r} not in pair space") from None

    def merge(self, x, y):
        try:
            return self._merge[(x, y)]
        except KeyError:
            raise UnknownElement(
                f"({x!r}, {y!r}) is not a consistent pair of this space") from None

    def has_pair(self, x, y) -> bool:
        return (x, y) in self._merge

    @classmethod
    def square(cls, base: Poset, space: Poset) -> "PairStructure":
        """Structure of a full or consistent square: elements are pairs over
        one base lattice."""
        table = {e: (e[0], e[1]) for e in space.elements}
        return cls(space, base, base, table, name="square")

    @classmethod
    def componentwise(cls, structures: Sequence["PairStructure"],
                      space: Poset) -> "PairStructure":
        """Product structure: split each coordinate and regroup."""
        table = {}
        for e in space.elements:
            lows = tuple(structures[i].split(e[i])[0] for i in range(len(structures)))
            ups = tuple(structures[i].split(e[i])[1] for i in range(len(structures)))
            table[e] = (lows, ups)
        lower = product([s.lower for s in structures])
        upper = product([s.upper for s in structures])
        return cls(space, lower, upper, table, name="product")

    @classmethod
    def pointwise(cls, inner: "PairStructure", space: Poset) -> "PairStructure":
        """Function-space structure: a map of pairs splits into the map of
        lower parts and the map of upper parts."""
        table = {}
        lower_vals = set()
        upper_vals = set()
        for f in space.elements:
            lows = tuple(inner.split(v)[0] for v in f)
            ups = tuple(inner.split(v)[1] for v in f)
            table[f] = (lows, ups)
            lower_vals.add(lows)
            upper_vals.add(ups)

        def lower_key(tup):
            return tuple(inner.lower.index(v) for v in tup)

        def upper_key(tup):
            return tuple(inner.upper.index(v) for v in tup)

        lower = _pointwise_poset(sorted(lower_vals, key=lower_key), inner.lower)
        upper = _pointwise_poset(sorted(upper_vals, key=upper_key), inner.upper)
        return cls(space, lower, upper, table, name="pointwise")


class PairProduct:
    """Componentwise pair structure over per-component pair structures.

    Answers the queries of a componentwise PairStructure without listing the
    product space: ``space``, ``lower`` and ``upper`` are ProductOrders, and
    split, merge and has_pair work component by component.
    """

    def __init__(self, parts: Sequence[PairStructure]):
        self.parts = tuple(parts)
        self.space = ProductOrder([s.space for s in self.parts])
        self.lower = ProductOrder([s.lower for s in self.parts])
        self.upper = ProductOrder([s.upper for s in self.parts])

    def split(self, e):
        halves = [s.split(v) for s, v in zip(self.parts, e)]
        return tuple(x for x, _ in halves), tuple(y for _, y in halves)

    def merge(self, x, y):
        if not self.has_pair(x, y):
            raise UnknownElement(
                f"({x!r}, {y!r}) is not a consistent pair of this space")
        return tuple(s.merge(a, b) for s, a, b in zip(self.parts, x, y))

    def has_pair(self, x, y) -> bool:
        return all(s.has_pair(a, b) for s, a, b in zip(self.parts, x, y))


def _pointwise_poset(tables: Sequence[tuple], value_poset: Poset) -> Poset:
    above = []
    n = len(tables)
    for f in tables:
        row = 0
        for j, g in enumerate(tables):
            if all(value_poset.leq(f[i], g[i]) for i in range(len(f))):
                row |= 1 << j
        above.append(row)
    return Poset(tuple(tables), above, kind="plain")


class Approximator:
    """A precision-monotone operator on a pair-structured space."""

    def __init__(self, structure: PairStructure, op: Operator):
        if op.space is not structure.space \
                and op.space.elements != structure.space.elements:
            raise UnknownElement("operator and structure disagree on the carrier")
        if not op.is_monotone():
            raise NotMonotone("approximators must be precision-monotone")
        self.structure = structure
        self.op = op

    @classmethod
    def unchecked(cls, structure, op: Callable) -> "Approximator":
        """An approximator known to be precision-monotone, such as a program's
        consequence operator, on a PairStructure or PairProduct. ``op`` is any
        callable on the structure's space; the chains check each step they
        take instead of the whole operator."""
        a = cls.__new__(cls)
        a.structure = structure
        a.op = op
        return a

    def a1(self, x, y):
        return self.structure.split(self.op(self.structure.merge(x, y)))[0]

    def a2(self, x, y):
        return self.structure.split(self.op(self.structure.merge(x, y)))[1]


@dataclass(frozen=True)
class ApproximatorReport:
    monotone: bool
    symmetric: bool
    approximates: Optional[bool]


def check_approximator(structure: PairStructure, op: Operator,
                       approximated: Optional[Operator] = None) -> ApproximatorReport:
    """Exhaustive flags: precision-monotonicity, symmetry (A1(x,y) = A2(y,x)
    wherever both pairs exist), and agreement with an operator on the
    diagonal."""
    monotone = op.is_monotone()
    symmetric = True
    for e in structure.space.elements:
        x, y = structure.split(e)
        if not structure.has_pair(y, x):
            continue
        mirrored = structure.split(op(structure.merge(y, x)))[1]
        if structure.split(op(e))[0] != mirrored:
            symmetric = False
            break
    approximates: Optional[bool] = None
    if approximated is not None:
        approximates = True
        for x in approximated.space.elements:
            if not structure.has_pair(x, x):
                approximates = False
                break
            image = op(structure.merge(x, x))
            ox = approximated(x)
            if not structure.has_pair(ox, ox) \
                    or image != structure.merge(ox, ox):
                approximates = False
                break
    return ApproximatorReport(monotone=monotone, symmetric=symmetric,
                              approximates=approximates)


# ---------------------------------------------------------------------------
# The four fixpoint families


def kripke_kleene(a: Approximator):
    """Least fixpoint of the approximator in the precision order."""
    return lfp(a.op)


def supported_fixpoints(a: Approximator) -> list:
    """All x with A1(x,x) = x, in the lower lattice's canonical order."""
    out = []
    for x in a.structure.lower.elements:
        if a.structure.has_pair(x, x) and a.a1(x, x) == x:
            out.append(x)
    return out


def stable_revision(a: Approximator, y):
    """Least fixpoint of A1(., y) over the lower lattice, for y in the upper
    lattice.

    On spaces that keep only consistent pairs, the revision sequence can
    produce a lower value no longer below y; that case raises
    InconsistentRevision instead of clamping (see the module notes on the
    experimental status of stable constructions beyond full squares).
    """
    structure = a.structure
    structure.upper.index(y)
    lower = structure.lower
    if not lower.has_bottom():
        raise NoBottom("lower lattice has no bottom")

    def step(x):
        if not structure.has_pair(x, y):
            raise InconsistentRevision(
                f"revision value {x!r} is not paired with upper bound {y!r}")
        return a.a1(x, y)

    # a revision that is not inflationary raises NotMonotone: the
    # approximator is not precision-monotone there
    return kleene_chain(step, lower.bottom(), lower.leq, lower.chain_bound())


def stable_fixpoints(a: Approximator) -> list:
    """All x with S_A(x) = x, in canonical order."""
    out = []
    upper_set = set(a.structure.upper.elements)
    for x in a.structure.lower.elements:
        if x not in upper_set:
            continue
        if stable_revision(a, x) == x:
            out.append(x)
    return out


def _alternation(a: Approximator) -> Callable:
    """The operator (x, y) -> (S_A(y), S_A(x)) as a function."""
    structure = a.structure

    def step(e):
        x, y = structure.split(e)
        return structure.merge(stable_revision(a, y), stable_revision(a, x))

    return step


def well_founded(a: Approximator):
    """Least fixpoint of (x, y) -> (S_A(y), S_A(x)) in the precision order,
    from the table of that operator on the whole space."""
    return lfp(Operator.from_function(a.structure.space, _alternation(a)))


def alternating_fixpoint(a: Approximator):
    """The well-founded fixpoint by the alternating chain from bottom.

    Revises only the two halves of each iterate of (x, y) -> (S_A(y), S_A(x)),
    so it also runs on a PairProduct. Where well_founded checks the whole
    operator for monotonicity, this checks that each step ascends.
    """
    space = a.structure.space
    return kleene_chain(_alternation(a), space.bottom(), space.leq,
                        space.chain_bound())


# ---------------------------------------------------------------------------
# Interchange


def operator_to_dict(op: Operator) -> dict:
    from .order import poset_to_dict, render_element

    return {
        "space": poset_to_dict(op.space),
        "table": {render_element(op.space, k): render_element(op.space, v)
                  for k, v in op.table.items()},
    }


def operator_from_dict(data: Mapping, space: Optional[Poset] = None) -> Operator:
    """Rebuild an operator; pass ``space`` to attach the table to an existing
    poset instead of the serialized copy (needed when elements are structured
    values rather than plain names)."""
    from .order import poset_from_dict, render_index

    target = space if space is not None else poset_from_dict(data["space"])
    idx = render_index(target)
    table = {idx[k]: idx[v] for k, v in data["table"].items()}
    return Operator(target, table)
