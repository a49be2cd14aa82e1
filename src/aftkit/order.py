"""Finite posets and the Cartesian-closed constructions over them.

Elements are arbitrary hashable values; the element sequence fixed at
construction is the canonical iteration order, and every derived listing
(bounds, exact sets, enumerations) follows it. The order relation is stored
reflexive-transitively closed as per-element bitmask rows, which keeps the
brute-force checkers in :mod:`aftkit.universal` affordable.

Constructed posets remember how they were built (``kind``/``info``): product
elements are tuples of factor elements, and both exponentials and full
function spaces encode a map as the tuple of its images listed in the source
poset's canonical order. ``apply_fn`` is function application under that
encoding.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .errors import (
    DuplicateElement,
    InvalidSetting,
    NoBottom,
    NotAntisymmetric,
    NotMonotone,
    NotReflexive,
    NotTransitive,
    SizeCapExceeded,
    UnknownElement,
)

Element = Hashable

DEFAULT_SIZE_CAP = 100_000


def size_cap() -> int:
    """Current construction cap; override with the AFT_SIZE_CAP env var, a
    non-negative integer."""
    raw = os.environ.get("AFT_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise InvalidSetting(
            f"AFT_SIZE_CAP must be a non-negative integer, got {raw!r}")
    return cap


def _check_cap(n: int, what: str, cap: Optional[int] = None) -> None:
    limit = size_cap() if cap is None else cap
    if n > limit:
        raise SizeCapExceeded(f"{what} needs {n} candidates/elements; cap is {limit}")


class RelationMode(Enum):
    FULL = "full"
    COVERS = "covers"


class Direction(Enum):
    GLB = "glb"
    LUB = "lub"


class Poset:
    """Immutable finite poset with a fixed canonical element order."""

    __slots__ = ("elements", "kind", "info", "_index", "_above", "_below", "_full")

    def __init__(self, elements: Sequence[Element], above: Sequence[int],
                 kind: str = "plain", info: Optional[dict] = None):
        # `above` rows must already be reflexive-transitively closed; use
        # validate_poset for untrusted input.
        self.elements: tuple = tuple(elements)
        self.kind = kind
        self.info = info or {}
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise DuplicateElement("duplicate elements in poset carrier")
        self._above = tuple(above)
        n = len(self.elements)
        below = [0] * n
        for i in range(n):
            row = self._above[i]
            while row:
                low = row & -row
                below[low.bit_length() - 1] |= 1 << i
                row ^= low
        self._below = tuple(below)
        self._full = (1 << n) - 1

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def __repr__(self) -> str:
        return f"Poset({len(self)} elements, kind={self.kind!r})"

    def index(self, x: Element) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(f"element {x!r} not in poset") from None

    def leq(self, x: Element, y: Element) -> bool:
        return bool(self._above[self.index(x)] >> self.index(y) & 1)

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self._above[i] >> j & 1)

    def above_mask(self, i: int) -> int:
        return self._above[i]

    def below_mask(self, i: int) -> int:
        return self._below[i]

    def full_mask(self) -> int:
        return self._full

    def mask_of(self, subset: Iterable[Element]) -> int:
        m = 0
        for x in subset:
            m |= 1 << self.index(x)
        return m

    def elements_of(self, mask: int) -> list:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.elements[low.bit_length() - 1])
            mask ^= low
        return out

    def bottom(self) -> Element:
        for i in range(len(self.elements)):
            if self._above[i] == self._full:
                return self.elements[i]
        raise NoBottom("poset has no bottom element")

    def has_bottom(self) -> bool:
        return any(self._above[i] == self._full for i in range(len(self.elements)))

    def has_top(self) -> bool:
        return any(self._below[i] == self._full for i in range(len(self.elements)))

    def is_chain_mask(self, mask: int) -> bool:
        idxs = _bits(mask)
        for a, b in itertools.combinations(idxs, 2):
            if not (self.leq_idx(a, b) or self.leq_idx(b, a)):
                return False
        return True

    def chain_bound(self) -> int:
        """Bound on the strict steps of any ascending chain."""
        return len(self.elements)

    def same_order_as(self, other: "Poset") -> bool:
        return self.elements == other.elements and self._above == other._above

    def relation_pairs(self) -> list:
        """All (x, y) with x <= y, in canonical order."""
        out = []
        for i, x in enumerate(self.elements):
            for j in _bits(self._above[i]):
                out.append((x, self.elements[j]))
        return out


def _bits(mask: int) -> list:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _least_of_mask(p: Poset, mask: int) -> Optional[int]:
    for i in _bits(mask):
        if mask & ~p.above_mask(i) == 0:
            return i
    return None


def _greatest_of_mask(p: Poset, mask: int) -> Optional[int]:
    for i in _bits(mask):
        if mask & ~p.below_mask(i) == 0:
            return i
    return None


# ---------------------------------------------------------------------------
# Construction and validation


def validate_poset(elements: Sequence[Element], leq: Iterable[tuple],
                   mode: RelationMode = RelationMode.FULL,
                   kind: str = "plain", info: Optional[dict] = None) -> Poset:
    """Build a poset from an element sequence and a relation.

    In COVERS mode ``leq`` is read as a covering (Hasse) relation and closed
    reflexive-transitively before the antisymmetry check. In FULL mode the
    relation must already be reflexive, antisymmetric and transitive.
    """
    elems = tuple(elements)
    seen = set()
    for e in elems:
        if e in seen:
            raise DuplicateElement(f"duplicate element {e!r}")
        seen.add(e)
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    above = [1 << i for i in range(n)]
    given = [0] * n
    for pair in leq:
        a, b = pair
        if a not in index:
            raise UnknownElement(f"element {a!r} in relation but not in carrier")
        if b not in index:
            raise UnknownElement(f"element {b!r} in relation but not in carrier")
        given[index[a]] |= 1 << index[b]

    if mode is RelationMode.FULL:
        for i in range(n):
            if not given[i] >> i & 1:
                raise NotReflexive(f"missing {elems[i]!r} <= {elems[i]!r}")
        for i in range(n):
            for j in _bits(given[i]):
                if i != j and given[j] >> i & 1:
                    raise NotAntisymmetric(
                        f"{elems[i]!r} <= {elems[j]!r} and vice versa",
                        [elems[i], elems[j]])
                if given[j] & ~given[i]:
                    k = _bits(given[j] & ~given[i])[0]
                    raise NotTransitive(
                        f"{elems[i]!r} <= {elems[j]!r} <= {elems[k]!r} "
                        f"but not {elems[i]!r} <= {elems[k]!r}")
        above = given
    else:
        for i in range(n):
            above[i] |= given[i]
        # Warshall closure on bitmask rows.
        for k in range(n):
            bit = 1 << k
            row_k = above[k]
            for i in range(n):
                if above[i] & bit:
                    above[i] |= row_k
        for i in range(n):
            for j in _bits(above[i]):
                if i != j and above[j] >> i & 1:
                    cycle = _find_cycle(above, i, j, elems)
                    raise NotAntisymmetric(
                        f"cycle through {elems[i]!r} and {elems[j]!r}", cycle)
    return Poset(elems, above, kind=kind, info=info)


def _find_cycle(above: Sequence[int], i: int, j: int, elems: tuple) -> list:
    return [elems[i], elems[j], elems[i]]


def bound(p: Poset, subset: Iterable[Element], direction: Direction) -> Optional[Element]:
    """Greatest lower / least upper bound of a subset, or None if absent."""
    mask = p.mask_of(subset)
    if direction is Direction.GLB:
        lower = p.full_mask()
        for i in _bits(mask):
            lower &= p.below_mask(i)
        if not mask:
            lower = p.full_mask()
        g = _greatest_of_mask(p, lower)
        return None if g is None else p.elements[g]
    upper = p.full_mask()
    for i in _bits(mask):
        upper &= p.above_mask(i)
    if not mask:
        upper = p.full_mask()
    l = _least_of_mask(p, upper)
    return None if l is None else p.elements[l]


@dataclass(frozen=True)
class PosetClassification:
    has_bottom: bool
    has_top: bool
    is_cpo: bool
    is_complete_lattice: bool
    is_complete_join_semilattice: bool


# Posets at or below this size are classified by literally enumerating every
# subset and every chain; larger ones use the equivalent finite-order
# characterizations (a finite poset is a cpo iff it has a bottom, and is a
# complete lattice iff it has a bottom and binary joins).
EXHAUSTIVE_CLASSIFY_LIMIT = 12


def classify(p: Poset) -> PosetClassification:
    n = len(p)
    has_bot = p.has_bottom()
    has_top = p.has_top()
    if n <= EXHAUSTIVE_CLASSIFY_LIMIT:
        is_cjsl = True
        is_clat = True
        is_cpo = True
        for mask in range(1 << n):
            upper = p.full_mask()
            lower = p.full_mask()
            for i in _bits(mask):
                upper &= p.above_mask(i)
                lower &= p.below_mask(i)
            has_lub = _least_of_mask(p, upper) is not None
            has_glb = _greatest_of_mask(p, lower) is not None
            if not has_lub:
                is_cjsl = False
                is_clat = False
                if p.is_chain_mask(mask):
                    is_cpo = False
            if not has_glb:
                is_clat = False
            if not (is_cjsl or is_cpo):
                break
    else:
        is_cpo = has_bot
        is_cjsl = has_bot and _pairwise_bounds_exist(p, Direction.LUB)
        is_clat = is_cjsl
    return PosetClassification(
        has_bottom=has_bot,
        has_top=has_top,
        is_cpo=is_cpo,
        is_complete_lattice=is_clat,
        is_complete_join_semilattice=is_cjsl,
    )


def _pairwise_bounds_exist(p: Poset, direction: Direction) -> bool:
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if direction is Direction.LUB:
                mask = p.above_mask(i) & p.above_mask(j)
                if _least_of_mask(p, mask) is None:
                    return False
            else:
                mask = p.below_mask(i) & p.below_mask(j)
                if _greatest_of_mask(p, mask) is None:
                    return False
    return True


def opposite(p: Poset) -> Poset:
    n = len(p)
    above = [p.below_mask(i) for i in range(n)]
    return Poset(p.elements, above, kind="opposite", info={"of": p})


def subposet(p: Poset, elems: Sequence[Element]) -> Poset:
    """Restriction of p to a subset, keeping the inherited order."""
    elems = tuple(elems)
    positions = [p.index(e) for e in elems]
    above = []
    for i in positions:
        row = 0
        for out_j, j in enumerate(positions):
            if p.leq_idx(i, j):
                row |= 1 << out_j
        above.append(row)
    return Poset(elems, above, kind="plain")


# ---------------------------------------------------------------------------
# Products, exponentials, function spaces


def product(factors: Sequence[Poset], labels: Optional[Sequence] = None,
            cap: Optional[int] = None, extra_info: Optional[dict] = None) -> Poset:
    """Generalized product: tuples under the componentwise order.

    The empty family yields the one-point terminal poset (carrier ``()``).
    """
    factors = tuple(factors)
    total = 1
    for f in factors:
        total *= len(f)
    _check_cap(total, "product", cap)
    elements = list(itertools.product(*[f.elements for f in factors]))
    above = _componentwise_above(factors, elements)
    info = {"factors": factors}
    if labels is not None:
        if len(labels) != len(factors):
            raise ValueError("labels must match factors")
        info["labels"] = tuple(labels)
    if extra_info:
        info.update(extra_info)
    return Poset(elements, above, kind="product", info=info)


class ProductOrder:
    """The componentwise order on tuples over factor posets, queried without
    listing the product, whose size is the product of the factor sizes."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[Poset]):
        self.factors = tuple(factors)

    def index(self, x) -> tuple:
        """Per-factor indices of ``x``; raises UnknownElement like Poset.index."""
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise UnknownElement(f"element {x!r} not in product")
        return tuple(f.index(v) for f, v in zip(self.factors, x))

    def leq(self, x: tuple, y: tuple) -> bool:
        return all(f.leq(a, b) for f, a, b in zip(self.factors, x, y))

    def has_bottom(self) -> bool:
        return all(f.has_bottom() for f in self.factors)

    def bottom(self) -> tuple:
        return tuple(f.bottom() for f in self.factors)

    def chain_bound(self) -> int:
        """Bound on the strict steps of any ascending chain: a strict step
        raises at least one component."""
        return sum(f.chain_bound() for f in self.factors)


def _componentwise_above(factors: Sequence[Poset], elements: list) -> list:
    n = len(elements)
    k = len(factors)
    if k == 0:
        return [1]
    # above-position masks per (factor, element) let each row be assembled by
    # ANDing k precomputed masks instead of comparing n*n tuples directly.
    pos_masks = []
    for fi, f in enumerate(factors):
        masks = {e: 0 for e in f.elements}
        for pos, tup in enumerate(elements):
            comp = tup[fi]
            ci = f.index(comp)
            for j in _bits(f.below_mask(ci)):
                masks[f.elements[j]] |= 1 << pos
        pos_masks.append(masks)
    above = []
    for tup in elements:
        row = -1
        for fi in range(k):
            row &= pos_masks[fi][tup[fi]]
        above.append(row & ((1 << n) - 1))
    return above


def projection_map(p: Poset, i: int) -> "MonotoneMap":
    factors = p.info["factors"]
    table = {e: e[i] for e in p.elements}
    return MonotoneMap(p, factors[i], table)


def enumerate_monotone_tables(src: Poset, tgt: Poset, cap: Optional[int] = None) -> list:
    """All monotone maps src -> tgt as image tuples in src canonical order.

    Images are assigned along a linear extension of ``src``; prefixes that
    already break monotonicity are pruned, so the full |tgt|^|src| space is
    never walked. The cap applies to the number of maps actually found: the
    walk aborts as soon as it exceeds the limit.
    """
    ns, nt = len(src), len(tgt)
    if ns == 0:
        return [()]
    if nt == 0:
        return []
    limit = size_cap() if cap is None else cap
    topo = sorted(range(ns), key=lambda i: (bin(src.below_mask(i)).count("1"), i))
    preds = []
    assigned_before = 0
    for pos, i in enumerate(topo):
        mask = src.below_mask(i) & assigned_before & ~(1 << i)
        preds.append(_bits(mask))
        assigned_before |= 1 << i
    out = []
    images = [0] * ns
    tgt_above = [tgt.above_mask(j) for j in range(nt)]

    def rec(pos: int) -> None:
        if pos == ns:
            if len(out) >= limit:
                raise SizeCapExceeded(
                    f"more than {limit} monotone maps; cap exceeded")
            out.append(tuple(images))
            return
        i = topo[pos]
        allowed = (1 << nt) - 1
        for q in preds[pos]:
            allowed &= tgt_above[images[q]]
        while allowed:
            low = allowed & -allowed
            v = low.bit_length() - 1
            images[i] = v
            rec(pos + 1)
            allowed ^= low
        images[i] = 0

    rec(0)
    tables = [tuple(tgt.elements[img[i]] for i in range(ns)) for img in out]
    tables.sort(key=lambda t: tuple(tgt.index(v) for v in t))
    return tables


def exponential(src: Poset, tgt: Poset, cap: Optional[int] = None) -> Poset:
    """Poset of monotone maps src -> tgt under the pointwise order.

    Elements are image tuples in src canonical order; evaluation is
    ``apply_fn``.
    """
    tables = enumerate_monotone_tables(src, tgt, cap)
    above = _pointwise_above(tables, src, tgt)
    return Poset(tables, above, kind="exponential", info={"src": src, "tgt": tgt})


def function_space(src: Poset, tgt: Poset, cap: Optional[int] = None) -> Poset:
    """Poset of ALL maps src -> tgt (monotone or not), ordered pointwise."""
    ns, nt = len(src), len(tgt)
    _check_cap(nt ** ns if ns else 1, "function space", cap)
    if ns == 0:
        tables = [()]
    elif nt == 0:
        tables = []
    else:
        tables = [tuple(vals) for vals in itertools.product(tgt.elements, repeat=ns)]
    above = _pointwise_above(tables, src, tgt)
    return Poset(tables, above, kind="function_space", info={"src": src, "tgt": tgt})


def _pointwise_above(tables: list, src: Poset, tgt: Poset) -> list:
    n = len(tables)
    ns = len(src)
    if n == 0:
        return []
    if ns == 0:
        return [1]
    # pos_masks[i][v]: functions whose image at src position i is >= v
    pos_masks = [dict() for _ in range(ns)]
    for fpos, table in enumerate(tables):
        for i in range(ns):
            vi = tgt.index(table[i])
            for j in _bits(tgt.below_mask(vi)):
                key = tgt.elements[j]
                d = pos_masks[i]
                d[key] = d.get(key, 0) | (1 << fpos)
    above = []
    full = (1 << n) - 1
    for table in tables:
        row = full
        for i in range(ns):
            row &= pos_masks[i].get(table[i], 0)
        above.append(row)
    return above


def apply_fn(space: Poset, fn: Element, arg: Element) -> Element:
    """Evaluate a function-like element (exponential / function space /
    argument-indexed product) at an argument."""
    if space.kind in ("exponential", "function_space"):
        src = space.info["src"]
    elif space.kind == "product" and "arg_space" in space.info:
        src = space.info["arg_space"]
    else:
        raise UnknownElement(f"poset of kind {space.kind!r} has no evaluation")
    return fn[src.index(arg)]


# ---------------------------------------------------------------------------
# Monotone maps


class MonotoneMap:
    """A monotone total function between posets, given by its table."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: Poset, target: Poset, table: Mapping):
        self.source = source
        self.target = target
        self.table = dict(table)
        for x in source.elements:
            if x not in self.table:
                raise UnknownElement(f"map not total: missing {x!r}")
            if self.table[x] not in target:
                raise UnknownElement(f"image {self.table[x]!r} not in target")
        for i, x in enumerate(source.elements):
            fx = target.index(self.table[x])
            for j in _bits(source.above_mask(i)):
                y = source.elements[j]
                if not target.leq_idx(fx, target.index(self.table[y])):
                    raise NotMonotone(
                        f"{x!r} <= {y!r} but {self.table[x]!r} !<= {self.table[y]!r}")

    def __call__(self, x: Element) -> Element:
        try:
            return self.table[x]
        except KeyError:
            raise UnknownElement(f"element {x!r} not in map domain") from None

    def __eq__(self, other) -> bool:
        return (isinstance(other, MonotoneMap)
                and self.table == other.table
                and self.source.elements == other.source.elements
                and self.target.elements == other.target.elements)

    def __hash__(self):
        return hash(tuple(self.table[x] for x in self.source.elements))

    def __repr__(self) -> str:
        return f"MonotoneMap({len(self.source)}->{len(self.target)})"

    def compose(self, first: "MonotoneMap") -> "MonotoneMap":
        """self after first."""
        return MonotoneMap(first.source, self.target,
                           {x: self.table[first.table[x]] for x in first.source.elements})

    @classmethod
    def identity(cls, p: Poset) -> "MonotoneMap":
        return cls(p, p, {x: x for x in p.elements})

    def is_order_isomorphism(self) -> bool:
        if len(self.source) != len(self.target):
            return False
        if len(set(self.table.values())) != len(self.source):
            return False
        for x in self.source.elements:
            for y in self.source.elements:
                if self.source.leq(x, y) != self.target.leq(self.table[x], self.table[y]):
                    return False
        return True


# ---------------------------------------------------------------------------
# Rendering and JSON interchange


def render_element(space: Poset, elem: Element) -> str:
    """Deterministic human-readable form of an element of a constructed space."""
    if space.kind in ("exponential", "function_space") or (
            space.kind == "product" and "arg_space" in space.info):
        src = space.info["src"] if "src" in space.info else space.info["arg_space"]
        tgt = space.info["tgt"]
        parts = [f"{render_element(src, a)}->{render_element(tgt, elem[i])}"
                 for i, a in enumerate(src.elements)]
        return "{" + ", ".join(parts) + "}"
    if space.kind == "product":
        factors = space.info["factors"]
        labels = space.info.get("labels")
        if labels is not None:
            parts = [f"{labels[i]}={render_element(factors[i], elem[i])}"
                     for i in range(len(factors))]
        else:
            parts = [render_element(factors[i], elem[i]) for i in range(len(factors))]
        return "(" + ",".join(parts) + ")"
    if isinstance(elem, tuple):
        return "(" + ",".join(str(c) for c in elem) + ")"
    return str(elem)


def render_index(space: Poset) -> dict:
    """render -> element lookup; renderings are unique per space."""
    out = {}
    for e in space.elements:
        out[render_element(space, e)] = e
    return out


def poset_to_dict(p: Poset) -> dict:
    return {
        "elements": [render_element(p, e) if not isinstance(e, str) else e
                     for e in p.elements],
        "leq": [[render_element(p, a) if not isinstance(a, str) else a,
                 render_element(p, b) if not isinstance(b, str) else b]
                for a, b in p.relation_pairs()],
        "mode": "full",
    }


def poset_from_dict(data: Mapping) -> Poset:
    mode = RelationMode(data.get("mode", "full"))
    return validate_poset(data["elements"], [tuple(p) for p in data["leq"]], mode)


# ---------------------------------------------------------------------------
# Small named posets used throughout


def chain(names: Sequence[str]) -> Poset:
    pairs = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return validate_poset(names, pairs, RelationMode.COVERS)


def antichain(names: Sequence[str]) -> Poset:
    return validate_poset(names, [], RelationMode.COVERS)


def point(name: str = "*") -> Poset:
    return validate_poset([name], [], RelationMode.COVERS)
