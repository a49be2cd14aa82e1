import itertools

import pytest

from aftkit.enumeration import chain_subsets, posets_up_to, subsets
from aftkit.errors import (
    DuplicateElement,
    InvalidSetting,
    NotAntisymmetric,
    NotReflexive,
    NotTransitive,
    SizeCapExceeded,
    UnknownElement,
)
from aftkit.order import (
    Direction,
    MonotoneMap,
    ProductOrder,
    RelationMode,
    antichain,
    apply_fn,
    bound,
    chain,
    classify,
    exponential,
    function_space,
    opposite,
    point,
    poset_from_dict,
    poset_to_dict,
    product,
    projection_map,
    render_element,
    validate_poset,
)

COVERS = RelationMode.COVERS
FULL = RelationMode.FULL


def vee():
    """Three-element poset with bottom U below incomparable T and F."""
    return validate_poset(["U", "T", "F"], [("U", "T"), ("U", "F")], COVERS)


# ---------------------------------------------------------------------------
# validate_poset


def test_two_chain_from_covers():
    p = validate_poset(["a", "b"], [("a", "b")], COVERS)
    assert p.leq("a", "b")
    assert not p.leq("b", "a")
    assert p.leq("a", "a") and p.leq("b", "b")


def test_two_cycle_rejected():
    with pytest.raises(NotAntisymmetric):
        validate_poset(["a", "b"], [("a", "b"), ("b", "a")], COVERS)


def test_one_point_full():
    p = validate_poset(["a"], [("a", "a")], FULL)
    assert len(p) == 1


def test_full_mode_requires_reflexivity():
    with pytest.raises(NotReflexive):
        validate_poset(["a", "b"], [("a", "b"), ("a", "a")], FULL)


def test_full_mode_requires_transitivity():
    rel = [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]
    with pytest.raises(NotTransitive):
        validate_poset(["a", "b", "c"], rel, FULL)


def test_duplicate_and_unknown_elements():
    with pytest.raises(DuplicateElement):
        validate_poset(["a", "a"], [], COVERS)
    with pytest.raises(UnknownElement):
        validate_poset(["a"], [("a", "b")], COVERS)


def test_covers_closure_is_transitive():
    p = chain(["a", "b", "c"])
    assert p.leq("a", "c")


def test_empty_poset_allowed():
    p = validate_poset([], [], COVERS)
    assert len(p) == 0
    c = classify(p)
    assert not c.is_cpo and not c.has_bottom


# ---------------------------------------------------------------------------
# bound


def test_bound_two_chain():
    p = chain(["a", "b"])
    assert bound(p, ["a", "b"], Direction.LUB) == "b"
    assert bound(p, ["a", "b"], Direction.GLB) == "a"


def test_bound_vee_glb_and_absent_lub():
    p = vee()
    assert bound(p, ["T", "F"], Direction.GLB) == "U"
    assert bound(p, ["T", "F"], Direction.LUB) is None


def test_bound_unknown_element():
    with pytest.raises(UnknownElement):
        bound(vee(), ["X"], Direction.GLB)


def test_bound_properties_small_posets():
    # glb is a lower bound and dominates every other lower bound; dually for
    # lub -- checked across every subset of every poset with <= 4 elements.
    for p in posets_up_to(4):
        for sub in subsets(p.elements):
            glb = bound(p, sub, Direction.GLB)
            if glb is not None:
                assert all(p.leq(glb, s) for s in sub)
                for cand in p.elements:
                    if all(p.leq(cand, s) for s in sub):
                        assert p.leq(cand, glb)
            lub = bound(p, sub, Direction.LUB)
            if lub is not None:
                assert all(p.leq(s, lub) for s in sub)
                for cand in p.elements:
                    if all(p.leq(s, cand) for s in sub):
                        assert p.leq(lub, cand)


# ---------------------------------------------------------------------------
# classify


def test_powerset_is_complete_lattice():
    elems = ["{}", "{1}", "{2}", "{1,2}"]
    rel = [("{}", "{1}"), ("{}", "{2}"), ("{1}", "{1,2}"), ("{2}", "{1,2}")]
    c = classify(validate_poset(elems, rel, COVERS))
    assert c.is_complete_lattice and c.is_complete_join_semilattice
    assert c.is_cpo and c.has_bottom and c.has_top


def test_vee_is_cpo_not_lattice():
    c = classify(vee())
    assert c.is_cpo
    assert not c.is_complete_lattice
    assert not c.is_complete_join_semilattice


def test_antichain_not_cpo():
    c = classify(antichain(["a", "b"]))
    assert not c.is_cpo and not c.has_bottom


def test_classify_exhaustive_matches_theorems():
    # Independent oracle: literal subset/chain enumeration, compared with the
    # shipped classifier on every poset with <= 5 elements.
    for p in posets_up_to(5):
        got = classify(p)
        all_lub = all(bound(p, s, Direction.LUB) is not None for s in subsets(p.elements))
        all_glb = all(bound(p, s, Direction.GLB) is not None for s in subsets(p.elements))
        chains_ok = all(bound(p, c, Direction.LUB) is not None for c in chain_subsets(p))
        assert got.is_complete_join_semilattice == all_lub
        assert got.is_complete_lattice == (all_lub and all_glb)
        assert got.is_cpo == chains_ok


# ---------------------------------------------------------------------------
# opposite


def test_opposite_reverses_and_involutes():
    p = chain(["a", "b"])
    op = opposite(p)
    assert op.leq("b", "a") and not op.leq("a", "b")
    opop = opposite(op)
    assert opop.same_order_as(p)
    a = antichain(["x", "y"])
    assert opposite(a).same_order_as(a)


def test_opposite_swaps_bounds():
    for p in posets_up_to(4):
        op = opposite(p)
        for sub in subsets(p.elements):
            assert bound(op, sub, Direction.GLB) == bound(p, sub, Direction.LUB)
            assert bound(op, sub, Direction.LUB) == bound(p, sub, Direction.GLB)


# ---------------------------------------------------------------------------
# product


def test_empty_product_is_terminal():
    t = product([])
    assert len(t) == 1
    assert t.elements == ((),)


def test_product_of_chains():
    p = product([chain(["f", "t"]), chain(["f", "t"])])
    assert len(p) == 4
    assert bound(p, p.elements, Direction.GLB) == ("f", "f")
    assert not p.leq(("f", "t"), ("t", "f"))
    assert not p.leq(("t", "f"), ("f", "t"))


def test_product_vee_squared():
    assert len(product([vee(), vee()])) == 9


def test_projections_monotone():
    p = product([chain(["0", "1"]), vee()])
    for i in range(2):
        projection_map(p, i)  # construction validates monotonicity


def test_product_cap():
    big = antichain([str(i) for i in range(400)])
    with pytest.raises(SizeCapExceeded):
        product([big, big])


def test_product_order_agrees_with_product():
    factors = [chain(["0", "1", "2"]), vee()]
    p = product(factors)
    po = ProductOrder(factors)
    for x, y in itertools.product(p.elements, repeat=2):
        assert po.leq(x, y) == p.leq(x, y)
    assert po.has_bottom() and po.bottom() == p.bottom()
    assert po.index(("1", "T")) == (1, 1)
    assert not ProductOrder([vee(), antichain(["a", "b"])]).has_bottom()


def test_product_order_rejects_foreign_elements():
    po = ProductOrder([chain(["0", "1"]), vee()])
    for foreign in [("0",), ("0", "T", "T"), ("0", "X"), "0T"]:
        with pytest.raises(UnknownElement):
            po.index(foreign)


def test_product_order_lists_nothing():
    # 400**3 tuples: only the factors are built
    big = chain([str(i) for i in range(400)])
    po = ProductOrder([big, big, big])
    assert po.leq(("0", "5", "7"), ("1", "5", "399"))
    assert not po.leq(("2", "5", "7"), ("1", "5", "399"))
    assert po.chain_bound() >= 3 * 399


# ---------------------------------------------------------------------------
# exponential and function space


def test_exponential_two_chain():
    c2 = chain(["f", "t"])
    e = exponential(c2, c2)
    assert len(e) == 3  # const-f, identity, const-t
    tables = set(e.elements)
    assert ("f", "f") in tables and ("f", "t") in tables and ("t", "t") in tables
    assert ("t", "f") not in tables


def test_exponential_vee_eleven():
    e = exponential(vee(), vee())
    assert len(e) == 11
    # independent oracle: filter-all enumeration
    v = vee()
    brute = [t for t in itertools.product(v.elements, repeat=3)
             if v.leq(t[0], t[1]) and v.leq(t[0], t[2])]
    assert len(brute) == 11
    assert set(brute) == set(e.elements)


def test_exponential_from_point():
    p = vee()
    e = exponential(point(), p)
    assert len(e) == len(p)


def test_function_space_two_chain():
    c2 = chain(["f", "t"])
    fs = function_space(c2, c2)
    assert len(fs) == 4
    assert ("t", "f") in set(fs.elements)  # the non-monotone swap


def test_function_space_to_point():
    fs = function_space(vee(), point())
    assert len(fs) == 1


def test_apply_fn():
    c2 = chain(["f", "t"])
    e = exponential(c2, c2)
    ident = ("f", "t")
    assert apply_fn(e, ident, "f") == "f"
    assert apply_fn(e, ident, "t") == "t"


def test_exponential_ev_monotone_in_product_order():
    c2 = chain(["f", "t"])
    e = exponential(c2, c2)
    prod = product([e, c2])
    for (f, x) in prod.elements:
        for (g, y) in prod.elements:
            if prod.leq((f, x), (g, y)):
                assert c2.leq(apply_fn(e, f, x), apply_fn(e, g, y))


def test_exponential_cap():
    big = antichain([str(i) for i in range(30)])
    with pytest.raises(SizeCapExceeded):
        exponential(big, big)


# ---------------------------------------------------------------------------
# MonotoneMap


def test_monotone_map_validates():
    c2 = chain(["f", "t"])
    with pytest.raises(Exception):
        MonotoneMap(c2, c2, {"f": "t", "t": "f"})
    m = MonotoneMap(c2, c2, {"f": "f", "t": "t"})
    assert m("f") == "f"
    assert m.compose(MonotoneMap.identity(c2)) == m


# ---------------------------------------------------------------------------
# JSON round trip


def test_poset_json_round_trip():
    p = vee()
    d = poset_to_dict(p)
    assert d["mode"] == "full"
    q = poset_from_dict(d)
    assert q.elements == p.elements
    assert set(map(tuple, d["leq"])) == set(p.relation_pairs())


def test_render_element_pairs():
    p = product([chain(["f", "t"]), chain(["f", "t"])])
    assert render_element(p, ("f", "t")) == "(f,t)"


def test_size_cap_env_override(monkeypatch):
    monkeypatch.setenv("AFT_SIZE_CAP", "5")
    with pytest.raises(SizeCapExceeded):
        exponential(antichain(["a", "b", "c"]), antichain(["x", "y", "z"]))
    for bad in ("not-a-number", "-1"):
        monkeypatch.setenv("AFT_SIZE_CAP", bad)
        with pytest.raises(InvalidSetting):
            exponential(chain(["a", "b"]), chain(["x", "y"]))
