import pytest

from aftkit.bilat import make_bilattice
from aftkit.errors import InternalLawFailure, NoBottom, NotMonotone, UnknownElement
from aftkit.fixpoints import (
    Approximator,
    Operator,
    PairProduct,
    PairStructure,
    alternating_fixpoint,
    check_approximator,
    kleene_chain,
    kripke_kleene,
    lfp,
    stable_fixpoints,
    stable_revision,
    supported_fixpoints,
    well_founded,
)
from aftkit.order import antichain, chain, product


def two_chain():
    return chain(["f", "t"])


def neg(v):
    return "t" if v == "f" else "f"


def fitting_structure(n_atoms):
    """Interpretation pair space for n propositional atoms over the square
    bilattice flavor."""
    base = two_chain()
    b = make_bilattice(base)
    per_atom = PairStructure.square(base, b.space)
    space = product([b.space] * n_atoms)
    return PairStructure.componentwise([per_atom] * n_atoms, space)


def fitting_operator(structure, rules):
    """rules: per-atom body evaluator taking the tuple of atom pairs."""
    table = {}
    for e in structure.space.elements:
        table[e] = tuple(rule(e) for rule in rules)
    return Operator(structure.space, table)


def negation_of(pair):
    l, u = pair
    return (neg(u), neg(l))


FALSE = ("f", "f")


# {p <- ~q}, q has no rules
def op_p_not_q(structure):
    return fitting_operator(structure, [lambda e: negation_of(e[1]),
                                        lambda e: FALSE])


# {p <- p}
def op_p_p(structure):
    return fitting_operator(structure, [lambda e: e[0]])


# {p <- ~p}
def op_p_not_p(structure):
    return fitting_operator(structure, [lambda e: negation_of(e[0])])


# ---------------------------------------------------------------------------
# lfp


def test_lfp_constant():
    c2 = two_chain()
    op = Operator(c2, {"f": "t", "t": "t"})
    assert lfp(op) == "t"


def test_lfp_identity_is_bottom():
    c2 = two_chain()
    assert lfp(Operator(c2, {"f": "f", "t": "t"})) == "f"


def test_lfp_requires_bottom():
    op = Operator(antichain(["a", "b"]), {"a": "a", "b": "b"})
    with pytest.raises(NoBottom):
        lfp(op)


def test_lfp_requires_monotone():
    c2 = two_chain()
    with pytest.raises(NotMonotone):
        lfp(Operator(c2, {"f": "t", "t": "f"}))


def test_lfp_least_among_fixpoints_small():
    # cross-check against exhaustive fixpoint enumeration for every monotone
    # operator on the 4-element diamond
    from aftkit.order import enumerate_monotone_tables

    d = make_bilattice(two_chain()).space
    for table in enumerate_monotone_tables(d, d):
        op = Operator(d, dict(zip(d.elements, table)))
        got = lfp(op)
        fixpoints = [e for e in d.elements if op(e) == e]
        assert got in fixpoints
        assert all(d.leq(got, e) for e in fixpoints)


def test_lfp_fitting_p_not_q():
    s = fitting_structure(2)
    op = op_p_not_q(s)
    assert lfp(op) == (("t", "t"), ("f", "f"))


# ---------------------------------------------------------------------------
# approximator checks


def test_check_identity_approximator():
    base = two_chain()
    b = make_bilattice(base)
    s = PairStructure.square(base, b.space)
    op = Operator(b.space, {e: e for e in b.space.elements})
    o_op = Operator(base, {"f": "f", "t": "t"})
    rep = check_approximator(s, op, o_op)
    assert rep.monotone and rep.symmetric and rep.approximates


def test_check_asymmetric_approximator():
    base = two_chain()
    b = make_bilattice(base)
    s = PairStructure.square(base, b.space)
    op = Operator(b.space, {(x, y): (x, "t") for (x, y) in b.space.elements})
    rep = check_approximator(s, op)
    assert rep.monotone
    assert not rep.symmetric


def test_fitting_approximates_two_valued_consequence():
    s = fitting_structure(2)
    op = op_p_not_q(s)
    # classical immediate consequence of {p <- ~q} on interpretations
    two_val = Operator(s.lower, {
        (p, q): (neg(q), "f") for (p, q) in s.lower.elements})
    rep = check_approximator(s, op, two_val)
    assert rep.symmetric and rep.approximates


# ---------------------------------------------------------------------------
# the four families


def test_kripke_kleene_examples():
    s1 = fitting_structure(1)
    assert kripke_kleene(Approximator(s1, op_p_p(s1))) == (("f", "t"),)
    assert kripke_kleene(Approximator(s1, op_p_not_p(s1))) == (("f", "t"),)
    s2 = fitting_structure(2)
    assert kripke_kleene(Approximator(s2, op_p_not_q(s2))) == \
        (("t", "t"), ("f", "f"))


def test_supported_fixpoints_examples():
    s = fitting_structure(1)
    assert supported_fixpoints(Approximator(s, op_p_p(s))) == [("f",), ("t",)]
    assert supported_fixpoints(Approximator(s, op_p_not_p(s))) == []
    const_bottom = Operator(s.space, {e: (("f", "t"),) for e in s.space.elements})
    # constant most-unknown approximator supports only the bottom state
    assert supported_fixpoints(Approximator(s, const_bottom)) == [("f",)]


def test_stable_examples():
    s = fitting_structure(1)
    a = Approximator(s, op_p_p(s))
    assert stable_revision(a, ("t",)) == ("f",)
    assert stable_revision(a, ("f",)) == ("f",)
    assert stable_fixpoints(a) == [("f",)]
    s2 = fitting_structure(2)
    a2 = Approximator(s2, op_p_not_q(s2))
    assert stable_fixpoints(a2) == [("t", "f")]


def test_well_founded_examples():
    s = fitting_structure(1)
    assert well_founded(Approximator(s, op_p_not_p(s))) == (("f", "t"),)
    assert well_founded(Approximator(s, op_p_p(s))) == (("f", "f"),)
    s2 = fitting_structure(2)
    assert well_founded(Approximator(s2, op_p_not_q(s2))) == \
        (("t", "t"), ("f", "f"))


def brute_force_well_founded(a):
    """Least pair (x, y) with S_A(y) = x and S_A(x) = y, by enumeration."""
    sp = a.structure.space
    candidates = []
    for e in sp.elements:
        x, y = a.structure.split(e)
        if stable_revision(a, y) == x and stable_revision(a, x) == y:
            candidates.append(e)
    least = [e for e in candidates
             if all(sp.leq(e, other) for other in candidates)]
    assert len(least) == 1
    return least[0]


def test_well_founded_matches_oracle():
    for make_op in (op_p_p, op_p_not_p):
        s = fitting_structure(1)
        a = Approximator(s, make_op(s))
        assert well_founded(a) == brute_force_well_founded(a)
    s2 = fitting_structure(2)
    a2 = Approximator(s2, op_p_not_q(s2))
    assert well_founded(a2) == brute_force_well_founded(a2)


def test_alternating_fixpoint_matches_well_founded():
    base = two_chain()
    per_atom = PairStructure.square(base, make_bilattice(base).space)
    for n, make_op in ((1, op_p_p), (1, op_p_not_p), (2, op_p_not_q)):
        s = fitting_structure(n)
        op = make_op(s)
        expected = well_founded(Approximator(s, op))
        assert alternating_fixpoint(Approximator(s, op)) == expected
        # the same chain on the structure that never lists the product
        on_demand = Approximator.unchecked(PairProduct([per_atom] * n), op)
        assert alternating_fixpoint(on_demand) == expected


def test_pair_product_agrees_with_componentwise():
    base = two_chain()
    per_atom = PairStructure.square(base, make_bilattice(base).space)
    s = fitting_structure(2)
    pp = PairProduct([per_atom, per_atom])
    for e in s.space.elements:
        x, y = s.split(e)
        assert pp.split(e) == (x, y)
        assert pp.merge(x, y) == e
    for x in s.lower.elements:
        for y in s.upper.elements:
            assert pp.has_pair(x, y) == s.has_pair(x, y)
    assert pp.lower.bottom() == s.lower.bottom()


# ---------------------------------------------------------------------------
# Kleene chains


def test_kleene_chain_stops_at_first_fixpoint():
    c3 = chain(["a", "b", "c"])
    step = {"a": "b", "b": "c", "c": "c"}.get
    assert kleene_chain(step, "a", c3.leq, c3.chain_bound()) == "c"
    assert kleene_chain(step, "b", c3.leq, c3.chain_bound()) == "c"


def test_kleene_chain_rejects_descent():
    c2 = two_chain()
    with pytest.raises(NotMonotone):
        kleene_chain({"f": "t", "t": "f"}.get, "f", c2.leq, c2.chain_bound())


def test_kleene_chain_stops_past_bound():
    c3 = chain(["a", "b", "c"])
    step = {"a": "b", "b": "c", "c": "c"}.get
    with pytest.raises(InternalLawFailure):
        kleene_chain(step, "a", c3.leq, 1)


def test_kk_below_every_fixpoint():
    s = fitting_structure(1)
    for make_op in (op_p_p, op_p_not_p):
        a = Approximator(s, make_op(s))
        kk = kripke_kleene(a)
        for e in s.space.elements:
            if a.op(e) == e:
                assert s.space.leq(kk, e)


def test_stable_subset_supported_for_symmetric():
    s = fitting_structure(2)
    a = Approximator(s, op_p_not_q(s))
    assert set(stable_fixpoints(a)) <= set(supported_fixpoints(a))


def test_exact_kk_diagonal_is_supported():
    s2 = fitting_structure(2)
    a = Approximator(s2, op_p_not_q(s2))
    kk = kripke_kleene(a)
    x, y = s2.split(kk)
    assert x == y  # this model is exact
    assert x in supported_fixpoints(a)


def test_stable_revision_rejects_foreign_argument():
    s = fitting_structure(1)
    a = Approximator(s, op_p_p(s))
    with pytest.raises(UnknownElement):
        stable_revision(a, ("x",))


def test_operator_json_round_trip():
    from aftkit.fixpoints import operator_from_dict, operator_to_dict

    s = fitting_structure(1)
    op = op_p_not_p(s)
    doc = operator_to_dict(op)
    back = operator_from_dict(doc, space=s.space)
    assert back.table == op.table
    # and through the serialized poset copy, where elements become names
    named = operator_from_dict(doc)
    assert len(named.space) == len(op.space)
