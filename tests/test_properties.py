"""Cross-cutting invariants, including randomized relation input."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftkit import fixpoints, holog
from aftkit.enumeration import posets_up_to, subsets
from aftkit.errors import AftError, NotAntisymmetric
from aftkit.holog import (
    And,
    ComputeMode,
    FalseLit,
    Not,
    Or,
    TrueLit,
    analyze_model,
    compute_model,
    eval_expr,
    immediate_consequence,
    interpretation_space,
    interpretation_structure,
    parse_program,
    typecheck,
)
from aftkit.fixpoints import Approximator, Operator, lfp, well_founded
from aftkit.order import (
    Direction,
    RelationMode,
    bound,
    enumerate_monotone_tables,
    opposite,
    poset_from_dict,
    poset_to_dict,
    validate_poset,
)
from aftkit.systems import builtin_system
from aftkit.typesys import Base
from aftkit.holog import App, Const, Var

NAMES = ["a", "b", "c", "d", "e"]


@st.composite
def cover_relations(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    elems = NAMES[:n]
    pairs = [(x, y) for x in elems for y in elems if x != y]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    return elems, chosen


@settings(max_examples=200, deadline=None)
@given(cover_relations())
def test_validated_posets_are_closed_orders(data):
    elems, pairs = data
    try:
        p = validate_poset(elems, pairs, RelationMode.COVERS)
    except NotAntisymmetric:
        return
    # the stored relation is reflexive, antisymmetric, and its own closure
    for x in p.elements:
        assert p.leq(x, x)
    for x in p.elements:
        for y in p.elements:
            if x != y and p.leq(x, y):
                assert not p.leq(y, x)
            for z in p.elements:
                if p.leq(x, y) and p.leq(y, z):
                    assert p.leq(x, z)


@settings(max_examples=100, deadline=None)
@given(cover_relations())
def test_opposite_involution_and_bound_duality(data):
    elems, pairs = data
    try:
        p = validate_poset(elems, pairs, RelationMode.COVERS)
    except NotAntisymmetric:
        return
    assert opposite(opposite(p)).same_order_as(p)
    op = opposite(p)
    for sub in itertools.combinations(p.elements, min(2, len(p.elements))):
        assert bound(op, sub, Direction.GLB) == bound(p, sub, Direction.LUB)


@settings(max_examples=100, deadline=None)
@given(cover_relations())
def test_poset_json_round_trip_random(data):
    elems, pairs = data
    try:
        p = validate_poset(elems, pairs, RelationMode.COVERS)
    except NotAntisymmetric:
        return
    q = poset_from_dict(poset_to_dict(p))
    assert q.same_order_as(p)


def test_bound_extremality_up_to_five():
    for p in posets_up_to(5):
        for sub in subsets(p.elements):
            glb = bound(p, sub, Direction.GLB)
            if glb is not None:
                assert all(p.leq(glb, s) for s in sub)
                assert all(p.leq(c, glb) for c in p.elements
                           if all(p.leq(c, s) for s in sub))
            lub = bound(p, sub, Direction.LUB)
            if lub is not None:
                assert all(p.leq(s, lub) for s in sub)
                assert all(p.leq(lub, c) for c in p.elements
                           if all(p.leq(s, c) for s in sub))


def test_lfp_least_on_mid_sized_lattices():
    # every monotone operator on the 9-element square of the 3-chain
    from aftkit.bilat import make_bilattice
    from aftkit.order import chain

    space = make_bilattice(chain(["0", "1", "2"])).space
    count = 0
    for table in enumerate_monotone_tables(space, space):
        op = Operator(space, dict(zip(space.elements, table)))
        got = lfp(op)
        assert op(got) == got
        for e in space.elements:
            if op(e) == e:
                assert space.leq(got, e)
        count += 1
    # 175 monotone maps into each chain factor, paired: 175**2
    assert count == 30625


def test_eval_jointly_monotone_in_interpretation_and_environment():
    lu = builtin_system("lu-bool")
    tp = typecheck(parse_program("p : o -> o.\np(R) :- R.\n"))
    space = interpretation_space(tp, lu).space
    v = lu.app(Base("o")).space
    term = App(Const("p"), Var("R"))
    vals = {}
    for interp in space.elements:
        for r in v.elements:
            vals[(interp, r)] = eval_expr(term, interp, {"R": r}, tp, lu,
                                          env_types={"R": Base("o")})
    for (i1, r1), v1 in vals.items():
        for (i2, r2), v2 in vals.items():
            if space.leq(i1, i2) and v.leq(r1, r2):
                assert v.leq(v1, v2)


def test_consequence_operator_elements_monotone():
    lu = builtin_system("lu-bool")
    bb = builtin_system("bilat-bool")
    programs = [
        (lu, "p : o -> o.\np(R) :- R.\np(R) :- ~R, p(true).\n"),
        (bb, "p : o. q : o.\np :- ~q.\nq :- p, q.\n"),
        (lu, "n : o -> o.\nn(R) :- ~R.\n"),
    ]
    for system, text in programs:
        tp = typecheck(parse_program(text))
        op = immediate_consequence(tp, system)
        assert op.is_monotone()
        # per-symbol values live in their spaces, i.e. are monotone maps
        for interp in op.space.elements:
            out = op(interp)
            for i, (name, t) in enumerate(tp.signature):
                assert out[i] in system.app(t).space


def test_two_valued_projection_round_trip():
    lu = builtin_system("lu-bool")
    tp = typecheck(parse_program("p : o -> o.\np(R) :- R.\n"))
    model = compute_model(tp, lu, ComputeMode.KK)
    analysis = analyze_model(model, tp, lu)
    assert analysis.two_valued
    for s in analysis.symbols:
        rep = lu.least_exact_representative(s.type, s.projection)
        assert lu.project(s.type, rep) == s.projection


def test_negation_free_kk_models_exact_at_desk_scale():
    # definitional programs whose bodies avoid negation come out exact
    lu = builtin_system("lu-bool")
    programs = [
        "p : o. q : o.\np :- q.\n",
        "p : o -> o.\np(R) :- R.\n",
        "p : o. q : o.\np :- true.\nq :- p; q.\n",
    ]
    for text in programs:
        tp = typecheck(parse_program(text))
        model = compute_model(tp, lu, ComputeMode.KK)
        assert analyze_model(model, tp, lu).two_valued, text


# ---------------------------------------------------------------------------
# On-demand models against the tabulated operator


@pytest.fixture(scope="module")
def systems():
    return {name: builtin_system(name) for name in ("lu-bool", "bilat-bool")}


def _outcome(compute):
    """The computed value, or the class of the aftkit error it raised."""
    try:
        return compute()
    except AftError as exc:
        return type(exc)


def _tabulated_kk(tp, system):
    return lfp(immediate_consequence(tp, system))


def _tabulated_wf(tp, system):
    op = immediate_consequence(tp, system)
    return well_founded(Approximator(interpretation_structure(tp, system), op))


ATOMS = ("p", "q", "r", "s")


@st.composite
def o_programs(draw):
    """Programs of 1-4 symbols of type o; rule bodies mix negation,
    conjunction, disjunction, constants and declared atoms."""
    names = ATOMS[:draw(st.integers(min_value=1, max_value=len(ATOMS)))]
    leaves = st.sampled_from([Const(n) for n in names] + [TrueLit(), FalseLit()])
    bodies = st.recursive(
        leaves,
        lambda sub: st.one_of(sub.map(Not),
                              st.builds(And, sub, sub),
                              st.builds(Or, sub, sub)),
        max_leaves=4)
    rules = draw(st.lists(st.tuples(st.sampled_from(names), bodies), max_size=5))
    return ("".join(f"{n} : o.\n" for n in names)
            + "".join(f"{head} :- {body}.\n" for head, body in rules))


@settings(max_examples=80, deadline=None)
@given(o_programs(), st.sampled_from(["lu-bool", "bilat-bool"]))
def test_on_demand_models_equal_tabulated(systems, text, system_name):
    system = systems[system_name]
    tp = typecheck(parse_program(text))
    for mode, oracle in ((ComputeMode.KK, _tabulated_kk),
                         (ComputeMode.WF, _tabulated_wf)):
        expected = _outcome(lambda: oracle(tp, system))
        got = _outcome(lambda: compute_model(tp, system, mode))
        assert got == expected, (mode, text)


IDENT_PROG = "p : o -> o.\np(R) :- R.\n"
SECOND_ORDER_PROG = ("q : o -> o.\np : (o -> o) -> o.\n"
                     "q(R) :- ~R.\np(Q) :- Q(true), ~Q(false).\n")


@pytest.mark.parametrize("text", [IDENT_PROG, SECOND_ORDER_PROG])
def test_on_demand_higher_order_kk_equals_tabulated(systems, text):
    lu = systems["lu-bool"]
    tp = typecheck(parse_program(text))
    assert compute_model(tp, lu, ComputeMode.KK) == _tabulated_kk(tp, lu)


@pytest.mark.parametrize("system_name", ["lu-bool", "bilat-bool"])
def test_on_demand_identity_wf_fails_like_tabulated(systems, system_name):
    system = systems[system_name]
    tp = typecheck(parse_program(IDENT_PROG))
    expected = _outcome(lambda: _tabulated_wf(tp, system))
    assert isinstance(expected, type) and issubclass(expected, AftError)
    got = _outcome(lambda: compute_model(tp, system, ComputeMode.WF,
                                         experimental_lu_stable=True))
    assert got is expected


def test_models_never_tabulate_the_interpretation_space(systems, monkeypatch):
    # 4**200 interpretations: building the product, the operator table or
    # the exhaustive monotonicity check would never finish
    def refuse(*args, **kwargs):
        raise AssertionError("the interpretation space was tabulated")

    monkeypatch.setattr(holog, "immediate_consequence", refuse)
    monkeypatch.setattr(holog, "interpretation_space", refuse)
    monkeypatch.setattr(fixpoints.Operator, "is_monotone", refuse)
    n = 200
    text = ("".join(f"p{i} : o.\n" for i in range(n))
            + "".join(f"p{i} :- ~p{i + 1}.\n" for i in range(n - 1)))
    tp = typecheck(parse_program(text))
    # the last atom has no rule, so the atoms alternate false/true from it
    expected = tuple(("t", "t") if (n - 1 - i) % 2 else ("f", "f")
                     for i in range(n))
    bb = systems["bilat-bool"]
    for mode in (ComputeMode.KK, ComputeMode.WF):
        assert compute_model(tp, bb, mode) == expected, mode
