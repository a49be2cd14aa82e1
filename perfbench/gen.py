"""Seeded inputs of the benchmark workloads.

Programs are built as term tuples (see ``oracle``) and rendered to ``.hl``
text; aftkit only ever sees the rendered files. Everything here is a pure
function of the seed, so one seed always gives byte-identical programs.
"""

from __future__ import annotations

import itertools
import random

from oracle import split_arrow

SYSTEMS = ("bilat-bool", "lu-bool")
MODES = ("kk", "wf")
# lu-bool in wf raises InconsistentRevision on most programs with negation, a
# known defect; model-prop leaves that class out and the traced run probes it.
KNOWN_DEFECT = ("lu-bool", "wf")
PROP_CLASSES = tuple((system, mode) for system in SYSTEMS for mode in MODES
                     if (system, mode) != KNOWN_DEFECT)
LAW_SUITES = ("ccc", "bilat", "lu", "approx")

# Atoms per program in one model-prop round. Cost follows the size of the
# interpretation space, 4^N under bilat-bool and 3^N under lu-bool. A random
# 6-atom program costs 1-3 s under bilat-bool, so a run would hold only a few
# and their mix would set its figures; 6 atoms are measured by the fixed chain
# rows instead, and rounds stop at 5 atoms so a run holds hundreds of programs.
# Four 4-atom programs per round put the median op inside the 4-atom bilat-bool
# cost cluster instead of on the edge between two clusters, where it would jump.
PROP_ROUND_ATOMS = (3, 4, 4, 4, 4, 5, 5)
PROP_SHAPES = ("chain", "cycle", "random", "random")


def render_term(term) -> str:
    tag = term[0]
    if tag in ("true", "false"):
        return tag
    if tag in ("sym", "var"):
        return term[1]
    if tag == "not":
        return "~" + _render_operand(term[1])
    if tag == "and":
        return f"{_render_operand(term[1])}, {_render_operand(term[2])}"
    if tag == "or":
        return f"{_render_operand(term[1])} ; {_render_operand(term[2])}"
    if tag == "app":
        return f"{term[1][1]}({_render_operand(term[2])})"
    raise ValueError(f"not a term: {term!r}")


def _render_operand(term) -> str:
    text = render_term(term)
    return f"({text})" if term[0] in ("and", "or") else text


def render_program(program) -> str:
    signature, rules = program
    lines = [f"{name} : {type_text}." for name, type_text in signature]
    for head, params, body in rules:
        args = f"({', '.join(params)})" if params else ""
        lines.append(f"{head}{args} :- {render_term(body)}.")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Propositional programs


def chain_program(n: int):
    """The negation chain p_i :- ~p_{i+1}; the last atom has no rule."""
    names = [f"p{i}" for i in range(n)]
    rules = [(names[i], (), ("not", ("sym", names[i + 1]))) for i in range(n - 1)]
    return [(name, "o") for name in names], rules


def _literal(rng, names):
    atom = ("sym", rng.choice(names))
    return ("not", atom) if rng.random() < 0.5 else atom


def _random_body(rng, names, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        if rng.random() < 0.08:
            return (rng.choice(("true", "false")),)
        return _literal(rng, names)
    if roll < 0.45:
        return ("not", _random_body(rng, names, depth - 1))
    op = "and" if roll < 0.75 else "or"
    return (op, _random_body(rng, names, depth - 1), _random_body(rng, names, depth - 1))


def prop_program(rng, n: int, shape: str):
    """One seeded propositional program over n atoms of type o."""
    names = [f"p{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    rules = []
    if shape == "chain":
        for i in range(n - 1):
            rules.append((order[i], (), ("not", ("sym", order[i + 1]))))
    elif shape == "cycle":
        for i in range(n):
            target = ("sym", order[(i + 1) % n])
            rules.append((order[i], (), ("not", target) if rng.random() < 0.5 else target))
    else:
        for name in names:
            for _ in range(rng.choice((0, 1, 1, 2))):
                rules.append((name, (), _random_body(rng, names, 2)))
    rules.sort(key=lambda r: names.index(r[0]))
    return [(name, "o") for name in names], rules


def _distinct(rng, seen, make, fallback=None):
    """A program not in ``seen``. Small shapes run out of distinct programs
    (a 3-atom chain has only 6), so after a few repeats ``fallback`` is used."""
    for attempt in itertools.count():
        program = (make if attempt < 8 or fallback is None else fallback)(rng)
        text = render_program(program)
        if text not in seen:
            seen.add(text)
            return program


def prop_rounds(seed: int):
    """Endless rounds of distinct seeded programs, one per entry of
    ``PROP_ROUND_ATOMS``; no program repeats within a run."""
    rng = random.Random(f"model-prop/{seed}")
    seen = {render_program(chain_program(n)) for n in (4, 5, 6)}
    r = 0
    while True:
        yield [_distinct(rng, seen,
                         lambda g: prop_program(g, n, PROP_SHAPES[(r + k) % len(PROP_SHAPES)]),
                         lambda g: prop_program(g, n, "random"))
               for k, n in enumerate(PROP_ROUND_ATOMS)]
        r += 1


# ---------------------------------------------------------------------------
# Higher-order programs (non-recursive: rules mention only earlier symbols)

IDENTITY = ([("p", "o -> o")], [("p", ("R",), ("var", "R"))])

SECOND_ORDER = (
    [("q", "o -> o"), ("p", "(o -> o) -> o")],
    [("q", ("R",), ("not", ("var", "R"))),
     ("p", ("Q",), ("and", ("app", ("var", "Q"), ("true",)),
                    ("not", ("app", ("var", "Q"), ("false",)))))],
)


def _ho_body(rng, earlier, param, param_type, depth):
    """A body of type o over the parameter and earlier symbols."""
    atoms = [("true",), ("false",)]
    atoms += [("sym", n) for n, t in earlier if t == "o"]
    if param_type == "o":
        atoms += [("var", param)] * 3
    fns = [("sym", n) for n, t in earlier if t == "o -> o"]
    if param_type == "o -> o":
        fns += [("var", param)] * 2
    second = [("sym", n) for n, t in earlier if t == "(o -> o) -> o"]

    def atom(d):
        roll = rng.random()
        if fns and roll < 0.4:
            return ("app", rng.choice(fns), atom_or_neg(d - 1) if d > 0 else rng.choice(atoms))
        if second and roll < 0.55:
            choices = [f for f in fns if f[0] == "sym"]
            if param_type == "o -> o":
                choices.append(("var", param))
            if choices:
                return ("app", rng.choice(second), rng.choice(choices))
        return rng.choice(atoms)

    def atom_or_neg(d):
        a = atom(d)
        return ("not", a) if rng.random() < 0.4 else a

    def body(d):
        roll = rng.random()
        if d == 0 or roll < 0.4:
            return atom_or_neg(d)
        op = "and" if roll < 0.7 else "or"
        return (op, body(d - 1), body(d - 1))

    return body(depth)


def ho_program(rng, types):
    """A program declaring one symbol per entry of ``types`` in order."""
    signature, rules = [], []
    for i, type_text in enumerate(types):
        name = f"s{i}"
        parts = split_arrow(type_text)
        param = None if parts is None else ("R" if parts[0] == "o" else "Q")
        param_type = None if parts is None else ("o" if parts[0] == "o" else "o -> o")
        for _ in range(rng.choice((1, 1, 2))):
            body = _ho_body(rng, signature, param, param_type, 2)
            rules.append((name, (param,) if param else (), body))
        signature.append((name, type_text))
    return signature, rules


# Symbol types per model-ho program kind, with the systems each runs under.
# (o -> o) -> o runs under lu-bool only: bilat-bool refuses it at the size cap.
HO_KINDS = (
    (("o -> o",), SYSTEMS),
    (("o", "o -> o"), SYSTEMS),
    (("o -> o", "o -> o"), SYSTEMS),
    (("o", "o -> o", "o -> o"), ("lu-bool",)),
    (("(o -> o) -> o",), ("lu-bool",)),
    (("o", "(o -> o) -> o"), ("lu-bool",)),
)

SPACE_QUERIES = [(system, t, show)
                 for system in SYSTEMS
                 for t in ("o", "o -> o", "(o -> o) -> o")
                 for show in ("exact", "consistent")
                 if not (system == "bilat-bool" and t == "(o -> o) -> o")]


def ho_rounds(seed: int):
    """Endless rounds of distinct seeded (program, systems) pairs, one per
    entry of ``HO_KINDS``."""
    rng = random.Random(f"model-ho/{seed}")
    seen = {render_program(IDENTITY), render_program(SECOND_ORDER)}
    while True:
        yield [(_distinct(rng, seen, lambda g: ho_program(g, types)), systems)
               for types, systems in HO_KINDS]
