"""References for every benchmark op, computed without aftkit.

Terms are tuples: ``("true",)``, ``("false",)``, ``("sym", name)``,
``("var", name)``, ``("not", t)``, ``("and", a, b)``, ``("or", a, b)`` and
``("app", fn, arg)``. A program is ``(signature, rules)`` with
``signature = [(name, type_text), ...]`` and ``rules = [(head, params, body)]``.

Truth values of the approximation spaces are pairs ``(lower, upper)`` of
booleans: ``(False, True)`` is unknown, ``(True, False)`` is the inconsistent
value that only the bilattice system has. The precision order is
``(l1, u1) <= (l2, u2)`` iff ``l1 <= l2`` and ``u2 <= u1``.
"""

from __future__ import annotations

import itertools

UNKNOWN = (False, True)
FALSE = (False, False)
TRUE = (True, True)

# Known summary lines of `aftkit laws --suite <s>` at the default size.
LAWS_SUMMARY = {
    "ccc": "ccc: 76 passed, 0 failed, 0 skipped",
    "bilat": "bilat: 131 passed, 0 failed, 73 skipped",
    "lu": "lu: 7 passed, 0 failed, 0 skipped",
    "approx": "approx: 23 passed, 0 failed, 1 skipped",
}


# ---------------------------------------------------------------------------
# Pair logic


def p_not(v):
    return (not v[1], not v[0])


def p_and(a, b):
    return (a[0] and b[0], a[1] and b[1])


def p_or(a, b):
    return (a[0] or b[0], a[1] or b[1])


def prec_leq(a, b) -> bool:
    return a[0] <= b[0] and b[1] <= a[1]


def render_pair(v) -> str:
    return f"({'t' if v[0] else 'f'},{'t' if v[1] else 'f'})"


# ---------------------------------------------------------------------------
# Propositional programs: Kripke-Kleene and well-founded models


def _eval_prop(term, interp):
    tag = term[0]
    if tag == "true":
        return TRUE
    if tag == "false":
        return FALSE
    if tag == "sym":
        return interp[term[1]]
    if tag == "not":
        return p_not(_eval_prop(term[1], interp))
    if tag == "and":
        return p_and(_eval_prop(term[1], interp), _eval_prop(term[2], interp))
    if tag == "or":
        return p_or(_eval_prop(term[1], interp), _eval_prop(term[2], interp))
    raise ValueError(f"not a propositional term: {term!r}")


def _consequence(rules, names, interp):
    out = dict.fromkeys(names, FALSE)
    for head, _, body in rules:
        out[head] = p_or(out[head], _eval_prop(body, interp))
    return out


def kripke_kleene(program) -> dict:
    """Fitting iteration from the all-unknown interpretation."""
    signature, rules = program
    names = [n for n, _ in signature]
    interp = dict.fromkeys(names, UNKNOWN)
    while True:
        nxt = _consequence(rules, names, interp)
        if nxt == interp:
            return interp
        interp = nxt


def _stable_lower(rules, names, upper) -> dict:
    """Least x with x = lower part of the consequence of (x, upper)."""
    x = dict.fromkeys(names, False)
    while True:
        pair = {n: (x[n], upper[n]) for n in names}
        nxt = {n: v[0] for n, v in _consequence(rules, names, pair).items()}
        if nxt == x:
            return x
        x = nxt


def well_founded(program) -> dict:
    """Alternating fixpoint from (all false, all true)."""
    signature, rules = program
    names = [n for n, _ in signature]
    lower = dict.fromkeys(names, False)
    upper = dict.fromkeys(names, True)
    while True:
        nxt_lower = _stable_lower(rules, names, upper)
        nxt_upper = _stable_lower(rules, names, lower)
        if (nxt_lower, nxt_upper) == (lower, upper):
            return {n: (lower[n], upper[n]) for n in names}
        lower, upper = nxt_lower, nxt_upper


def prop_model_doc(program, mode: str) -> dict:
    """The document `aftkit model --json` prints for a propositional program."""
    model = kripke_kleene(program) if mode == "kk" else well_founded(program)
    doc = {}
    for name, _ in program[0]:
        v = model[name]
        exact = v[0] == v[1]
        doc[name] = {"type": "o", "value": render_pair(v), "exact": exact,
                     "projection": ("t" if v[0] else "f") if exact else None}
    return doc


# ---------------------------------------------------------------------------
# Approximation spaces of the builtin boolean systems


class Space:
    """Elements of one approximation space in canonical order, with the
    precision order, exact elements and rendering."""

    def __init__(self, elements, leq, exact, render):
        self.elements = elements
        self.leq = leq
        self.exact = exact
        self.render = render
        self.index = {e: i for i, e in enumerate(elements)}

    def consistent(self, c) -> bool:
        return any(self.leq(c, e) for e in self.exact)


def base_space(system: str) -> Space:
    values = [FALSE, UNKNOWN, TRUE]
    if system == "bilat-bool":
        values.insert(2, (True, False))
    return Space(values, prec_leq, [FALSE, TRUE], render_pair)


def _monotone_tables(src: Space, tgt: Space) -> list:
    """Monotone maps src -> tgt as image tuples, in the lexicographic order
    of their target positions."""
    n = len(src.elements)
    below = [[j for j in range(i) if src.leq(src.elements[j], src.elements[i])
              or src.leq(src.elements[i], src.elements[j])] for i in range(n)]
    out = []
    images = [None] * n

    def rec(i):
        if i == n:
            out.append(tuple(images))
            return
        x = src.elements[i]
        for v in tgt.elements:
            ok = True
            for j in below[i]:
                y = src.elements[j]
                if src.leq(y, x) and not tgt.leq(images[j], v):
                    ok = False
                    break
                if src.leq(x, y) and not tgt.leq(v, images[j]):
                    ok = False
                    break
            if ok:
                images[i] = v
                rec(i + 1)

    rec(0)
    return out


def arrow_space(src: Space, tgt: Space) -> Space:
    tables = _monotone_tables(src, tgt)

    def leq(f, g):
        return all(tgt.leq(a, b) for a, b in zip(f, g))

    exact_pos = [src.index[e] for e in src.exact]
    exact_tgt = set(tgt.exact)
    exact = [f for f in tables if all(f[i] in exact_tgt for i in exact_pos)]

    def render(f):
        return "{" + ", ".join(f"{src.render(a)}->{tgt.render(b)}"
                               for a, b in zip(src.elements, f)) + "}"

    return Space(tables, leq, exact, render)


def split_arrow(type_text: str):
    """``"(o -> o) -> o"`` -> ``("o -> o", "o")``; ``"o"`` -> ``None``."""
    t = type_text.replace(" ", "")
    depth = 0
    for i, ch in enumerate(t):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "-" and depth == 0 and t[i + 1] == ">":
            left, right = t[:i], t[i + 2:]
            if left.startswith("(") and left.endswith(")"):
                left = left[1:-1]
            return left, right
    if t.startswith("(") and t.endswith(")"):
        return split_arrow(t[1:-1])
    return None


class Spaces:
    """Approximation spaces of one builtin system, built on demand."""

    def __init__(self, system: str):
        self.system = system
        self._cache = {"o": base_space(system)}

    def of(self, type_text: str) -> Space:
        key = type_text.replace(" ", "")
        if key not in self._cache:
            src, dst = split_arrow(key)
            self._cache[key] = arrow_space(self.of(src), self.of(dst))
        return self._cache[key]


def space_doc(system: str, type_text: str, show: str) -> list:
    """Rows (value, exact, consistent) that `aftkit space --json` lists."""
    sp = Spaces(system).of(type_text)
    exact = set(sp.exact)
    rows = []
    for e in sp.elements:
        is_exact = e in exact
        consistent = sp.consistent(e)
        if (show == "exact" and not is_exact) or (show == "consistent" and not consistent):
            continue
        rows.append({"value": sp.render(e), "exact": is_exact,
                     "consistent": consistent})
    return rows


# ---------------------------------------------------------------------------
# Non-recursive higher-order programs: classical meaning and KK value


def _classical_values(type_text: str) -> list:
    """Classical objects of a type: booleans, or functions as tuples of
    images over the classical arguments in order (false before true)."""
    parts = split_arrow(type_text)
    if parts is None:
        return [False, True]
    src = _classical_values(parts[0])
    dst = _classical_values(parts[1])
    return [tuple(images) for images in itertools.product(dst, repeat=len(src))]


def _render_classical(type_text: str, value) -> object:
    parts = split_arrow(type_text)
    if parts is None:
        return "t" if value else "f"
    src = _classical_values(parts[0])
    return {_render_classical_key(parts[0], a): _render_classical(parts[1], v)
            for a, v in zip(src, value)}


def _render_classical_key(type_text: str, value) -> str:
    parts = split_arrow(type_text)
    if parts is None:
        return "t" if value else "f"
    src = _classical_values(parts[0])
    return "{" + ", ".join(f"{_render_classical_key(parts[0], a)}->"
                           f"{_render_classical_key(parts[1], v)}"
                           for a, v in zip(src, value)) + "}"


def _apply(fn_type: str, fn, arg, values_of) -> object:
    """Apply a function value (a tuple over its argument domain in order)."""
    src_type = split_arrow(fn_type)[0]
    return fn[values_of(src_type).index(arg)]


def _eval_ho(term, env, symbols, types, logic):
    tag = term[0]
    if tag == "true":
        return logic["true"]
    if tag == "false":
        return logic["false"]
    if tag == "var":
        return env[term[1]]
    if tag == "sym":
        return symbols[term[1]]
    if tag == "not":
        return logic["not"](_eval_ho(term[1], env, symbols, types, logic))
    if tag in ("and", "or"):
        return logic[tag](_eval_ho(term[1], env, symbols, types, logic),
                          _eval_ho(term[2], env, symbols, types, logic))
    if tag == "app":
        fn_term = term[1]
        fn_type = types[fn_term[1]]
        fn = _eval_ho(fn_term, env, symbols, types, logic)
        arg = _eval_ho(term[2], env, symbols, types, logic)
        return _apply(fn_type, fn, arg, logic["values_of"])
    raise ValueError(f"not a term: {term!r}")


def _meanings(program, logic) -> dict:
    """Value of every symbol of a non-recursive program whose rules only
    mention earlier symbols; a symbol without rules is false everywhere."""
    signature, rules = program
    symbols = {}
    for name, type_text in signature:
        own = [r for r in rules if r[0] == name]
        parts = split_arrow(type_text)
        param = own[0][1][0] if own and own[0][1] else None
        types = dict(signature)
        if param is not None:
            types[param] = parts[0]

        def body_value(arg):
            env = {param: arg} if param is not None else {}
            out = logic["false"]
            for _, _, body in own:
                out = logic["or"](out, _eval_ho(body, env, symbols, types, logic))
            return out

        if parts is None:
            symbols[name] = body_value(None)
        else:
            symbols[name] = tuple(body_value(a) for a in logic["values_of"](parts[0]))
    return symbols


def ho_docs(program, system: str):
    """(model document, projection document) of `aftkit model --json` and
    `aftkit project --json` for a non-recursive program under ``kk``."""
    classical = _meanings(program, {
        "true": True, "false": False, "not": lambda v: not v,
        "and": lambda a, b: a and b, "or": lambda a, b: a or b,
        "values_of": _classical_values})
    spaces = Spaces(system)

    def approx_values(type_text):
        return spaces.of(type_text).elements

    approx = _meanings(program, {
        "true": TRUE, "false": FALSE, "not": p_not, "and": p_and, "or": p_or,
        "values_of": approx_values})
    model, projection = {}, {}
    for name, type_text in program[0]:
        sp = spaces.of(type_text)
        value = approx[name]
        parts = split_arrow(type_text)
        if parts is None:
            encoded = render_pair(value)
        else:
            arg_space = spaces.of(parts[0])
            dst = spaces.of(parts[1])
            encoded = {arg_space.render(a): dst.render(v)
                       for a, v in zip(arg_space.elements, value)}
        exact = value in set(sp.exact)
        proj = _render_classical(type_text, classical[name])
        model[name] = {"type": _format_type(type_text), "value": encoded,
                       "exact": exact, "projection": proj if exact else None}
        projection[name] = proj
    return model, projection


def _format_type(type_text: str) -> str:
    parts = split_arrow(type_text)
    if parts is None:
        return "o"
    left = _format_type(parts[0])
    if split_arrow(parts[0]) is not None:
        left = f"({left})"
    return f"{left} -> {_format_type(parts[1])}"
