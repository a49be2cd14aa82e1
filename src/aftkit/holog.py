"""Higher-order propositional logic programs over approximation systems.

Programs declare predicate-typed symbols and define them by rules whose
bodies are evaluated directly in the approximation spaces: applying a symbol
to an argument applies the function-space element to the argument's
approximation value, so partially-known arguments flow through unchanged.
Connectives act componentwise on (lower, upper) truth pairs; alternatives for
the same head join componentwise with definite falsehood as the neutral
element, mirroring the rule-existential reading of immediate consequence.

Grammar (``.hl`` files)::

    name : type.          declarations (predicate types only)
    head :- body.         rules; head is  name  or  name(V1, ..., Vn)
    body                  ~body | body , body | body ; body | name | V |
                          name(args) | true | false | (body)
    % line comments

Precedence: ``~`` binds tightest, then ``,`` (conjunction), then ``;``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import (
    ExperimentalFeatureDisabled,
    InternalLawFailure,
    NonPredicateSymbol,
    ParseError,
    TypeMismatch,
    UnboundVariable,
    UndeclaredSymbol,
)
from .fixpoints import (
    Approximator,
    Operator,
    PairProduct,
    PairStructure,
    alternating_fixpoint,
    kleene_chain,
)
from .order import ProductOrder, apply_fn, product, render_element
from .systems import ApproximationSystem, ApproxSpace
from .typesys import Arrow, Base, Prod, TypeClass, TypeExpr, classify_type, parse_type


# ---------------------------------------------------------------------------
# Terms and programs


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TrueLit(Term):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseLit(Term):
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Not(Term):
    arg: Term

    def __str__(self) -> str:
        return f"~{self.arg}"


@dataclass(frozen=True)
class And(Term):
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left}, {self.right})"


@dataclass(frozen=True)
class Or(Term):
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left}; {self.right})"


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term

    def __str__(self) -> str:
        return f"{self.fn}({self.arg})"


@dataclass(frozen=True)
class Rule:
    head: str
    params: tuple
    body: Term


@dataclass(frozen=True)
class Program:
    signature: tuple  # of (name, TypeExpr), declaration order
    rules: tuple

    def symbol_type(self, name: str) -> TypeExpr:
        for n, t in self.signature:
            if n == name:
                return t
        raise UndeclaredSymbol(f"symbol {name} not declared")

    def symbols(self) -> list:
        return [n for n, _ in self.signature]

    def rules_for(self, name: str) -> list:
        return [r for r in self.rules if r.head == name]


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(r"(:-|->|[(),:;.~]|[A-Za-z_][A-Za-z0-9_']*)")


def _tokenize(text: str):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("%", 1)[0]
        pos = 0
        while pos < len(body):
            if body[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(body, pos)
            if not m:
                raise ParseError(f"bad character {body[pos]!r}", lineno, pos + 1)
            tokens.append((m.group(1), lineno, m.start(1) + 1))
            pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def at_name(self) -> bool:
        t = self.peek()
        return t is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", t) is not None

    def take(self, expected: Optional[str] = None):
        if self.pos >= len(self.tokens):
            last = self.tokens[-1] if self.tokens else (None, 1, 1)
            raise ParseError(f"unexpected end of input (wanted {expected!r})",
                             last[1], last[2])
        tok, line, col = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", line, col)
        self.pos += 1
        return tok, line, col

    def error(self, message: str):
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
        else:
            line, col = (self.tokens[-1][1], self.tokens[-1][2]) if self.tokens else (1, 1)
        raise ParseError(message, line, col)


def parse_program(text: str) -> Program:
    """Parse declarations and rules; body symbols must be declared or bound."""
    p = _Parser(text)
    signature: list = []
    declared: dict = {}
    rules: list = []
    while p.peek() is not None:
        if not p.at_name():
            p.error(f"expected a declaration or rule, found {p.peek()!r}")
        name, line, col = p.take()
        if p.peek() == ":":
            p.take(":")
            ty = _parse_type_tokens(p)
            p.take(".")
            if name in declared:
                raise ParseError(f"symbol {name} declared twice", line, col)
            declared[name] = ty
            signature.append((name, ty))
            continue
        params: list = []
        if p.peek() == "(":
            p.take("(")
            while True:
                pname, pline, pcol = p.take()
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", pname):
                    raise ParseError(f"bad parameter name {pname!r}", pline, pcol)
                if pname in params:
                    raise ParseError(f"duplicate parameter {pname}", pline, pcol)
                params.append(pname)
                if p.peek() == ",":
                    p.take(",")
                    continue
                break
            p.take(")")
        p.take(":-")
        if name not in declared:
            raise UndeclaredSymbol(f"rule head {name} (line {line}) is not declared")
        body = _parse_body(p, set(params), declared)
        p.take(".")
        rules.append(Rule(head=name, params=tuple(params), body=body))
    return Program(signature=tuple(signature), rules=tuple(rules))


def _parse_type_tokens(p: _Parser) -> TypeExpr:
    # collect tokens up to the terminating '.' and reuse the type parser
    depth = 0
    parts: list = []
    while True:
        tok = p.peek()
        if tok is None:
            p.error("unterminated type declaration")
        if tok == "." and depth == 0:
            break
        tok, _, _ = p.take()
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        parts.append(tok)
    return parse_type(" ".join(parts))


def _parse_body(p: _Parser, params: set, declared: Mapping) -> Term:
    return _parse_or(p, params, declared)


def _parse_or(p, params, declared) -> Term:
    left = _parse_and(p, params, declared)
    while p.peek() == ";":
        p.take(";")
        left = Or(left, _parse_and(p, params, declared))
    return left


def _parse_and(p, params, declared) -> Term:
    left = _parse_neg(p, params, declared)
    while p.peek() == ",":
        p.take(",")
        left = And(left, _parse_neg(p, params, declared))
    return left


def _parse_neg(p, params, declared) -> Term:
    if p.peek() == "~":
        p.take("~")
        return Not(_parse_neg(p, params, declared))
    return _parse_atom(p, params, declared)


def _parse_atom(p, params, declared) -> Term:
    if p.peek() == "(":
        p.take("(")
        inner = _parse_or(p, params, declared)
        p.take(")")
        return inner
    if not p.at_name():
        p.error(f"expected an atom, found {p.peek()!r}")
    name, line, col = p.take()
    if name == "true":
        return TrueLit()
    if name == "false":
        return FalseLit()
    if name in params:
        base: Term = Var(name)
    elif name in declared:
        base = Const(name)
    else:
        raise UndeclaredSymbol(f"symbol {name} (line {line}) is neither a "
                               "parameter nor declared")
    if p.peek() == "(":
        # inside an argument list, ',' separates arguments; parenthesize an
        # argument to pass a conjunction or disjunction
        p.take("(")
        args = [_parse_neg(p, params, declared)]
        while p.peek() == ",":
            p.take(",")
            args.append(_parse_neg(p, params, declared))
        p.take(")")
        for a in args:
            base = App(base, a)
    return base


# ---------------------------------------------------------------------------
# Type checking


@dataclass(frozen=True)
class TypedProgram:
    program: Program
    param_types: Mapping  # symbol -> tuple of parameter types

    def __getattr__(self, item):
        return getattr(self.program, item)


def _arrow_chain(t: TypeExpr) -> tuple:
    """Split rho1 -> ... -> rhon -> o into ((rho1..rhon), o)."""
    params = []
    while isinstance(t, Arrow):
        params.append(t.src)
        t = t.dst
    return tuple(params), t


def type_of(term: Term, env: Mapping, signature: Mapping, path: str = "body") -> TypeExpr:
    if isinstance(term, Var):
        if term.name not in env:
            raise UnboundVariable(f"{path}: variable {term.name} not bound")
        return env[term.name]
    if isinstance(term, Const):
        return signature[term.name]
    if isinstance(term, (TrueLit, FalseLit)):
        return Base("o")
    if isinstance(term, Not):
        inner = type_of(term.arg, env, signature, path + ".~")
        if inner != Base("o"):
            raise TypeMismatch(f"negation needs o, got {inner}", path)
        return Base("o")
    if isinstance(term, (And, Or)):
        lab = "," if isinstance(term, And) else ";"
        for side, sub in (("left", term.left), ("right", term.right)):
            got = type_of(sub, env, signature, f"{path}.{lab}.{side}")
            if got != Base("o"):
                raise TypeMismatch(f"connective needs o, got {got}",
                                   f"{path}.{lab}.{side}")
        return Base("o")
    if isinstance(term, App):
        fn_t = type_of(term.fn, env, signature, path + ".fn")
        if not isinstance(fn_t, Arrow):
            raise TypeMismatch(f"applied a non-function of type {fn_t}", path)
        arg_t = type_of(term.arg, env, signature, path + ".arg")
        if arg_t != fn_t.src:
            raise TypeMismatch(
                f"argument type {arg_t} does not match expected {fn_t.src}",
                path + ".arg")
        return fn_t.dst
    raise TypeMismatch(f"unknown term {term!r}", path)


def _rename_vars(term: Term, mapping: Mapping) -> Term:
    if isinstance(term, Var):
        return Var(mapping.get(term.name, term.name))
    if isinstance(term, Not):
        return Not(_rename_vars(term.arg, mapping))
    if isinstance(term, And):
        return And(_rename_vars(term.left, mapping), _rename_vars(term.right, mapping))
    if isinstance(term, Or):
        return Or(_rename_vars(term.left, mapping), _rename_vars(term.right, mapping))
    if isinstance(term, App):
        return App(_rename_vars(term.fn, mapping), _rename_vars(term.arg, mapping))
    return term


def _mentions_individuals(t: TypeExpr) -> bool:
    if isinstance(t, Base):
        return t.name == "i"
    if isinstance(t, Arrow):
        return _mentions_individuals(t.src) or _mentions_individuals(t.dst)
    if isinstance(t, Prod):
        return any(_mentions_individuals(ty) for _, ty in t.items)
    return False


def typecheck(program: Program) -> TypedProgram:
    """Validate predicate-typed signature and o-typed rule bodies; normalize
    parameter names across a symbol's rules to the first rule's.

    Programs are propositional: the individuals type is rejected outright
    (quantifier-free fragments over declared domains are served by the
    approximation-space layer directly, not by rules)."""
    signature = dict(program.signature)
    for name, t in program.signature:
        if classify_type(t) is not TypeClass.PREDICATE:
            raise NonPredicateSymbol(f"symbol {name} has non-predicate type {t}")
        if _mentions_individuals(t):
            raise NonPredicateSymbol(
                f"symbol {name}: individual-typed arguments are not supported "
                "in programs")
    param_types = {name: _arrow_chain(t)[0] for name, t in program.signature}
    canonical: dict = {}
    rules: list = []
    for rule in program.rules:
        expected = param_types[rule.head]
        if len(rule.params) != len(expected):
            raise TypeMismatch(
                f"rule for {rule.head} takes {len(rule.params)} parameters, "
                f"type {signature[rule.head]} requires {len(expected)}",
                f"rule {rule.head}")
        if rule.head not in canonical:
            canonical[rule.head] = rule.params
        target = canonical[rule.head]
        body = _rename_vars(rule.body, dict(zip(rule.params, target)))
        rule = Rule(head=rule.head, params=target, body=body)
        env = dict(zip(rule.params, expected))
        got = type_of(rule.body, env, signature, f"rule {rule.head}")
        if got != Base("o"):
            raise TypeMismatch(f"rule body has type {got}, expected o",
                               f"rule {rule.head}")
        rules.append(rule)
    checked = Program(signature=program.signature, rules=tuple(rules))
    return TypedProgram(program=checked, param_types=param_types)


# ---------------------------------------------------------------------------
# Spaces and evaluation


def interpretation_space(tp: TypedProgram, system: ApproximationSystem,
                         cap: Optional[int] = None) -> ApproxSpace:
    """Labeled product of per-symbol approximation spaces."""
    names = tp.symbols()
    factors = [system.app(t, cap).space for _, t in tp.signature]
    space = product(factors, labels=names, cap=cap)
    sem = product([system.semantics_of(t, cap) for _, t in tp.signature],
                  labels=names, cap=cap)
    prod_type = Prod(tuple(tp.signature))
    return ApproxSpace(space=space, of_type=prod_type, semantics=sem)


class _Truth:
    """Componentwise truth operations on (lower, upper) pairs over a
    two-element boolean base."""

    def __init__(self, system: ApproximationSystem):
        e_o = system.base.get("o")
        if e_o is None or len(e_o) != 2:
            raise TypeMismatch("programs need a two-valued boolean base o")
        lo, hi = e_o.elements
        if not e_o.leq(lo, hi):
            lo, hi = hi, lo
        self.false = lo
        self.true = hi
        self.space = system.app(Base("o")).space

    def neg(self, v):
        return self.true if v == self.false else self.false

    def vee(self, a, b):
        return self.true if self.true in (a, b) else self.false

    def wedge(self, a, b):
        return self.false if self.false in (a, b) else self.true

    def lit_true(self):
        return (self.true, self.true)

    def lit_false(self):
        return (self.false, self.false)

    def t_not(self, p):
        return (self.neg(p[1]), self.neg(p[0]))

    def t_and(self, p, q):
        return (self.wedge(p[0], q[0]), self.wedge(p[1], q[1]))

    def t_or(self, p, q):
        return (self.vee(p[0], q[0]), self.vee(p[1], q[1]))


def _evaluate(term: Term, interp, env: Mapping, env_types: Mapping,
              signature: Mapping, positions: Mapping,
              system: ApproximationSystem, truth: _Truth):
    if isinstance(term, Var):
        if term.name not in env:
            raise UnboundVariable(f"variable {term.name} has no binding")
        return env[term.name]
    if isinstance(term, Const):
        return interp[positions[term.name]]
    if isinstance(term, TrueLit):
        return truth.lit_true()
    if isinstance(term, FalseLit):
        return truth.lit_false()

    def sub(t):
        return _evaluate(t, interp, env, env_types, signature, positions,
                         system, truth)

    if isinstance(term, Not):
        return truth.t_not(sub(term.arg))
    if isinstance(term, And):
        return truth.t_and(sub(term.left), sub(term.right))
    if isinstance(term, Or):
        return truth.t_or(sub(term.left), sub(term.right))
    if isinstance(term, App):
        fn_type = type_of(term.fn, env_types, signature)
        fn_space = system.app(fn_type).space
        return apply_fn(fn_space, sub(term.fn), sub(term.arg))
    raise TypeMismatch(f"cannot evaluate {term!r}")


def eval_expr(term: Term, interp, env: Mapping, tp: TypedProgram,
              system: ApproximationSystem,
              env_types: Optional[Mapping] = None):
    """Value of a term in the boolean approximation space, given an
    interpretation element and parameter bindings (plus their types for
    applications of bound variables)."""
    truth = _Truth(system)
    signature = dict(tp.signature)
    positions = {name: i for i, name in enumerate(tp.symbols())}
    return _evaluate(term, interp, env, env_types or {}, signature, positions,
                     system, truth)


def consequence_function(tp: TypedProgram, system: ApproximationSystem,
                         cap: Optional[int] = None):
    """The one-step consequence operator as a function from an interpretation
    (the tuple of symbol values, in declaration order) to the tuple of symbol
    values, evaluating the rules at that interpretation only.

    Per symbol and argument tuple, alternatives join componentwise with
    definite falsehood as the unit; a symbol with no rules is definitely
    false everywhere.
    """
    truth = _Truth(system)
    signature = dict(tp.signature)
    positions = {name: i for i, name in enumerate(tp.symbols())}

    def join(values):
        out = truth.lit_false()
        for v in values:
            out = truth.t_or(out, v)
        return out

    def symbol_value(name):
        rules = tp.rules_for(name)
        ptypes = tp.param_types[name]
        params = rules[0].params if rules else tuple(f"_{i}" for i in range(len(ptypes)))
        env_types = dict(zip(params, ptypes))
        arg_spaces = [system.app(t, cap).space for t in ptypes]
        sym_space = system.app(signature[name], cap).space

        def build(interp, level, env):
            if level == len(ptypes):
                return join([_evaluate(r.body, interp, env, env_types,
                                       signature, positions, system, truth)
                             for r in rules])
            values = []
            for a in arg_spaces[level].elements:
                env2 = dict(env)
                env2[params[level]] = a
                values.append(build(interp, level + 1, env2))
            return tuple(values)

        def value_at(interp):
            value = build(interp, 0, {})
            if value not in sym_space:
                raise InternalLawFailure(
                    f"consequence value for {name} is not monotone")
            return value

        return value_at

    symbol_values = [symbol_value(name) for name in tp.symbols()]

    def consequence(interp) -> tuple:
        return tuple(value_at(interp) for value_at in symbol_values)

    return consequence


def immediate_consequence(tp: TypedProgram, system: ApproximationSystem,
                          cap: Optional[int] = None) -> Operator:
    """One-step consequence operator, tabulated on the whole interpretation
    space; see ``consequence_function``."""
    space = interpretation_space(tp, system, cap)
    return Operator.from_function(space.space,
                                  consequence_function(tp, system, cap))


# ---------------------------------------------------------------------------
# Models


def _pair_structure_for_type(system: ApproximationSystem, t: TypeExpr,
                             cap: Optional[int]) -> PairStructure:
    sp = system.app(t, cap).space
    if isinstance(t, Base):
        return PairStructure.square(system.base[t.name], sp)
    if isinstance(t, Prod):
        comps = [_pair_structure_for_type(system, ty, cap) for _, ty in t.items]
        return PairStructure.componentwise(comps, sp)
    if isinstance(t, Arrow):
        if t.src in system.closure:
            inner = _pair_structure_for_type(system, t.dst, cap)
            return PairStructure.pointwise(inner, sp)
        inner = _pair_structure_for_type(system, t.dst, cap)
        n = len(system.semantics_of(t.src, cap))
        return PairStructure.componentwise([inner] * n, sp)
    raise TypeMismatch(f"no pair structure for type {t}")


def interpretation_structure(tp: TypedProgram, system: ApproximationSystem,
                             cap: Optional[int] = None) -> PairStructure:
    """Pair structure of the whole interpretation space, tabulated."""
    space = interpretation_space(tp, system, cap)
    comps = [_pair_structure_for_type(system, t, cap) for _, t in tp.signature]
    return PairStructure.componentwise(comps, space.space)


class ComputeMode:
    KK = "kk"
    WF = "wf"


def compute_model(tp: TypedProgram, system: ApproximationSystem, mode: str,
                  experimental_lu_stable: bool = False,
                  cap: Optional[int] = None) -> tuple:
    """Fixpoint model of a program: the Kripke-Kleene least fixpoint, or the
    well-founded fixpoint via stable revisions.

    Both follow their chain from bottom (the Kleene chain, or the alternating
    chain with a stable revision at the two halves of each iterate) and
    evaluate the consequence operator only at its iterates, so the cost
    follows the chain's length, not the size of the interpretation space,
    which is never built. Symbol spaces are compared componentwise.

    Stable-style revisions on higher-order spaces follow the componentwise/
    pointwise splitting of the pair structure; that construction is this
    package's own generalization and stays behind ``experimental_lu_stable``.
    """
    step = consequence_function(tp, system, cap)
    if mode == ComputeMode.KK:
        order = ProductOrder([system.app(t, cap).space for _, t in tp.signature])
        return kleene_chain(step, order.bottom(), order.leq, order.chain_bound())
    if mode != ComputeMode.WF:
        raise ValueError(f"unknown mode {mode!r}")
    higher_order = any(not isinstance(t, Base) for _, t in tp.signature)
    if higher_order and not experimental_lu_stable:
        raise ExperimentalFeatureDisabled(
            "well-founded models over higher-order spaces need "
            "--experimental-lu-stable")
    structure = PairProduct([_pair_structure_for_type(system, t, cap)
                             for _, t in tp.signature])
    return alternating_fixpoint(Approximator.unchecked(structure, step))


@dataclass(frozen=True)
class SymbolAnalysis:
    name: str
    type: TypeExpr
    value: object
    exact: bool
    projection: object  # None when not exact


@dataclass(frozen=True)
class ModelAnalysis:
    two_valued: bool
    symbols: tuple

    def __getitem__(self, name: str) -> SymbolAnalysis:
        for s in self.symbols:
            if s.name == name:
                return s
        raise KeyError(name)


def analyze_model(interp, tp: TypedProgram, system: ApproximationSystem,
                  cap: Optional[int] = None) -> ModelAnalysis:
    """Componentwise exactness, and projections where defined."""
    out = []
    for i, (name, t) in enumerate(tp.signature):
        value = interp[i]
        exact = system.is_exact(t, value, cap)
        projection = system.project(t, value, cap) if exact else None
        out.append(SymbolAnalysis(name=name, type=t, value=value,
                                  exact=exact, projection=projection))
    return ModelAnalysis(two_valued=all(s.exact for s in out),
                         symbols=tuple(out))


# ---------------------------------------------------------------------------
# JSON encoding of models


def encode_value(system: ApproximationSystem, t: TypeExpr, value) -> object:
    space = system.app(t).space
    if isinstance(t, Arrow):
        if t.src in system.closure:
            arg_space = system.app(t.src).space
            return {render_element(arg_space, a): encode_value(system, t.dst, value[i])
                    for i, a in enumerate(arg_space.elements)}
        arg_sem = system.semantics_of(t.src)
        return {render_element(arg_sem, a): encode_value(system, t.dst, value[i])
                for i, a in enumerate(arg_sem.elements)}
    if isinstance(t, Prod):
        return {label: encode_value(system, ty, value[i])
                for i, (label, ty) in enumerate(t.items)}
    return render_element(space, value)


def encode_semantic(system: ApproximationSystem, t: TypeExpr, value) -> object:
    sem = system.semantics_of(t)
    if isinstance(t, Arrow):
        arg_sem = system.semantics_of(t.src)
        return {render_element(arg_sem, a): encode_semantic(system, t.dst, value[i])
                for i, a in enumerate(arg_sem.elements)}
    if isinstance(t, Prod):
        return {label: encode_semantic(system, ty, value[i])
                for i, (label, ty) in enumerate(t.items)}
    return render_element(sem, value)


def decode_value(system: ApproximationSystem, t: TypeExpr, data) -> object:
    """Inverse of encode_value: match the encoding against space elements."""
    space = system.app(t).space
    for e in space.elements:
        if encode_value(system, t, e) == data:
            return e
    raise InternalLawFailure(f"no element of the {t} space encodes as {data!r}")


def model_to_dict(interp, tp: TypedProgram, system: ApproximationSystem) -> dict:
    analysis = analyze_model(interp, tp, system)
    out = {}
    for s in analysis.symbols:
        entry = {
            "type": str(s.type),
            "value": encode_value(system, s.type, s.value),
            "exact": s.exact,
            "projection": (encode_semantic(system, s.type, s.projection)
                           if s.exact else None),
        }
        out[s.name] = entry
    return out
