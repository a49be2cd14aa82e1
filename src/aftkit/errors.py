"""Exception hierarchy shared by all aftkit modules."""


class AftError(Exception):
    """Base class for all errors raised by aftkit."""


# ---------------------------------------------------------------------------
# Order-theoretic construction errors


class OrderError(AftError):
    pass


class DuplicateElement(OrderError):
    pass


class NotReflexive(OrderError):
    pass


class NotAntisymmetric(OrderError):
    """Carries a witness cycle in args[1] when detected during closure."""


class NotTransitive(OrderError):
    pass


class UnknownElement(OrderError):
    pass


class SizeCapExceeded(OrderError):
    """A construction would exceed the configured element cap (AFT_SIZE_CAP)."""


class NotMonotone(OrderError):
    pass


class NoBottom(OrderError):
    pass


class NotAChain(OrderError):
    pass


class NotCompleteLattice(OrderError):
    pass


class JoinAbsent(OrderError):
    """A join required by the canonical-representative construction is missing."""


# ---------------------------------------------------------------------------
# Type-system errors


class TypeError_(AftError):
    pass


class UnknownBaseType(TypeError_):
    pass


class TypeNotInClosure(TypeError_):
    pass


# ---------------------------------------------------------------------------
# Approximation-system errors


class SystemError_(AftError):
    pass


class NotExact(SystemError_):
    pass


class TupleViolation(SystemError_):
    """An approximation tuple breaks one of its defining clauses.

    ``clause`` identifies which (``bounds``, ``bounds-membership``,
    ``lattice-L``, ``lattice-U``, ``ilp``, ``igp``); ``witness`` carries the
    offending data.
    """

    def __init__(self, clause: str, message: str, witness=None):
        super().__init__(message)
        self.clause = clause
        self.witness = witness


# ---------------------------------------------------------------------------
# Program front-end errors


class ProgramError(AftError):
    pass


class ParseError(ProgramError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UndeclaredSymbol(ProgramError):
    pass


class TypeMismatch(ProgramError):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class NonPredicateSymbol(ProgramError):
    pass


class UnboundVariable(ProgramError):
    pass


class ExperimentalFeatureDisabled(ProgramError):
    pass


class InconsistentRevision(AftError):
    """A stable revision left the consistent region of a lower/upper space.

    The stable construction on consistent-pair spaces is an experimental
    generalization; operators whose lower revisions escape the region below
    the fixed upper bound are rejected rather than silently clamped.
    """


# ---------------------------------------------------------------------------
# Settings


class InvalidSetting(AftError):
    """An environment setting, such as AFT_SIZE_CAP, has a malformed or
    out-of-range value."""


# ---------------------------------------------------------------------------
# Internal invariants


class InternalLawFailure(AftError):
    """A structural law the code relies on failed; indicates a bug, not bad input."""
