"""Reference interpreter: the differential oracle for the evaluator.

The tree-walking evaluator :mod:`repro.policy.compiled` replaced, with
the generic predicate implementations, variable bindings and tuple
unification it ran on.  It stays here, never imported by ``src/``, so
the shipped closures can be compared against an implementation that
shares none of their logic: only the registry's predicate names,
opcodes and arities (:mod:`repro.policy.predicates`).  The contract
covers every policy ``compile_source`` emits and every blob
``CompiledPolicy.from_bytes`` accepts.

Walks a :class:`~repro.policy.binary.CompiledPolicy` for one operation:
each clause of the disjunctive normal form gets fresh variable
bindings and its predicates run left to right; the first clause whose
predicates all hold grants the permission.  A structurally failing
clause (unbound arithmetic, type confusion) simply does not grant —
other disjuncts are still tried.  Every argument is evaluated before
its predicate runs, and whether a variable binds or compares is found
out when the predicate meets it ("compares or sets").  ``objSays``
always scans the facts in content order, whatever the pattern.

An operation with no rule in the policy is denied (deny by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import PolicyDenied, PolicyError, PolicyFormatError
from repro.policy.ast import (
    HashValue,
    IntValue,
    NullValue,
    PubKeyValue,
    StrValue,
    TupleValue,
    Value,
)
from repro.policy.binary import CompiledPolicy
from repro.policy.compiled import Decision
from repro.policy.context import EvalContext
from repro.policy.predicates import predicate_by_opcode


@dataclass
class ObjectView:
    """What policies can see of one object, built in memory for a
    context built by hand: the shipped path hands over the object's
    metadata record itself (``repro.core.store.StoredMeta``)."""

    object_id: str
    current_version: int
    versions: dict = field(default_factory=dict)  # version -> VersionInfo
    digest: str | None = None  # no stored bytes: keys no cached verdict


class EvalError(PolicyError):
    """A clause failed structurally (unbound arithmetic, bad types).

    Raising this aborts only the current clause — other disjuncts are
    still tried — mirroring logic-language failure.
    """


@dataclass(frozen=True)
class Unbound:
    """A variable slot with no binding yet."""

    slot: int


@dataclass(frozen=True)
class TuplePattern:
    """A tuple argument whose elements may contain unbound slots."""

    name: str
    elems: tuple  # of Value | Unbound | TuplePattern


class Bindings:
    """Variable slot assignments for one clause evaluation."""

    def __init__(self, num_slots: int, names: list[str] | None = None):
        self._values: list[Value | None] = [None] * num_slots
        self._names = names or [f"v{i}" for i in range(num_slots)]

    def lookup(self, slot: int) -> "Value | Unbound":
        value = self._values[slot]
        return value if value is not None else Unbound(slot)

    def bind(self, slot: int, value: Value) -> None:
        if self._values[slot] is not None:
            raise EvalError(
                f"variable {self._names[slot]!r} already bound"
            )
        self._values[slot] = value

    def snapshot(self) -> dict:
        """Bound variables by name (for diagnostics and tests)."""
        return {
            self._names[i]: value
            for i, value in enumerate(self._values)
            if value is not None
        }


def compare_or_set(arg, value: Value, bindings: Bindings) -> bool:
    """The core Guardat semantics for a single argument.

    ``arg`` is an evaluated argument (a Value, Unbound, or
    TuplePattern); ``value`` is what the predicate observed.

    ``arg`` was evaluated *before* the predicate ran, so a slot that
    looked unbound then may have been bound since — by an earlier
    argument of the same predicate (``objSize(O, X, X)``) or by the
    implementation itself (version resolution).  Re-look it up and
    compare against the live binding instead of double-binding into a
    structural :class:`EvalError`.
    """
    if isinstance(arg, Unbound):
        current = bindings.lookup(arg.slot)
        if isinstance(current, Unbound):
            bindings.bind(arg.slot, value)
            return True
        return current == value
    if isinstance(arg, TuplePattern):
        if not isinstance(value, TupleValue):
            return False
        return unify_tuple(arg, value, bindings)
    return arg == value


def unify_tuple(pattern, actual: TupleValue, bindings: Bindings) -> bool:
    """Unify a (possibly partial) tuple pattern with an actual tuple.

    Two-phase: every element — including elements of *nested* tuple
    patterns — is checked first, staging unbound slots through one
    shared ``pending`` list, so a failed match leaves no partial
    bindings behind and a slot repeated anywhere in the pattern is
    compared against its first occurrence instead of double-binding.
    """
    if isinstance(pattern, TupleValue):
        return pattern == actual
    if not isinstance(pattern, TuplePattern):
        raise EvalError(f"cannot unify {pattern!r} with a tuple")
    pending: list[tuple[Unbound, Value]] = []
    if not _match_elements(pattern, actual, pending):
        return False
    seen: dict[int, Value] = {}
    for unbound, actual_value in pending:
        current = bindings.lookup(unbound.slot)
        if not isinstance(current, Unbound):
            # Bound since the pattern was built (e.g. by the predicate
            # implementation between argument evaluation and unify).
            if current != actual_value:
                return False
            continue
        if unbound.slot in seen:
            if seen[unbound.slot] != actual_value:
                return False
            continue
        seen[unbound.slot] = actual_value
    for slot, actual_value in seen.items():
        bindings.bind(slot, actual_value)
    return True


def _match_elements(
    pattern: TuplePattern,
    actual: TupleValue,
    pending: list,
) -> bool:
    """Phase 1 of :func:`unify_tuple`: structural match, no binding."""
    if pattern.name != actual.name or len(pattern.elems) != len(actual.args):
        return False
    for element, actual_value in zip(pattern.elems, actual.args):
        if isinstance(element, Unbound):
            pending.append((element, actual_value))
        elif isinstance(element, TuplePattern):
            if not isinstance(actual_value, TupleValue):
                return False
            if not _match_elements(element, actual_value, pending):
                return False
        elif element != actual_value:
            return False
    return True


def require_int(arg, what: str) -> int:
    """Extract a bound integer or abort the clause."""
    if isinstance(arg, IntValue):
        return arg.value
    raise EvalError(f"{what} must be a bound integer, got {arg!r}")


def as_object_id(arg) -> str | None:
    """Interpret an evaluated argument as an object id.

    Returns ``None`` for NULL (object does not exist); raises for
    anything that is not an object reference.
    """
    if isinstance(arg, NullValue):
        return None
    if isinstance(arg, StrValue):
        return arg.value
    raise EvalError(f"expected an object id, got {arg!r}")


# ---------------------------------------------------------------------------
# Predicate implementations (Table 1), by registry name
# ---------------------------------------------------------------------------

IMPLEMENTATIONS: dict[str, Callable] = {}


def _implements(*names: str):
    def decorator(impl: Callable) -> Callable:
        for name in names:
            IMPLEMENTATIONS[name] = impl
        return impl

    return decorator


@_implements("eq")
def _eq(ctx: EvalContext, bindings: Bindings, args) -> bool:
    a, b = args
    if isinstance(a, Unbound) and isinstance(b, Unbound):
        raise EvalError("eq() with two unbound variables")
    if isinstance(a, (Unbound, TuplePattern)):
        a, b = b, a  # normalize: ground value first
    if isinstance(a, (Unbound, TuplePattern)):
        raise EvalError("eq() needs one ground argument")
    return compare_or_set(b, a, bindings)


def _relational(op: Callable[[int, int], bool]):
    def impl(ctx: EvalContext, bindings: Bindings, args) -> bool:
        left = require_int(args[0], "comparison operand")
        right = require_int(args[1], "comparison operand")
        return op(left, right)

    return impl


IMPLEMENTATIONS.update(
    le=_relational(lambda a, b: a <= b),
    lt=_relational(lambda a, b: a < b),
    ge=_relational(lambda a, b: a >= b),
    gt=_relational(lambda a, b: a > b),
)


@_implements("sessionKeyIs")
def _session_key_is(ctx: EvalContext, bindings: Bindings, args) -> bool:
    return compare_or_set(args[0], PubKeyValue(ctx.session_key), bindings)


@_implements("certificateSays")
def _certificate_says(ctx: EvalContext, bindings: Bindings, args) -> bool:
    authority = args[0]
    if not isinstance(authority, PubKeyValue):
        raise EvalError("certificateSays authority must be a bound public key")
    if len(args) == 3:
        freshness: float | None = float(require_int(args[1], "freshness"))
        pattern = args[2]
    else:
        freshness = None
        pattern = args[1]
    if not isinstance(pattern, (TuplePattern, TupleValue)):
        raise EvalError("certificateSays needs a tuple argument")
    for fact in ctx.certified_tuples(authority.value, freshness):
        if unify_tuple(pattern, fact, bindings):
            return True
    return False


@_implements("objId")
def _obj_id(ctx: EvalContext, bindings: Bindings, args) -> bool:
    obj, ident = args
    if isinstance(obj, Unbound):
        raise EvalError("objId object argument must be resolvable")
    object_id = as_object_id(obj)
    if object_id is None:
        # The object does not exist: only objId(x, NULL) holds.
        return isinstance(ident, NullValue)
    if isinstance(ident, NullValue):
        return False
    return compare_or_set(ident, StrValue(object_id), bindings)


def _resolve_object(ctx: EvalContext, arg):
    object_id = as_object_id(arg)
    if object_id is None:
        return None, None
    return object_id, ctx.view(object_id)


def _resolve_info(ctx: EvalContext, bindings: Bindings, args):
    """The object id and the version ``args[:2]`` name (object,
    version); the version is ``None`` when there is none.  An unbound
    version argument is bound to the object's current one."""
    object_id, view = _resolve_object(ctx, args[0])
    if object_id is None:
        return None, None
    version_arg = args[1]
    if not isinstance(version_arg, Unbound):
        version = require_int(version_arg, "version")
    elif view is None:
        return object_id, None
    else:
        version = view.current_version
        bindings.bind(version_arg.slot, IntValue(version))
    return object_id, ctx.version_info(object_id, view, version)


@_implements("currVersion", "currIndex")
def _curr_version(ctx: EvalContext, bindings: Bindings, args) -> bool:
    _object_id, view = _resolve_object(ctx, args[0])
    if view is None:
        return False
    return compare_or_set(args[1], IntValue(view.current_version), bindings)


@_implements("nextVersion")
def _next_version(ctx: EvalContext, bindings: Bindings, args) -> bool:
    if ctx.request_version is None:
        return False
    return compare_or_set(args[0], IntValue(ctx.request_version), bindings)


@_implements("nextIndex")
def _next_index(ctx: EvalContext, bindings: Bindings, args) -> bool:
    # Two-argument form names the object first (MAL example); the
    # request's version argument is object-independent either way.
    version_arg = args[-1]
    if len(args) == 2:
        object_id = as_object_id(args[0])
        if object_id is None:
            return False
    return _next_version(ctx, bindings, (version_arg,))


def _version_metadata(extract: Callable):
    def impl(ctx: EvalContext, bindings: Bindings, args) -> bool:
        _object_id, info = _resolve_info(ctx, bindings, args)
        if info is None:
            return False
        return compare_or_set(args[2], extract(info), bindings)

    return impl


IMPLEMENTATIONS.update(
    objSize=_version_metadata(lambda info: IntValue(info.size)),
    objPolicy=_version_metadata(lambda info: HashValue(info.policy_hash)),
    objHash=_version_metadata(lambda info: HashValue(info.content_hash)),
)


@_implements("objSays")
def _obj_says(ctx: EvalContext, bindings: Bindings, args) -> bool:
    object_id, info = _resolve_info(ctx, bindings, args)
    if info is None:
        return False
    pattern = args[2]
    if not isinstance(pattern, (TuplePattern, TupleValue)):
        raise EvalError("objSays needs a tuple argument")
    for fact in ctx.facts(object_id, info).ordered:
        if unify_tuple(pattern, fact, bindings):
            return True
    return False


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------

class PolicyInterpreter:
    """Evaluates compiled policies; stateless, shareable."""

    def evaluate(
        self, policy: CompiledPolicy, operation: str, ctx: EvalContext
    ) -> Decision:
        """Check whether ``operation`` is permitted under ``policy``."""
        clauses = policy.permissions.get(operation)
        if not clauses:
            return Decision(granted=False, operation=operation)
        evaluated = [0]  # predicates run so far, across every tried clause
        for clause_index, clause in enumerate(clauses):
            bindings = Bindings(len(policy.variables), policy.variables)
            if self._clause_holds(policy, clause, ctx, bindings, evaluated):
                return Decision(
                    granted=True,
                    operation=operation,
                    matched_clause=clause_index,
                    bindings=bindings.snapshot(),
                    predicates_evaluated=evaluated[0],
                )
        return Decision(
            granted=False,
            operation=operation,
            predicates_evaluated=evaluated[0],
        )

    def check(
        self, policy: CompiledPolicy, operation: str, ctx: EvalContext
    ) -> None:
        """Like :meth:`evaluate` but raises :class:`PolicyDenied`."""
        decision = self.evaluate(policy, operation, ctx)
        if not decision.granted:
            raise PolicyDenied(
                f"policy {policy.policy_hash()[:12]} denies {operation}"
            )

    # -- internals -----------------------------------------------------------

    def _clause_holds(
        self,
        policy: CompiledPolicy,
        clause: list,
        ctx: EvalContext,
        bindings: Bindings,
        evaluated: list,
    ) -> bool:
        for instruction in clause:
            evaluated[0] += 1
            impl = IMPLEMENTATIONS[predicate_by_opcode(instruction.opcode).name]
            try:
                args = [
                    self._eval_expr(expr, policy, ctx, bindings)
                    for expr in instruction.args
                ]
                if not impl(ctx, bindings, args):
                    return False
            except EvalError:
                return False
        return True

    def _eval_expr(self, expr, policy: CompiledPolicy, ctx, bindings):
        kind = expr[0]
        if kind == "c":
            return policy.constants[expr[1]]
        if kind == "v":
            return bindings.lookup(expr[1])
        if kind == "r":
            object_id = {"this": ctx.this_id, "log": ctx.log_id}[expr[1]]
            return NullValue() if object_id is None else StrValue(object_id)
        if kind == "a":
            left = self._eval_expr(expr[2], policy, ctx, bindings)
            right = self._eval_expr(expr[3], policy, ctx, bindings)
            if not isinstance(left, IntValue) or not isinstance(right, IntValue):
                raise EvalError("arithmetic needs bound integers")
            if expr[1] == "+":
                return IntValue(left.value + right.value)
            if expr[1] == "-":
                return IntValue(left.value - right.value)
            raise PolicyFormatError(f"unknown arithmetic op {expr[1]!r}")
        if kind == "t":
            name = policy.constants[expr[1]]
            elems = tuple(
                self._eval_expr(arg, policy, ctx, bindings) for arg in expr[2]
            )
            return TuplePattern(name=name.value, elems=elems)
        raise PolicyFormatError(f"unknown expression kind {kind!r}")
