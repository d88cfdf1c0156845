"""Evaluation primitives shared by predicates and the interpreter.

Implements Guardat's "compares or sets" argument semantics: a variable
argument that is unbound when a predicate runs gets *bound* to the
predicate's observed value; a bound variable (or literal) must *equal*
it.  Tuple arguments unify element-wise the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PolicyError
from repro.policy.ast import IntValue, NullValue, StrValue, TupleValue, Value


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


def ground_tuple(pattern) -> TupleValue | None:
    """The tuple ``pattern`` denotes, or ``None`` while a slot in it is
    unbound (even one the predicate has bound since evaluating it).

    With nothing to bind, :func:`unify_tuple` against a fact is equality
    with this value, so a set of facts answers by membership.
    """
    if isinstance(pattern, TupleValue):
        return pattern
    args = []
    for element in pattern.elems:
        if isinstance(element, TuplePattern):
            element = ground_tuple(element)
        if element is None or isinstance(element, Unbound):
            return None
        args.append(element)
    return TupleValue(pattern.name, tuple(args))


def render_bindings(snapshot: dict) -> str:
    """Canonical one-line rendering of a bindings snapshot.

    Deterministic (sorted names, each value via its ``render()``), so
    audit-trail records embedding it stay byte-reproducible.
    """
    return ",".join(
        f"{name}={value.render()}"
        for name, value in sorted(snapshot.items())
    )


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
