"""Argument modes: the binding analysis behind the compiled closures.

Guardat's "compares or sets" semantics (§3.3): the first occurrence of
a variable in a clause *binds* it to what its predicate observes, every
later one must *equal* that binding.  Conjuncts run left to right, and
a Table 1 predicate that holds has bound every variable it mentions, so
which occurrence is which is known when the clause is compiled.  The
evaluator never asks at run time.

A clause's state is a plain list of slots, one per policy variable
(``None`` while unbound) plus one scratch slot per arithmetic
expression that must wait for the request.  Each argument compiles,
against the slots bound when its conjunct starts, to one :class:`Arg`
mode:

``CONST``   a constant (arithmetic over constants folded)
``SLOT``    a read of a slot known to be bound (a scratch slot included)
``FREE``    a slot known to be unbound: bound by its predicate
``REF``     ``this`` or ``log``
``TUPLE``   a tuple term, payload ``(name, element Args)``
``BROKEN``  arithmetic over a slot not yet bound: the conjunct fails
            structurally before its predicate runs

Arithmetic over bound slots runs into its scratch slot before its
predicate, as argument evaluation did, and fails the conjunct on a
non-integer.  Predicates (:mod:`repro.policy.predicates`) turn the
modes into closures with the readers and matchers below.  A tuple whose
slots are all bound by the time its predicate reads it is built as a
:class:`TupleValue` from them and compared or looked up; any other is a
unifier that binds its first occurrences straight into the slots.  A
fact it fails against leaves only slots that the next fact's attempt
writes before it reads them, and a conjunct that matches nothing ends
its clause, so no staging is needed.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from repro.policy.ast import IntValue, NullValue, StrValue, TupleValue

CONST, SLOT, FREE, REF, TUPLE, BROKEN = range(6)

_NULL = NullValue()


class Arg(NamedTuple):
    """One compiled argument: its mode and what the mode needs."""

    mode: int
    payload: object = None


_BROKEN = Arg(BROKEN)


class ClauseScope:
    """The binding analysis of one clause, conjunct by conjunct."""

    def __init__(self, constants: list, num_vars: int):
        self.constants = constants
        #: Slots bound at this point: at a conjunct's start every slot an
        #: earlier conjunct mentions, then whatever its predicate binds.
        self.bound: set[int] = set()
        #: ``this``/``log`` references met anywhere in the clause.
        self.refs: set[str] = set()
        #: Slots first bound by ``objId(this|log, X)``: which record an
        #: object argument naming one reads.
        self.records: dict[int, str] = {}
        self.width = num_vars
        #: The current conjunct's arithmetic, run before its predicate.
        self.prelude: list = []

    def scratch(self) -> int:
        self.width += 1
        return self.width - 1


def compile_arg(expr, scope: ClauseScope) -> Arg:
    """The mode of argument expression ``expr`` at its conjunct's start."""
    kind = expr[0]
    if kind == "c":
        return Arg(CONST, scope.constants[expr[1]])
    if kind == "v":
        return Arg(SLOT if expr[1] in scope.bound else FREE, expr[1])
    if kind == "r":
        scope.refs.add(expr[1])
        return Arg(REF, expr[1])
    if kind == "a":
        return _compile_arith(expr, scope)
    elems = tuple(compile_arg(element, scope) for element in expr[2])
    if _BROKEN in elems:
        return _BROKEN
    return Arg(TUPLE, (scope.constants[expr[1]].value, elems))


def _compile_arith(expr, scope: ClauseScope) -> Arg:
    sign = 1 if expr[1] == "+" else -1
    left = compile_arg(expr[2], scope)
    right = compile_arg(expr[3], scope)
    if left.mode == CONST and right.mode == CONST:
        a, b = left.payload, right.payload
        if isinstance(a, IntValue) and isinstance(b, IntValue):
            return Arg(CONST, IntValue(a.value + sign * b.value))
    read_a = typed_reader(left, scope, IntValue)
    read_b = typed_reader(right, scope, IntValue)
    if read_a is None or read_b is None:
        return _BROKEN
    out = scope.scratch()

    def arith(ctx, slots):
        a = read_a(ctx, slots)
        b = read_b(ctx, slots)
        if a is None or b is None:
            return False
        slots[out] = IntValue(a.value + sign * b.value)
        return True

    scope.prelude.append(arith)
    return Arg(SLOT, out)


def is_constant(arg: Arg) -> bool:
    """Known at compile time: a constant, or a tuple of constants."""
    if arg.mode == TUPLE:
        return all(is_constant(element) for element in arg.payload[1])
    return arg.mode == CONST


def is_ground(arg: Arg) -> bool:
    """A value when its conjunct starts (a tuple term never is one)."""
    return arg.mode in (CONST, SLOT, REF)


def all_bound(arg: Arg, scope: ClauseScope) -> bool:
    """Nothing left to bind in ``arg`` at this point of its conjunct."""
    if arg.mode == FREE:
        return arg.payload in scope.bound
    if arg.mode == TUPLE:
        return all(all_bound(element, scope) for element in arg.payload[1])
    return True


def slots_of(expr) -> set[int]:
    """Every variable slot argument expression ``expr`` mentions."""
    kind = expr[0]
    if kind == "v":
        return {expr[1]}
    if kind == "a":
        return slots_of(expr[2]) | slots_of(expr[3])
    if kind == "t":
        return set().union(*map(slots_of, expr[2]))
    return set()


# ---------------------------------------------------------------------------
# Readers fn(ctx, slots) -> Value and matchers fn(value, ctx, slots) -> bool
# ---------------------------------------------------------------------------

def value_reader(arg: Arg, scope: ClauseScope):
    """Reader of an argument bound by now: a ground argument, or a
    tuple term whose slots are all bound."""
    mode, payload = arg
    if mode == CONST:
        return lambda ctx, slots: payload
    if mode in (SLOT, FREE):
        return lambda ctx, slots: slots[payload]
    if mode == REF:
        if payload == "this":
            return lambda ctx, slots: (
                _NULL if ctx.this_id is None else StrValue(ctx.this_id)
            )
        return lambda ctx, slots: (
            _NULL if ctx.log_id is None else StrValue(ctx.log_id)
        )
    name, elems = payload
    if len(elems) > 1 and all(element.mode in (SLOT, FREE) for element in elems):
        # Slot reads only (the MAL grant's 'read'(O, V, U)): one C call.
        pick = itemgetter(*(element.payload for element in elems))
        return lambda ctx, slots: TupleValue(name, pick(slots))
    readers = [value_reader(element, scope) for element in elems]
    return lambda ctx, slots: TupleValue(
        name, tuple([read(ctx, slots) for read in readers])
    )


def typed_reader(arg: Arg, scope: ClauseScope, types):
    """Reader of an argument as a predicate type-checks it: its value
    when that is one of ``types``, else ``None``.  ``None`` instead of
    a reader when the argument is unbound as its conjunct starts."""
    mode, payload = arg
    if mode in (FREE, BROKEN) or not all_bound(arg, scope):
        return None
    if mode == CONST:
        value = payload if isinstance(payload, types) else None
        return lambda ctx, slots: value
    if mode == SLOT:
        return lambda ctx, slots: (
            value if isinstance(value := slots[payload], types) else None
        )
    read = value_reader(arg, scope)

    def checked(ctx, slots):
        value = read(ctx, slots)
        return value if isinstance(value, types) else None

    return checked


def matcher(arg: Arg, scope: ClauseScope):
    """Compare-or-set ``arg`` against a value its predicate observed.
    Compiling it marks what it binds."""
    mode, payload = arg
    if mode == FREE and payload not in scope.bound:
        scope.bound.add(payload)

        def bind(value, ctx, slots):
            slots[payload] = value
            return True

        return bind
    if mode == TUPLE and not all_bound(arg, scope):
        return unifier(arg, scope)
    read = value_reader(arg, scope)
    return lambda value, ctx, slots: read(ctx, slots) == value


def unifier(arg: Arg, scope: ClauseScope):
    """Matcher of a tuple term with slots left to bind: name, arity,
    then each element in order."""
    name, elems = arg.payload
    arity = len(elems)
    checks = [matcher(element, scope) for element in elems]

    def unify(value, ctx, slots):
        if (
            not isinstance(value, TupleValue)
            or value.name != name
            or len(value.args) != arity
        ):
            return False
        for check, actual in zip(checks, value.args):
            if not check(actual, ctx, slots):
                return False
        return True

    return unify


def render_bindings(snapshot: dict) -> str:
    """Canonical one-line rendering of a bindings snapshot.

    Deterministic (sorted names, each value via its ``render()``), so
    audit-trail records embedding it stay byte-reproducible.
    """
    return ",".join(
        f"{name}={value.render()}"
        for name, value in sorted(snapshot.items())
    )
