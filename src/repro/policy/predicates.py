"""Predicate registry and specialisers (Table 1).

Each predicate is registered with its opcode and arity bounds, and a
specialiser: given its conjunct's compiled arguments
(:class:`~repro.policy.evalcore.Arg`) and the clause's binding analysis,
it returns a closure ``fn(ctx, slots) -> bool`` built for exactly those
argument modes, or ``None`` when the conjunct can never hold and fails
before it looks at anything.  The closure binds in the order the
predicate observes: ``objSize(O, X, X)`` binds ``X`` while resolving the
version, then compares the size against it.  A type error (an unbound
object, a non-integer version) fails the conjunct, never the request,
and fails it at the point the predicate checks it: after any object
lookup that comes first.

``currIndex``/``nextIndex`` are the index-flavoured aliases the MAL
use case (§5.4) uses for ``currVersion``/``nextVersion``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.errors import PolicyCompileError
from repro.policy.ast import (
    HashValue,
    IntValue,
    NullValue,
    PubKeyValue,
    StrValue,
    TupleValue,
)
from repro.policy.evalcore import (
    CONST,
    FREE,
    TUPLE,
    Arg,
    ClauseScope,
    all_bound,
    is_ground,
    matcher,
    typed_reader,
    unifier,
    value_reader,
)


@dataclass(frozen=True)
class PredicateSpec:
    """Registry entry: opcode, arity bounds, and the specialiser."""

    name: str
    opcode: int
    min_arity: int
    max_arity: int
    specialise: Callable[[list, ClauseScope], Callable | None]


_REGISTRY_BY_NAME: dict[str, PredicateSpec] = {}
_REGISTRY_BY_OPCODE: dict[int, PredicateSpec] = {}


def _register(name: str, opcode: int, min_arity: int, max_arity: int):
    def decorator(specialise: Callable) -> Callable:
        spec = PredicateSpec(
            name=name,
            opcode=opcode,
            min_arity=min_arity,
            max_arity=max_arity,
            specialise=specialise,
        )
        key = name.lower()
        if key in _REGISTRY_BY_NAME or opcode in _REGISTRY_BY_OPCODE:
            raise PolicyCompileError(f"duplicate predicate {name}/{opcode}")
        _REGISTRY_BY_NAME[key] = spec
        _REGISTRY_BY_OPCODE[opcode] = spec
        return specialise

    return decorator


def lookup_predicate(name: str) -> PredicateSpec:
    spec = _REGISTRY_BY_NAME.get(name.lower())
    if spec is None:
        raise PolicyCompileError(f"unknown predicate {name!r}")
    return spec


def predicate_by_opcode(opcode: int) -> PredicateSpec:
    spec = _REGISTRY_BY_OPCODE.get(opcode)
    if spec is None:
        raise PolicyCompileError(f"unknown predicate opcode {opcode}")
    return spec


def all_predicates() -> list[PredicateSpec]:
    return sorted(_REGISTRY_BY_NAME.values(), key=lambda spec: spec.opcode)


# ---------------------------------------------------------------------------
# Relational predicates
# ---------------------------------------------------------------------------

@_register("eq", 1, 2, 2)
def _eq(args: list[Arg], scope: ClauseScope):
    # The ground side is observed, the other compared or set; a tuple
    # term is never the ground side, and two unground sides fail.
    a, b = args
    if not is_ground(a):
        a, b = b, a
    if not is_ground(a):
        return None
    read = value_reader(a, scope)
    match = matcher(b, scope)
    return lambda ctx, slots: match(read(ctx, slots), ctx, slots)


def _relational(op: Callable[[int, int], bool]):
    def specialise(args: list[Arg], scope: ClauseScope):
        left = typed_reader(args[0], scope, IntValue)
        right = typed_reader(args[1], scope, IntValue)
        if left is None or right is None:
            return None

        def compare(ctx, slots):
            a = left(ctx, slots)
            b = right(ctx, slots)
            return a is not None and b is not None and op(a.value, b.value)

        return compare

    return specialise


_register("le", 2, 2, 2)(_relational(lambda a, b: a <= b))
_register("lt", 3, 2, 2)(_relational(lambda a, b: a < b))
_register("ge", 4, 2, 2)(_relational(lambda a, b: a >= b))
_register("gt", 5, 2, 2)(_relational(lambda a, b: a > b))


# ---------------------------------------------------------------------------
# Session and certificate predicates
# ---------------------------------------------------------------------------

@_register("sessionKeyIs", 11, 1, 1)
def _session_key_is(args: list[Arg], scope: ClauseScope):
    (key,) = args
    if key.mode == CONST:
        if not isinstance(key.payload, PubKeyValue):
            return None
        # A literal key is a string compare on the fingerprint: the
        # hottest conjunct in ACL policies.
        fingerprint = key.payload.value
        return lambda ctx, slots: ctx.session_key == fingerprint
    match = matcher(key, scope)
    return lambda ctx, slots: match(PubKeyValue(ctx.session_key), ctx, slots)


def _tuple_arg(arg: Arg, scope: ClauseScope):
    """``(read, None)`` for a tuple argument with nothing left to bind,
    ``(None, unify)`` for one with slots to bind, ``(None, None)`` for
    an argument that is no tuple when its conjunct starts."""
    if arg.mode == TUPLE and not all_bound(arg, scope):
        return None, unifier(arg, scope)
    return typed_reader(arg, scope, TupleValue), None


@_register("certificateSays", 10, 2, 3)
def _certificate_says(args: list[Arg], scope: ClauseScope):
    read_key = typed_reader(args[0], scope, PubKeyValue)
    window = typed_reader(args[1], scope, IntValue) if len(args) == 3 else None
    read, unify = _tuple_arg(args[-1], scope)
    if read_key is None or (len(args) == 3 and window is None) or not (
        read or unify
    ):
        return None

    def says(ctx, slots):
        key = read_key(ctx, slots)
        if key is None:
            return False
        seconds = None
        if window is not None:
            number = window(ctx, slots)
            if number is None:
                return False
            seconds = float(number.value)
        if read is None:
            facts = ctx.certified_tuples(key.value, seconds)
            return any(unify(fact, ctx, slots) for fact in facts)
        pattern = read(ctx, slots)
        return pattern is not None and pattern in ctx.certified_tuples(
            key.value, seconds
        )

    return says


# ---------------------------------------------------------------------------
# Object predicates
# ---------------------------------------------------------------------------

@_register("objId", 20, 2, 2)
def _obj_id(args: list[Arg], scope: ClauseScope):
    obj, ident = args
    read_obj = typed_reader(obj, scope, (StrValue, NullValue))
    if read_obj is None:
        return None
    # NULL as the argument was evaluated: a slot bound since is not.
    read_null = typed_reader(ident, scope, NullValue) if is_ground(ident) else None
    match = matcher(ident, scope)

    def obj_id(ctx, slots):
        value = read_obj(ctx, slots)
        is_null = read_null is not None and read_null(ctx, slots) is not None
        if isinstance(value, NullValue):
            # The object does not exist: only objId(x, NULL) holds.
            return is_null
        return value is not None and not is_null and match(value, ctx, slots)

    return obj_id


#: Current versions as values, shared by the verdicts the cache holds.
_version_value = lru_cache(maxsize=1024)(IntValue)


def _resolver(obj: Arg, version: Arg, scope: ClauseScope):
    """``fn(ctx, slots) -> VersionInfo | None`` for the version
    ``(obj, version)`` name; an unbound version is bound to the object's
    current one.  ``None`` when ``obj`` is never an object id."""
    read_obj = typed_reader(obj, scope, StrValue)
    if read_obj is None:
        return None
    slot = version.payload
    bind_current = version.mode == FREE
    if bind_current:
        scope.bound.add(slot)
    else:
        read_number = typed_reader(version, scope, IntValue)

    def resolve(ctx, slots):
        value = read_obj(ctx, slots)
        if value is None:
            return None
        view = ctx.view(value.value)
        if bind_current:
            if view is None:
                return None
            number = _version_value(view.current_version)
            slots[slot] = number
        else:
            # Checked after the object is looked up, as it always was.
            number = read_number and read_number(ctx, slots)
            if number is None:
                return None
        return ctx.version_info(value.value, view, number.value)

    return resolve


@_register("currVersion", 21, 2, 2)
def _curr_version(args: list[Arg], scope: ClauseScope):
    read_obj = typed_reader(args[0], scope, StrValue)
    if read_obj is None:
        return None
    match = matcher(args[1], scope)

    def curr_version(ctx, slots):
        value = read_obj(ctx, slots)
        view = None if value is None else ctx.view(value.value)
        return view is not None and match(
            _version_value(view.current_version), ctx, slots
        )

    return curr_version


_register("currIndex", 27, 2, 2)(_curr_version)


@_register("nextVersion", 22, 1, 1)
def _next_version(args: list[Arg], scope: ClauseScope):
    match = matcher(args[-1], scope)

    def next_version(ctx, slots):
        number = ctx.request_version
        return number is not None and match(IntValue(number), ctx, slots)

    return next_version


@_register("nextIndex", 28, 1, 2)
def _next_index(args: list[Arg], scope: ClauseScope):
    # Two-argument form names the object first (MAL example); the
    # request's version argument is object-independent either way.
    if len(args) == 1:
        return _next_version(args, scope)
    read_obj = typed_reader(args[0], scope, StrValue)
    next_version = _next_version(args, scope)
    if read_obj is None:
        return None
    return lambda ctx, slots: (
        read_obj(ctx, slots) is not None and next_version(ctx, slots)
    )


def _version_metadata(extract: Callable):
    def specialise(args: list[Arg], scope: ClauseScope):
        resolve = _resolver(args[0], args[1], scope)
        if resolve is None:
            return None
        match = matcher(args[2], scope)

        def metadata(ctx, slots):
            info = resolve(ctx, slots)
            return info is not None and match(extract(info), ctx, slots)

        return metadata

    return specialise


_register("objSize", 23, 3, 3)(
    _version_metadata(lambda info: IntValue(info.size))
)
_register("objPolicy", 24, 3, 3)(
    _version_metadata(lambda info: HashValue(info.policy_hash))
)
_register("objHash", 25, 3, 3)(
    _version_metadata(lambda info: HashValue(info.content_hash))
)


@_register("objSays", 26, 3, 3)
def _obj_says(args: list[Arg], scope: ClauseScope):
    read_obj = typed_reader(args[0], scope, StrValue)
    resolve = _resolver(args[0], args[1], scope)
    if resolve is None:
        return None
    read, unify = _tuple_arg(args[2], scope)

    def says(ctx, slots):
        info = resolve(ctx, slots)
        if info is None or not (read or unify):
            return False
        # The object ``resolve`` just read: reading it again is pure.
        object_id = read_obj(ctx, slots).value
        if read is not None:
            # Nothing to bind, so no fact's position matters: a lookup,
            # however long the log has grown.
            pattern = read(ctx, slots)
            return pattern is not None and (
                pattern in ctx.facts(object_id, info).ground
            )
        # The first fact in content order that unifies binds the slots.
        facts = ctx.facts(object_id, info).ordered
        return any(unify(fact, ctx, slots) for fact in facts)

    return says
