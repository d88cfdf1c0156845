"""Predicate registry and implementations (Table 1).

Every predicate receives the evaluation context, the clause's variable
bindings, and its already-evaluated arguments (values, unbound slots,
or tuple patterns), and returns whether it holds — binding variables
per the compare-or-set semantics as a side effect.

``currIndex``/``nextIndex`` are the index-flavoured aliases the MAL
use case (§5.4) uses for ``currVersion``/``nextVersion``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.policy.context import EvalContext
from repro.policy.evalcore import (
    Bindings,
    EvalError,
    TuplePattern,
    Unbound,
    as_object_id,
    compare_or_set,
    ground_tuple,
    require_int,
    unify_tuple,
)


@dataclass(frozen=True)
class PredicateSpec:
    """Registry entry: opcode, arity bounds, and the implementation."""

    name: str
    opcode: int
    min_arity: int
    max_arity: int
    impl: Callable


_REGISTRY_BY_NAME: dict[str, PredicateSpec] = {}
_REGISTRY_BY_OPCODE: dict[int, PredicateSpec] = {}


def _register(name: str, opcode: int, min_arity: int, max_arity: int):
    def decorator(impl: Callable) -> Callable:
        spec = PredicateSpec(
            name=name,
            opcode=opcode,
            min_arity=min_arity,
            max_arity=max_arity,
            impl=impl,
        )
        key = name.lower()
        if key in _REGISTRY_BY_NAME or opcode in _REGISTRY_BY_OPCODE:
            raise PolicyCompileError(f"duplicate predicate {name}/{opcode}")
        _REGISTRY_BY_NAME[key] = spec
        _REGISTRY_BY_OPCODE[opcode] = spec
        return impl

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


_register("le", 2, 2, 2)(_relational(lambda a, b: a <= b))
_register("lt", 3, 2, 2)(_relational(lambda a, b: a < b))
_register("ge", 4, 2, 2)(_relational(lambda a, b: a >= b))
_register("gt", 5, 2, 2)(_relational(lambda a, b: a > b))


# ---------------------------------------------------------------------------
# Session and certificate predicates
# ---------------------------------------------------------------------------

@_register("sessionKeyIs", 11, 1, 1)
def _session_key_is(ctx: EvalContext, bindings: Bindings, args) -> bool:
    return compare_or_set(args[0], PubKeyValue(ctx.session_key), bindings)


@_register("certificateSays", 10, 2, 3)
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


# ---------------------------------------------------------------------------
# Object predicates
# ---------------------------------------------------------------------------

@_register("objId", 20, 2, 2)
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
    """The version ``args[:2]`` name (object, version), or ``None``; an
    unbound version argument is bound to the object's current one."""
    object_id, view = _resolve_object(ctx, args[0])
    if object_id is None:
        return None
    version_arg = args[1]
    if not isinstance(version_arg, Unbound):
        version = require_int(version_arg, "version")
    elif view is None:
        return None
    else:
        version = view.current_version
        bindings.bind(version_arg.slot, IntValue(version))
    return ctx.version_info(object_id, version)


@_register("currVersion", 21, 2, 2)
def _curr_version(ctx: EvalContext, bindings: Bindings, args) -> bool:
    _object_id, view = _resolve_object(ctx, args[0])
    if view is None:
        return False
    return compare_or_set(args[1], IntValue(view.current_version), bindings)


_register("currIndex", 27, 2, 2)(_curr_version)


@_register("nextVersion", 22, 1, 1)
def _next_version(ctx: EvalContext, bindings: Bindings, args) -> bool:
    if ctx.request_version is None:
        return False
    return compare_or_set(args[0], IntValue(ctx.request_version), bindings)


@_register("nextIndex", 28, 1, 2)
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
        info = _resolve_info(ctx, bindings, args)
        if info is None:
            return False
        return compare_or_set(args[2], extract(info), bindings)

    return impl


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
def _obj_says(ctx: EvalContext, bindings: Bindings, args) -> bool:
    info = _resolve_info(ctx, bindings, args)
    if info is None:
        return False
    pattern = args[2]
    if not isinstance(pattern, (TuplePattern, TupleValue)):
        raise EvalError("objSays needs a tuple argument")
    facts = info.facts
    ground = ground_tuple(pattern)
    if ground is not None:
        # Nothing to bind, so no fact's position matters: a lookup,
        # however long the log has grown.
        return ground in facts.ground
    for fact in facts.ordered:
        if unify_tuple(pattern, fact, bindings):
            return True
    return False
