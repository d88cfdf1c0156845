"""The compact binary policy format.

The policy compiler turns an AST into this representation once, at
submission time; every subsequent permission check interprets the
binary form directly (the paper's "binary-format interpreter", §1).
A blob fetched from a drive is checked structurally once, here, so the
evaluator never indexes something a malformed blob left out of range.

Layout (serialized with the same TLV field encoding as the Kinetic
protocol)::

    version        u8
    constants      list of tagged values (the constant pool)
    variables      list of slot names (index = slot number)
    permissions    op -> list of clauses; a clause is a list of
                   (opcode, arg-expressions) instructions

Argument expressions are prefix-encoded trees::

    ['c', pool_index]                  constant
    ['v', slot]                        variable slot
    ['r', 'this' | 'log']              object reference
    ['a', '+'|'-', left, right]        integer arithmetic
    ['t', pool_index(name), [args]]    tuple pattern

A policy's identity is the SHA-256 of its serialized bytes, so equal
policies share cache entries and the hash doubles as the integrity
check ``objPolicy`` inspects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import PesosError, PolicyCompileError, PolicyFormatError
from repro.kinetic.protocol import decode_fields, encode_fields
from repro.policy.ast import (
    HashValue,
    IntValue,
    NullValue,
    PubKeyValue,
    StrValue,
    TupleValue,
    Value,
)
from repro.policy.predicates import predicate_by_opcode

FORMAT_VERSION = 1

_VALUE_TAGS = {
    IntValue: "i",
    StrValue: "s",
    HashValue: "h",
    PubKeyValue: "k",
    NullValue: "n",
    TupleValue: "t",
}


def _encode_value(value: Value) -> list:
    tag = _VALUE_TAGS[type(value)]
    if isinstance(value, IntValue):
        return [tag, value.value]
    if isinstance(value, NullValue):
        return [tag]
    if isinstance(value, TupleValue):
        return [tag, value.name, [_encode_value(arg) for arg in value.args]]
    return [tag, value.value]


_STRING_TAGS = {"s": StrValue, "h": HashValue, "k": PubKeyValue}


def _require(ok: bool, what: str, item=None) -> None:
    # ``item`` is rendered only on failure: this runs per expression.
    if not ok:
        detail = what if item is None else f"{what} {item!r}"
        raise PolicyFormatError(f"malformed policy: {detail}")


def _decode_value(item) -> Value:
    _require(
        isinstance(item, list) and bool(item) and isinstance(item[0], str),
        "constant",
        item,
    )
    tag, *rest = item
    if tag == "n" and not rest:
        return NullValue()
    if tag == "i" and len(rest) == 1 and isinstance(rest[0], int):
        return IntValue(rest[0])
    if tag in _STRING_TAGS and len(rest) == 1 and isinstance(rest[0], str):
        return _STRING_TAGS[tag](rest[0])
    if (
        tag == "t"
        and len(rest) == 2
        and isinstance(rest[0], str)
        and isinstance(rest[1], list)
    ):
        return TupleValue(
            name=rest[0], args=tuple(_decode_value(arg) for arg in rest[1])
        )
    raise PolicyFormatError(f"malformed policy: constant {item!r}")


def _decode_instruction(item) -> "Instruction":
    _require(isinstance(item, list) and len(item) == 2, "instruction", item)
    return Instruction(opcode=item[0], args=item[1])


def _in_range(index, pool: list) -> bool:
    return isinstance(index, int) and 0 <= index < len(pool)


@dataclass
class Instruction:
    """One predicate invocation in compiled form."""

    opcode: int
    args: list  # prefix-encoded argument expression trees


@dataclass
class CompiledPolicy:
    """A policy in binary form, ready for interpretation."""

    constants: list = field(default_factory=list)
    variables: list = field(default_factory=list)
    #: operation -> list of clauses -> list of Instruction
    permissions: dict = field(default_factory=dict)
    source: str = ""

    _blob_cache: bytes | None = field(default=None, repr=False, compare=False)
    _hash_cache: str | None = field(default=None, repr=False, compare=False)
    #: Memoized closure compilation (:mod:`repro.policy.compiled`).
    #: Living on the instance ties its lifetime to the policy-cache
    #: entry: LFU eviction drops the compiled form with the policy.
    _fast_cache: object | None = field(default=None, repr=False, compare=False)

    def to_bytes(self) -> bytes:
        """Serialize; cached because the policy id hashes this blob."""
        if self._blob_cache is None:
            self._blob_cache = encode_fields(
                {
                    "version": FORMAT_VERSION,
                    "constants": [
                        _encode_value(value) for value in self.constants
                    ],
                    "variables": list(self.variables),
                    "permissions": [
                        [
                            op,
                            [
                                [[inst.opcode, inst.args] for inst in clause]
                                for clause in clauses
                            ],
                        ]
                        for op, clauses in sorted(self.permissions.items())
                    ],
                }
            )
        return self._blob_cache

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CompiledPolicy":
        try:
            fields = decode_fields(blob)
        except PesosError as exc:
            # The wire decoder's whole error surface (KineticError /
            # VarintError) shares this root; see the decoder fuzz test.
            raise PolicyFormatError(f"corrupt policy blob: {exc}") from exc
        if fields.get("version") != FORMAT_VERSION:
            raise PolicyFormatError(
                f"unsupported policy format version {fields.get('version')!r}"
            )
        parts = [
            fields.get(name)
            for name in ("constants", "variables", "permissions")
        ]
        _require(
            all(isinstance(part, list) for part in parts),
            "constants, variables and permissions must be lists",
        )
        constants, variables, rules = parts
        permissions = {}
        for rule in rules:
            _require(
                isinstance(rule, list)
                and len(rule) == 2
                and isinstance(rule[0], str)
                and isinstance(rule[1], list)
                and all(isinstance(clause, list) for clause in rule[1]),
                "permission",
                rule,
            )
            permissions[rule[0]] = [
                [_decode_instruction(item) for item in clause]
                for clause in rule[1]
            ]
        policy = cls(
            constants=[_decode_value(item) for item in constants],
            variables=variables,
            permissions=permissions,
        )
        policy.validate()
        policy._blob_cache = blob
        return policy

    def validate(self) -> None:
        """Raise :class:`PolicyFormatError` unless every instruction
        names a registered predicate within its arity and every
        expression indexes inside the constant pool and variable slots
        — so evaluation can index without checking."""
        _require(
            all(isinstance(name, str) for name in self.variables),
            "variable names must be strings",
        )
        for clauses in self.permissions.values():
            for clause in clauses:
                for inst in clause:
                    self._check_instruction(inst)

    def _check_instruction(self, inst: Instruction) -> None:
        _require(isinstance(inst.opcode, int), "opcode", inst.opcode)
        try:
            spec = predicate_by_opcode(inst.opcode)
        except PolicyCompileError as exc:
            raise PolicyFormatError(f"malformed policy: {exc}") from exc
        _require(
            isinstance(inst.args, list)
            and spec.min_arity <= len(inst.args) <= spec.max_arity,
            f"{spec.name} arguments",
            inst.args,
        )
        for expr in inst.args:
            self._check_expr(expr)

    def _check_expr(self, expr) -> None:
        _require(isinstance(expr, list) and bool(expr), "expression", expr)
        kind, *rest = expr
        nested: list = []
        if kind == "c":
            ok = len(rest) == 1 and _in_range(rest[0], self.constants)
        elif kind == "v":
            ok = len(rest) == 1 and _in_range(rest[0], self.variables)
        elif kind == "r":
            ok = rest in (["this"], ["log"])
        elif kind == "a":
            ok = len(rest) == 3 and rest[0] in ("+", "-")
            nested = rest[1:]
        elif kind == "t":
            ok = (
                len(rest) == 2
                and _in_range(rest[0], self.constants)
                and isinstance(self.constants[rest[0]], StrValue)
                and isinstance(rest[1], list)
            )
            nested = rest[1] if ok else []
        else:
            ok = False
        _require(ok, "expression", expr)
        for child in nested:
            self._check_expr(child)

    def policy_hash(self) -> str:
        """Content-addressed identity of this policy.

        Memoized: the hash is consulted on every audited decision (and
        by the decision cache), so recomputing SHA-256 over the blob
        per check would put hashing back on the hot path.
        """
        if self._hash_cache is None:
            self._hash_cache = hashlib.sha256(self.to_bytes()).hexdigest()
        return self._hash_cache

    def size_bytes(self) -> int:
        return len(self.to_bytes())

    def operations(self) -> list:
        return sorted(self.permissions)
