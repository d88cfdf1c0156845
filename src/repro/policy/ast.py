"""AST nodes and runtime values of the policy language.

The language has five value types (§3.3): integers, strings, hashes,
public keys, and tuples ``key(v1, ...)``.  Terms appearing in predicate
arguments are literals of those types, variables, the special object
references ``this`` and ``log``, or integer arithmetic (needed for the
versioned-store policy's ``nextVersion(cV + 1)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IntValue:
    value: int

    def render(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class StrValue:
    value: str

    def render(self) -> str:
        return f"'{self.value}'"


@dataclass(frozen=True, slots=True)
class HashValue:
    """A content hash (hex string)."""

    value: str

    def render(self) -> str:
        return f"h'{self.value}'"


@dataclass(frozen=True, slots=True)
class PubKeyValue:
    """A public-key fingerprint, as produced by client certificates."""

    value: str

    def render(self) -> str:
        return f"k'{self.value}'"


@dataclass(frozen=True, slots=True)
class NullValue:
    """The NULL object id (used for not-yet-created objects)."""

    def render(self) -> str:
        return "NULL"


@dataclass(frozen=True, slots=True)
class TupleValue:
    """A named tuple ``key(v1, ..., vn)``."""

    name: str
    args: tuple

    def render(self) -> str:
        inner = ",".join(arg.render() for arg in self.args)
        return f"'{self.name}'({inner})"


Value = Union[IntValue, StrValue, HashValue, PubKeyValue, NullValue, TupleValue]


# ---------------------------------------------------------------------------
# Terms (argument expressions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    """A constant value term."""

    value: Value


@dataclass(frozen=True)
class Variable:
    """A policy variable: bound on first use, compared afterwards."""

    name: str


@dataclass(frozen=True)
class ObjectRef:
    """``this`` or ``log`` — resolved from the evaluation context."""

    name: str  # "this" | "log"


@dataclass(frozen=True)
class Arith:
    """Integer arithmetic ``left op right`` with op in {+, -}."""

    op: str
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class TupleTerm:
    """A tuple whose arguments are themselves terms (may hold variables)."""

    name: str
    args: tuple


Term = Union[Literal, Variable, ObjectRef, Arith, TupleTerm]


# ---------------------------------------------------------------------------
# Policy structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Predicate:
    """One predicate application, e.g. ``currVersion(o, cV)``."""

    name: str
    args: tuple  # of Term


@dataclass(frozen=True)
class Clause:
    """A conjunction of predicates."""

    predicates: tuple  # of Predicate


@dataclass(frozen=True)
class Permission:
    """One ``perm :- clause \\/ clause ...`` rule."""

    operation: str  # "read" | "update" | "delete"
    clauses: tuple  # of Clause; empty means never granted


@dataclass(frozen=True)
class PolicyAst:
    """A full parsed policy: up to one rule per operation."""

    permissions: tuple  # of Permission

    def permission(self, operation: str) -> Permission | None:
        for perm in self.permissions:
            if perm.operation == operation:
                return perm
        return None
