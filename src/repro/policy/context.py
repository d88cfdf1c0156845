"""Evaluation context: what a policy check can observe.

The interpreter never touches the store directly; everything it may
inspect — session identity, object metadata and content, presented
certificates, the pending write — flows through an
:class:`EvalContext`.  The controller builds one per request; tests
build them directly.

Object *content as facts*: ``objSays`` treats an object version's bytes
as a sequence of tuples, one per line, in the policy term syntax
(``'write'('obj',3,h'ab',h'cd',k'fp')``).  The mandatory-access-logging
use case appends such lines to its log objects.

A version's bytes never change, so its :class:`Facts` are a pure
function of them, parsed once per *bytes object*: for a stored version
the controller's loader (:attr:`EvalContext.load_facts`) keeps them on
the object-cache entry holding those bytes
(:meth:`repro.core.cache.CacheManager.facts`).  They are immutable
because they outlive the request that parsed them.

An object's view is anything with a ``current_version`` and a
``versions`` mapping of version -> a row with ``size``,
``content_hash`` and ``policy_hash``: the controller hands over the
object's stored metadata record itself, whose ``digest`` keys the
verdicts cached over it (a view with none keys no verdict).
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.crypto.certs import Certificate
from repro.errors import PolicyError
from repro.policy.ast import (
    HashValue,
    IntValue,
    PubKeyValue,
    StrValue,
    TupleValue,
)
from repro.policy.lexer import TokenType, tokenize


def content_hash(data: bytes) -> str:
    """The hash used for object content everywhere in the system."""
    return hashlib.sha256(data).hexdigest()


def parse_content_tuples(data: bytes) -> list[TupleValue]:
    """Parse object content into ground tuples (see module docstring).

    Lines that do not parse as tuples are ignored — objects holding
    arbitrary payloads simply say nothing.  A line ends at a line feed
    only: ``str.splitlines`` also breaks on U+2028, VT, FF, NEL and bare
    CR, all legal *inside* a string literal, so it let one line say a
    tuple that is no line of it.
    """
    tuples: list[TupleValue] = []
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return tuples
    for line in text.split("\n"):
        line = line.strip(" \t\r")  # the lexer's own blanks, no others
        if not line:
            continue
        parsed = _parse_tuple_line(line)
        if parsed is not None:
            tuples.append(parsed)
    return tuples


def _parse_tuple_line(line: str) -> TupleValue | None:
    try:
        tokens = tokenize(line)
    except PolicyError:
        return None
    index = 0

    def parse_value():
        nonlocal index
        token = tokens[index]
        if token.type is TokenType.INT:
            index += 1
            return IntValue(int(token.text))
        if token.type is TokenType.HASH:
            index += 1
            return HashValue(token.text)
        if token.type is TokenType.PUBKEY:
            index += 1
            return PubKeyValue(token.text)
        if token.type in (TokenType.STRING, TokenType.IDENT):
            name = token.text
            index += 1
            if tokens[index].type is TokenType.LPAREN:
                index += 1
                args = []
                if tokens[index].type is not TokenType.RPAREN:
                    args.append(parse_value())
                    while tokens[index].type is TokenType.COMMA:
                        index += 1
                        args.append(parse_value())
                if tokens[index].type is not TokenType.RPAREN:
                    raise PolicyError("expected )")
                index += 1
                return TupleValue(name=name, args=tuple(args))
            return StrValue(name)
        raise PolicyError("not a value")

    try:
        value = parse_value()
        if tokens[index].type is not TokenType.EOF:
            return None
        return value if isinstance(value, TupleValue) else None
    except (PolicyError, IndexError):
        return None


class Facts(NamedTuple):
    """What one object version says."""

    #: The tuples in content order: the first one a pattern unifies
    #: with is the one that binds its unbound slots.
    ordered: tuple = ()
    #: The same tuples, for a pattern with nothing left to bind.
    ground: frozenset = frozenset()

    @classmethod
    def parse(cls, data: bytes) -> "Facts":
        ordered = tuple(parse_content_tuples(data))
        return cls(ordered, frozenset(ordered))


@dataclass(slots=True, eq=False)
class VersionInfo:
    """One version held in memory with its bytes: the pending write,
    or a version of a view built by hand."""

    size: int
    content_hash: str
    policy_hash: str = ""
    data: bytes = b""
    _facts: Facts | None = None

    @classmethod
    def from_content(
        cls, data: bytes, policy_hash: str = ""
    ) -> "VersionInfo":
        return cls(len(data), content_hash(data), policy_hash, data)

    @property
    def facts(self) -> Facts:
        """What ``objSays`` matches, parsed on first read (most never look)."""
        if self._facts is None:
            self._facts = Facts.parse(self.data)
        return self._facts


def _view(source, object_id: str):
    """``source.objects[object_id]``, looked up (once) by ``source.lookup``."""
    objects = source.objects
    if object_id not in objects and source.lookup is not None:
        objects[object_id] = source.lookup(object_id)
    return objects.get(object_id)


class RequestInputs(NamedTuple):
    """The :class:`EvalContext` fields a request brings before any
    context is built: all the decision cache reads."""

    session_key: str
    this_id: str | None
    log_id: str | None
    request_version: int | None
    certificates: list
    nonce: str
    now: float
    #: The records the request holds, and those a probe looked up.
    objects: dict | None = None
    lookup: Callable | None = None

    view = _view


@dataclass
class EvalContext:
    """Everything observable during one permission check."""

    #: The operation being checked: "read" | "update" | "delete".
    operation: str
    #: Authenticated client key fingerprint (from the TLS session).
    session_key: str
    #: Target object id, or None when it does not exist yet.
    this_id: str | None = None
    #: The log object id bound to ``log`` (MAL convention), if any.
    log_id: str | None = None
    #: The version argument the client supplied with a put/update.
    request_version: int | None = None
    #: Object views by id (see the module docstring).
    objects: dict = field(default_factory=dict)
    #: Resolves an object ``objects`` does not hold, once per check; None
    #: when ``objects`` holds every object there is.
    lookup: Callable | None = None
    #: ``load_facts(object_id, row)``: what a stored version says.  None
    #: when every version carries its own facts (:class:`VersionInfo`).
    load_facts: Callable | None = None
    #: The pending write for the target object, observable as version
    #: current+1 (or 0 on creation).
    pending: VersionInfo | None = None
    #: Certificates presented with the request (plus any chain links).
    certificates: list = field(default_factory=list)
    #: Known public keys by fingerprint — presented certificate keys
    #: plus controller-configured authorities.
    key_registry: dict = field(default_factory=dict)
    #: Trusted wall-clock of the controller (for validity windows).
    now: float = 0.0
    #: Nonce Pesos handed the client for certificate freshness.
    nonce: str = ""

    #: Facts loaded this check, by (object id, version).
    _said: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for certificate in self.certificates:
            key = certificate.public_key
            self.key_registry.setdefault(key.fingerprint(), key)

    # -- object resolution -------------------------------------------------

    view = _view

    def version_info(self, object_id: str, view, version: int):
        """One version of ``view`` (what :meth:`view` gave for
        ``object_id``), including the in-flight pending version."""
        if (
            self.pending is not None
            and object_id == self.this_id
            and version == (view.current_version + 1 if view else 0)
        ):
            return self.pending
        if view is None:
            return None
        return view.versions.get(version)

    def facts(self, object_id: str, info) -> Facts:
        """What ``info``, a version :meth:`version_info` gave, says:
        parsed from its own bytes when it holds them, else loaded once
        per check."""
        if self.load_facts is None or info is self.pending:
            return info.facts
        key = object_id, info.version
        said = self._said.get(key)
        if said is None:
            said = self._said[key] = self.load_facts(object_id, info)
        return said

    # -- certificates --------------------------------------------------------

    def certified_tuples(
        self, authority_fp: str, freshness: float | None
    ) -> list[TupleValue]:
        """Claims from presented certs that verify under ``authority_fp``.

        A certificate counts when: the authority key is known, the
        signature verifies, the validity window contains ``now``, the
        certificate is no older than ``freshness`` seconds (when
        given), and — if the certificate carries a nonce — the nonce
        matches the one Pesos issued for this session.
        """
        authority = self.key_registry.get(authority_fp)
        if authority is None:
            return []
        facts: list[TupleValue] = []
        for certificate in self.certificates:
            if not isinstance(certificate, Certificate):
                continue
            if not certificate.verify_signature(authority):
                continue
            if not certificate.is_valid_at(self.now):
                continue
            if freshness is not None and (
                self.now - certificate.not_before
            ) > freshness:
                continue
            if certificate.nonce and certificate.nonce != self.nonce:
                continue
            for name, args in certificate.claims:
                facts.append(claim_to_tuple(name, args))
        return facts


def claim_to_tuple(name: str, args: tuple) -> TupleValue:
    """Convert a certificate claim into a policy tuple value.

    Claim arguments are JSON primitives; strings prefixed ``k:`` become
    public-key values and ``h:`` hash values.
    """
    converted = []
    for arg in args:
        if isinstance(arg, (int, float)):  # bool included
            converted.append(IntValue(int(arg)))
        elif isinstance(arg, str) and arg.startswith("k:"):
            converted.append(PubKeyValue(arg[2:]))
        elif isinstance(arg, str) and arg.startswith("h:"):
            converted.append(HashValue(arg[2:]))
        elif isinstance(arg, str):
            converted.append(StrValue(arg))
        elif isinstance(arg, (list, tuple)) and arg and isinstance(arg[0], str):
            converted.append(claim_to_tuple(arg[0], tuple(arg[1:])))
        else:
            raise PolicyError(f"cannot convert claim argument {arg!r}")
    return TupleValue(name=name, args=tuple(converted))
