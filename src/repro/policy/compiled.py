"""The policy evaluator: compiled closures fronted by a decision cache.

This is the paper's one binary-format interpreter (§1, §3.3).  Each
clause of a permission's disjunctive normal form gets fresh variable
bindings and its predicates run left to right; the first clause whose
predicates all hold grants the permission.  A structurally failing
clause (unbound arithmetic, type confusion) simply does not grant —
other disjuncts are still tried.  An operation with no rule in the
policy is denied (deny by default).

``compiled_form``
    Partially evaluates a :class:`~repro.policy.binary.CompiledPolicy`
    once into per-clause lists of Python closures, one per conjunct.
    Constant subexpressions fold at compile time; a conjunct whose
    arguments are all constants and whose predicate is context-free
    collapses to a closure returning a known boolean; ``sessionKeyIs``
    against a ground key becomes a string comparison.  Every conjunct
    still counts as one evaluated predicate, so ``Decision`` — and the
    audit chain built from it — does not depend on what folded.  The
    input was checked by ``CompiledPolicy.validate``; a policy that
    fails it raises :class:`~repro.errors.PolicyFormatError` here.

``DecisionCache``
    Memoizes decisions keyed by ``(policy_hash, operation, request
    shape)``; the shape is the policy's read-set
    (:meth:`FastPolicy.request_shape`).  Only decisions for policies
    that never read object state are cached, so a verdict is a pure
    function of its key: policy ids are content hashes, nothing the
    store holds is in the read-set, and entries carry a
    ``valid_until`` derived from the certificate validity windows and
    the policy's freshness constants, so time-based release never
    serves a stale verdict.  Object predicates always re-evaluate so
    their cache/store access pattern — which the effects ledger
    records — is unchanged.

``tests/policy/reference_interpreter.py`` keeps the tree-walking
evaluator as the differential oracle; nothing here imports it.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.crypto.certs import Certificate
from repro.policy.ast import IntValue, NullValue, PubKeyValue, StrValue
from repro.policy.binary import CompiledPolicy
from repro.policy.context import EvalContext
from repro.policy.evalcore import (
    Bindings,
    EvalError,
    TuplePattern,
    render_bindings,
)
from repro.policy.predicates import predicate_by_opcode

#: Opcodes whose implementations consult object state (``ctx.view`` /
#: ``ctx.version_info``): currVersion, objSize, objPolicy, objHash,
#: objSays, currIndex.  ``objId`` (20) and ``nextVersion``/``nextIndex``
#: only look at the evaluated arguments and the request.
_OBJECT_OPCODES = frozenset({21, 23, 24, 25, 26, 27})

#: Predicates that are pure functions of their (ground) arguments, so a
#: conjunct applying one to constants collapses at compile time.
_CONTEXT_FREE = frozenset({"eq", "le", "lt", "ge", "gt"})

_CERTIFICATE_SAYS = 10
_SESSION_KEY_IS = 11
#: nextVersion, nextIndex: the opcodes that read ``ctx.request_version``.
_VERSION_OPCODES = frozenset({22, 28})

_NO_BINDINGS: Mapping = MappingProxyType({})


@dataclass(frozen=True)
class Decision:
    """Outcome of a permission check, with diagnostics.

    Immutable, bindings included: the decision cache returns the object
    it holds, so nothing a caller does may change the next hit.
    """

    granted: bool
    operation: str
    matched_clause: int | None = None
    #: The granting clause's bound variables by name, read-only (any
    #: other mapping handed to the constructor is copied behind a view).
    bindings: Mapping = field(default_factory=lambda: _NO_BINDINGS)
    predicates_evaluated: int = 0

    def __post_init__(self) -> None:
        if type(self.bindings) is not MappingProxyType:
            object.__setattr__(
                self, "bindings", MappingProxyType(dict(self.bindings))
            )

    def __bool__(self) -> bool:
        return self.granted

    @property
    def clause_path(self) -> str:
        """Canonical path of the verdict inside the policy DNF.

        The audit trail records this so an operator can answer "which
        policy clause allowed this GET?" without re-running the
        evaluator: ``read/clause[2]`` names the granting disjunct,
        ``read/denied`` means every clause refused.
        """
        if not self.granted:
            return f"{self.operation}/denied"
        if self.matched_clause is None:
            return f"{self.operation}/no-clause"
        return f"{self.operation}/clause[{self.matched_clause}]"

    def audit_detail(self) -> str:
        """Deterministic diagnostics string for the audit record."""
        detail = f"predicates={self.predicates_evaluated}"
        if self.bindings:
            detail += f";bindings[{render_bindings(self.bindings)}]"
        return detail


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

def _compile_expr(expr, fast: "FastPolicy"):
    """Compile an argument expression tree.

    Returns ``("const", value)`` when the expression is a compile-time
    constant, else ``("dyn", fn)`` with ``fn(ctx, bindings) -> value``.
    """
    kind = expr[0]
    if kind == "c":
        return ("const", fast.policy.constants[expr[1]])
    if kind == "v":
        return (
            "dyn",
            lambda ctx, bindings, _slot=expr[1]: bindings.lookup(_slot),
        )
    if kind == "r":
        # The only way a conjunct learns the target or log id.
        if expr[1] == "this":
            fast.reads_this = True
        else:
            fast.reads_log = True

        def deref(ctx, bindings, _name=expr[1]):
            object_id = ctx.resolve_ref(_name)
            return NullValue() if object_id is None else StrValue(object_id)

        return ("dyn", deref)
    if kind == "a":
        return _compile_arith(expr, fast)
    return _compile_tuple(expr, fast)


def _compile_arith(expr, fast: "FastPolicy"):
    sign = 1 if expr[1] == "+" else -1
    left = _compile_expr(expr[2], fast)
    right = _compile_expr(expr[3], fast)
    if left[0] == "const" and right[0] == "const":
        lv, rv = left[1], right[1]
        if isinstance(lv, IntValue) and isinstance(rv, IntValue):
            return ("const", IntValue(lv.value + sign * rv.value))
    lf = _as_fn(left)
    rf = _as_fn(right)

    def arith(ctx, bindings, _sign=sign, _lf=lf, _rf=rf):
        lv = _lf(ctx, bindings)
        rv = _rf(ctx, bindings)
        if not isinstance(lv, IntValue) or not isinstance(rv, IntValue):
            raise EvalError("arithmetic needs bound integers")
        return IntValue(lv.value + _sign * rv.value)

    return ("dyn", arith)


def _compile_tuple(expr, fast: "FastPolicy"):
    name = fast.policy.constants[expr[1]].value
    elems = [_compile_expr(arg, fast) for arg in expr[2]]
    if all(kind == "const" for kind, _ in elems):
        return (
            "const",
            TuplePattern(name=name, elems=tuple(v for _, v in elems)),
        )
    fns = [_as_fn(compiled) for compiled in elems]

    def build(ctx, bindings, _name=name, _fns=fns):
        return TuplePattern(
            name=_name, elems=tuple(fn(ctx, bindings) for fn in _fns)
        )

    return ("dyn", build)


def _as_fn(compiled):
    kind, payload = compiled
    if kind == "const":
        return lambda ctx, bindings, _value=payload: _value
    return payload


# ---------------------------------------------------------------------------
# Instruction (conjunct) compilation
# ---------------------------------------------------------------------------

def _holds(ctx, bindings) -> bool:
    return True


def _fails(ctx, bindings) -> bool:
    return False


def _compile_instruction(inst, fast: "FastPolicy"):
    """Compile one conjunct into ``fn(ctx, bindings) -> bool``.

    The closure runs the predicate; the clause loop in
    :meth:`FastPolicy.evaluate` counts it and treats an
    :class:`EvalError` as the conjunct not holding.
    """
    policy = fast.policy
    spec = predicate_by_opcode(inst.opcode)
    if inst.opcode in _OBJECT_OPCODES:
        fast.uses_objects = True
    if inst.opcode in _VERSION_OPCODES:
        fast.reads_version = True
    compiled_args = [_compile_expr(arg, fast) for arg in inst.args]
    all_const = all(kind == "const" for kind, _ in compiled_args)
    const_args = [payload for _, payload in compiled_args]

    if inst.opcode == _CERTIFICATE_SAYS:
        fast.uses_certificates = True
        if len(compiled_args) == 3:
            freshness_kind, freshness_value = compiled_args[1]
            if freshness_kind == "const" and isinstance(
                freshness_value, IntValue
            ):
                fast.freshness_windows.add(freshness_value.value)
            else:
                fast.dynamic_freshness = True

    if all_const and spec.name in _CONTEXT_FREE:
        # Pure predicate over constants: run it once now.  A structural
        # EvalError is equivalent to holding False — either way the
        # clause fails right here.
        fast.folded_conjuncts += 1
        try:
            held = spec.impl(
                None, Bindings(len(policy.variables)), const_args
            )
        except EvalError:
            return _fails
        return _holds if held else _fails

    if inst.opcode == _SESSION_KEY_IS and all_const:
        fast.folded_conjuncts += 1
        const = const_args[0]
        if not isinstance(const, PubKeyValue):
            # A non-key constant never equals PubKeyValue(session_key).
            return _fails
        # compare_or_set against a ground key is string equality on
        # the fingerprint — the hottest conjunct in ACL policies.
        return lambda ctx, bindings, _fp=const.value: ctx.session_key == _fp

    impl = spec.impl
    dynamic = [
        (index, payload)
        for index, (kind, payload) in enumerate(compiled_args)
        if kind == "dyn"
    ]

    def step(ctx, bindings, _impl=impl, _args=const_args, _dynamic=dynamic):
        args = list(_args)
        for index, fn in _dynamic:
            args[index] = fn(ctx, bindings)
        return _impl(ctx, bindings, args)

    return step


# ---------------------------------------------------------------------------
# FastPolicy
# ---------------------------------------------------------------------------

@dataclass
class FastPolicy:
    """A policy compiled to closures: the clause loop and what the
    decision cache needs to know about it."""

    policy: CompiledPolicy
    #: operation -> list of clauses -> list of conjunct closures
    clauses: dict = field(default_factory=dict)
    #: True when any conjunct reads object state; such decisions are
    #: never cached (their store/cache footprint must stay observable).
    uses_objects: bool = False
    #: The read-set: which request inputs, besides the session key, some
    #: conjunct can observe — a ``this``/``log`` argument, ``nextVersion``
    #: or ``nextIndex``, ``certificateSays`` (certificates and nonce).
    #: Set while compiling; :meth:`request_shape` keys by exactly these.
    reads_this: bool = False
    reads_log: bool = False
    reads_version: bool = False
    uses_certificates: bool = False
    #: certificateSays freshness windows that are non-constant, making
    #: time-based invalidation unpredictable: do not cache.
    dynamic_freshness: bool = False
    #: Constant freshness windows (seconds), for ``valid_until``.
    freshness_windows: set = field(default_factory=set)
    folded_conjuncts: int = 0

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, operation: str, ctx: EvalContext) -> Decision:
        """Check whether ``operation`` is permitted under the policy."""
        variables = self.policy.variables
        num_slots = len(variables)
        evaluated = 0
        for index, clause in enumerate(self.clauses.get(operation, ())):
            bindings = Bindings(num_slots, variables)
            try:
                for step in clause:
                    evaluated += 1
                    if not step(ctx, bindings):
                        break
                else:
                    return Decision(
                        True,
                        operation,
                        index,
                        MappingProxyType(bindings.snapshot()),
                        evaluated,
                    )
            except EvalError:
                continue
        return Decision(False, operation, predicates_evaluated=evaluated)

    # -- cacheability --------------------------------------------------------

    @property
    def cacheable(self) -> bool:
        return not self.uses_objects and not self.dynamic_freshness

    @property
    def object_blind(self) -> bool:
        """No conjunct can observe which object is checked: every
        record of one scan has the same :meth:`request_shape`."""
        return self.cacheable and not (
            self.reads_this or self.reads_log or self.reads_version
        )

    def valid_until(self, ctx: EvalContext) -> float | None:
        """First future instant at which this decision could change.

        Time enters evaluation only through certificate checks: the
        validity window bounds and the freshness cutoffs
        ``not_before + window``.  The nearest such boundary strictly
        after ``ctx.now`` caps the cache entry; ``None`` means the
        decision is time-invariant.
        """
        if not self.uses_certificates or not ctx.certificates:
            return None
        boundaries = []
        for certificate in ctx.certificates:
            if not isinstance(certificate, Certificate):
                continue
            boundaries.append(certificate.not_before)
            boundaries.append(certificate.not_after)
            for window in self.freshness_windows:
                boundaries.append(certificate.not_before + window)
        future = [b for b in boundaries if b > ctx.now]
        return min(future) if future else None

    def request_shape(self, ctx: EvalContext):
        """Everything a cached decision may depend on, hashable: the
        session key plus the inputs in the read-set.

        ``None`` marks the request uncacheable.  Certificates are
        folded in by fingerprint + signature (order preserved — fact
        iteration order can steer which tuple binds a variable), and
        the session nonce only matters when certificates do.  The
        pending write is never here: only ``ctx.version_info`` reads
        it, and every opcode that gets there is in ``_OBJECT_OPCODES``.
        """
        if not self.cacheable:
            return None
        cert_part: tuple = ()
        nonce = ""
        if self.uses_certificates:
            parts = []
            for certificate in ctx.certificates:
                if not isinstance(certificate, Certificate):
                    return None
                parts.append(
                    (certificate.fingerprint(), certificate.signature)
                )
            cert_part = tuple(parts)
            nonce = ctx.nonce
        return (
            ctx.session_key,
            ctx.this_id if self.reads_this else None,
            ctx.log_id if self.reads_log else None,
            ctx.request_version if self.reads_version else None,
            cert_part,
            nonce,
        )


def compile_closures(policy: CompiledPolicy) -> FastPolicy:
    """Compile ``policy`` to closures (no memoization; see
    :func:`compiled_form`).  Raises
    :class:`~repro.errors.PolicyFormatError` on a malformed policy."""
    policy.validate()
    fast = FastPolicy(policy=policy)
    for operation, clauses in policy.permissions.items():
        fast.clauses[operation] = [
            [_compile_instruction(inst, fast) for inst in clause]
            for clause in clauses
        ]
    return fast


def compiled_form(policy: CompiledPolicy) -> FastPolicy:
    """Memoized compilation, living on the policy instance.

    Tying the compiled form to the ``CompiledPolicy`` object means the
    LFU policy cache governs its lifetime: evicting the policy drops
    the closures with it, and a re-fetched policy recompiles once.
    """
    fast = policy._fast_cache
    if fast is None:
        fast = compile_closures(policy)
        policy._fast_cache = fast
    return fast


# ---------------------------------------------------------------------------
# Decision cache
# ---------------------------------------------------------------------------

@dataclass
class DecisionCacheStats:
    hits: int = 0
    misses: int = 0
    expired: int = 0
    #: Always 0: nothing clears the cache wholesale.  The wall-clock
    #: harness still reports it.
    epoch_advances: int = 0


class DecisionCache:
    """Bounded LRU of policy decisions.

    Keys are ``(policy_hash, operation, shape)``: everything a
    cacheable verdict reads, so no store mutation can make an entry
    stale, and an entry is dropped only by LRU bound or by its
    ``valid_until``.
    """

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max(1, int(max_entries))
        #: key -> (decision, valid_until), least recently used first
        self._entries: OrderedDict = OrderedDict()
        self.stats = DecisionCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, policy_hash: str, operation: str, shape, *, now: float
    ) -> Decision | None:
        key = (policy_hash, operation, shape)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        decision, valid_until = entry
        if valid_until is not None and now >= valid_until:
            # A time boundary passed: the decision may have flipped.
            del self._entries[key]
            self.stats.expired += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return decision

    def put(
        self,
        policy_hash: str,
        operation: str,
        shape,
        *,
        decision: Decision,
        valid_until: float | None = None,
    ) -> None:
        key = (policy_hash, operation, shape)
        self._entries[key] = (decision, valid_until)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


# ---------------------------------------------------------------------------
# PolicyEngine: what the controller talks to
# ---------------------------------------------------------------------------

class PolicyEngine:
    """Compiled closures fronted by the decision cache."""

    def __init__(self) -> None:
        self.decisions = DecisionCache()

    def evaluate(
        self, policy: CompiledPolicy, operation: str, ctx: EvalContext
    ) -> Decision:
        fast = compiled_form(policy)
        shape = fast.request_shape(ctx)
        if shape is None:
            return fast.evaluate(operation, ctx)
        policy_hash = policy.policy_hash()
        cached = self.decisions.get(
            policy_hash, operation, shape, now=ctx.now
        )
        if cached is not None:
            return cached
        decision = fast.evaluate(operation, ctx)
        self.decisions.put(
            policy_hash,
            operation,
            shape,
            decision=decision,
            valid_until=fast.valid_until(ctx),
        )
        return decision
