"""The policy evaluator: compiled closures fronted by a decision cache.

This is the paper's one binary-format interpreter (§1, §3.3).  Each
clause of a permission's disjunctive normal form gets a fresh list of
variable slots and its predicates run left to right; the first clause
whose predicates all hold grants the permission.  A structurally failing
clause (unbound arithmetic, type confusion) simply does not grant —
other disjuncts are still tried.  An operation with no rule in the
policy is denied (deny by default).

``compiled_form``
    Compiles a :class:`~repro.policy.binary.CompiledPolicy` once into
    per-clause lists of Python closures, one per conjunct, each
    specialised to which variable occurrences bind and which compare
    (the binding analysis of :mod:`repro.policy.evalcore`; no source
    is generated).  Constant subexpressions fold at compile time; a
    conjunct whose arguments are all constants and whose predicate is
    context-free collapses to a closure returning a known boolean;
    ``sessionKeyIs`` against a ground key becomes a string comparison.
    Every conjunct
    still counts as one evaluated predicate, so ``Decision`` — and the
    audit chain built from it — does not depend on what folded.  The
    input was checked by ``CompiledPolicy.validate``; a policy that
    fails it raises :class:`~repro.errors.PolicyFormatError` here.

``DecisionCache``
    Memoizes decisions keyed by ``(policy_hash, operation, request
    shape)``; the shape is the policy's read-set
    (:meth:`FastPolicy.request_shape`), so a verdict is a pure function
    of its key: policy ids are content hashes, object state enters as
    the digests of the records ``this`` and ``log`` name (a record
    names its versions' content hashes, and ``objSays`` reads only
    bytes they anchor), and ``valid_until`` bounds time.  An update
    over object state (it sees the pending write), or a policy reading
    any other object, is never cached.  The cache is probed with the
    request's inputs (:class:`~repro.policy.context.RequestInputs`); a
    context is built only to compute a verdict.

``tests/policy/reference_interpreter.py`` keeps the tree-walking
evaluator as the differential oracle; nothing here imports it.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.crypto.certs import Certificate
from repro.policy.ast import IntValue
from repro.policy.binary import CompiledPolicy
from repro.policy.context import EvalContext, RequestInputs
from repro.policy.evalcore import (
    BROKEN,
    CONST,
    FREE,
    REF,
    SLOT,
    ClauseScope,
    compile_arg,
    is_constant,
    render_bindings,
    slots_of,
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
_OBJ_ID = 20
#: nextVersion, nextIndex: the opcodes that read ``ctx.request_version``.
_VERSION_OPCODES = frozenset({22, 28})

_NO_BINDINGS: Mapping = MappingProxyType({})


@dataclass(frozen=True, slots=True)
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
# Conjunct compilation
# ---------------------------------------------------------------------------

def _holds(ctx, slots) -> bool:
    return True


def _fails(ctx, slots) -> bool:
    return False


def _compile_instruction(inst, fast: "FastPolicy", scope: ClauseScope):
    """Compile one conjunct into ``fn(ctx, slots) -> bool``.

    Its arguments get their modes from the slots ``scope`` knows bound;
    afterwards every slot it mentions is bound, since a conjunct that
    holds has bound them all and one that fails ends its clause.  The
    clause loop in :meth:`FastPolicy.evaluate` counts every conjunct.
    """
    spec = predicate_by_opcode(inst.opcode)
    if inst.opcode in _VERSION_OPCODES:
        fast.reads_version = True
    scope.prelude = []
    args = [compile_arg(arg, scope) for arg in inst.args]
    constant = all(is_constant(arg) for arg in args)
    mode, payload = args[0]
    if inst.opcode in _OBJECT_OPCODES:
        slot = scope.records.get(payload) if mode == SLOT else None
        fast.record_refs.add(payload if mode == REF else slot)
    elif inst.opcode == _OBJ_ID and mode == REF and args[1].mode == FREE:
        scope.records[args[1].payload] = payload

    if inst.opcode == _CERTIFICATE_SAYS:
        fast.uses_certificates = True
        if len(args) == 3:
            freshness = args[1]
            if freshness.mode == CONST and isinstance(
                freshness.payload, IntValue
            ):
                fast.freshness_windows.add(freshness.payload.value)
            else:
                fast.dynamic_freshness = True

    step = None
    if all(arg.mode != BROKEN for arg in args):
        step = spec.specialise(args, scope)
    for arg in inst.args:
        scope.bound |= slots_of(arg)

    if constant and (
        spec.name in _CONTEXT_FREE or inst.opcode == _SESSION_KEY_IS
    ):
        fast.folded_conjuncts += 1
        if spec.name in _CONTEXT_FREE:
            # Pure predicate over constants: run it once now.
            return _holds if step is not None and step(None, []) else _fails
    if step is None:
        return _fails
    prelude = tuple(scope.prelude)
    if not prelude:
        return step

    def with_arithmetic(ctx, slots):
        # Arithmetic runs before its predicate, as argument evaluation.
        for compute in prelude:
            if not compute(ctx, slots):
                return False
        return step(ctx, slots)

    return with_arithmetic


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
    #: Slots a clause attempt needs: the variables, then scratch slots
    #: for arithmetic over bound variables.
    width: int = 0
    #: The records object-state conjuncts read: ``this``, ``log``, or
    #: None for any other id (uncacheable); a sorted tuple once compiled.
    record_refs: set | tuple = field(default_factory=set)
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
        width = self.width
        evaluated = 0
        for index, clause in enumerate(self.clauses.get(operation, ())):
            slots = [None] * width
            for step in clause:
                evaluated += 1
                if not step(ctx, slots):
                    break
            else:
                return Decision(
                    True,
                    operation,
                    index,
                    MappingProxyType({
                        name: value
                        for name, value in zip(self.policy.variables, slots)
                        if value is not None
                    }),
                    evaluated,
                )
        return Decision(False, operation, predicates_evaluated=evaluated)

    # -- cacheability --------------------------------------------------------

    @property
    def cacheable(self) -> bool:
        return None not in self.record_refs and not self.dynamic_freshness

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

    def request_shape(self, inputs: RequestInputs | EvalContext, operation: str):
        """Everything a cached ``operation`` verdict may depend on,
        hashable: the session key plus the inputs in the read-set, read
        before any context exists (an :class:`EvalContext` has the same
        fields), then the digest of each record read (``""``: absent).

        ``None`` marks the request uncacheable.  Certificates are
        folded in by fingerprint + signature (order preserved — fact
        iteration order can steer which tuple binds a variable), and
        the session nonce only matters when certificates do.  The
        pending write is never here: only ``ctx.version_info`` reads
        it, every opcode that gets there is in ``_OBJECT_OPCODES``, and
        an update over object state is uncacheable.
        """
        if not self.cacheable or (self.record_refs and operation == "update"):
            return None
        cert_part: tuple = ()
        nonce = ""
        if self.uses_certificates:
            parts = []
            for certificate in inputs.certificates:
                if not isinstance(certificate, Certificate):
                    return None
                parts.append(
                    (certificate.fingerprint(), certificate.signature)
                )
            cert_part = tuple(parts)
            nonce = inputs.nonce
        shape = (
            inputs.session_key,
            inputs.this_id if self.reads_this else None,
            inputs.log_id if self.reads_log else None,
            inputs.request_version if self.reads_version else None,
            cert_part,
            nonce,
        )
        if not self.record_refs:
            return shape
        records = []
        for ref in self.record_refs:
            view = inputs.view(inputs.this_id if ref == "this" else inputs.log_id)
            records.append("" if view is None else view.digest)
        return None if None in records else shape + tuple(records)


def compile_closures(policy: CompiledPolicy) -> FastPolicy:
    """Compile ``policy`` to closures (no memoization; see
    :func:`compiled_form`).  Raises
    :class:`~repro.errors.PolicyFormatError` on a malformed policy."""
    policy.validate()
    num_vars = len(policy.variables)
    fast = FastPolicy(policy=policy, width=num_vars)
    for operation, clauses in policy.permissions.items():
        compiled = fast.clauses[operation] = []
        for clause in clauses:
            scope = ClauseScope(policy.constants, num_vars)
            compiled.append(
                [_compile_instruction(inst, fast, scope) for inst in clause]
            )
            fast.width = max(fast.width, scope.width)
            fast.reads_this |= "this" in scope.refs
            fast.reads_log |= "log" in scope.refs
    fast.record_refs = tuple(sorted(fast.record_refs, key=str))
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
        #: key -> decision, or (decision, valid_until); LRU first
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
        if type(entry) is tuple:  # a verdict with a valid_until
            entry, valid_until = entry
            if now >= valid_until:
                # A time boundary passed: the decision may have flipped.
                del self._entries[key]
                self.stats.expired += 1
                self.stats.misses += 1
                return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

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
        self._entries[key] = decision if valid_until is None else (decision, valid_until)
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
        self, policy: CompiledPolicy, operation: str, inputs, build=None
    ) -> Decision:
        """The verdict: the cached one when ``inputs`` hit, else computed
        over ``build()`` (``inputs`` itself without a builder), which
        runs only for an uncacheable policy or on a miss."""
        fast = compiled_form(policy)
        shape = fast.request_shape(inputs, operation)
        if shape is None:
            return fast.evaluate(operation, build() if build else inputs)
        policy_hash = policy.policy_hash()
        cached = self.decisions.get(
            policy_hash, operation, shape, now=inputs.now
        )
        if cached is not None:
            return cached
        ctx = build() if build else inputs
        decision = fast.evaluate(operation, ctx)
        self.decisions.put(
            policy_hash,
            operation,
            shape,
            decision=decision,
            valid_until=fast.valid_until(ctx),
        )
        return decision
