"""Static verifier for compiled policies.

Policy bugs are silent: an unsatisfiable clause never grants (the
operator thinks a permission exists; it does not), a shadowed clause
never matters (the operator thinks a restriction exists; it does not),
and a tampered or stale binary diverges from the source the auditor
reviews.  The verifier walks a :class:`~repro.policy.binary.CompiledPolicy`
— the exact form the evaluator executes — and reports:

``policy/undefined-predicate``
    An instruction's opcode has no entry in the predicate registry.
``policy/bad-arity``
    An instruction's argument count is outside the registered bounds.
``policy/bad-reference``
    A structural defect: an object reference that is neither ``this``
    nor ``log``, a constant/variable index outside the pool, an
    unknown arithmetic operator or expression kind.
``policy/unsat``
    A clause whose numeric constraints admit no value (e.g.
    ``lt(T, 5) /\\ gt(T, 9)``) or that equates one term with two
    different constants.  The clause can never grant.
``policy/shadowed``
    Under first-match evaluation, a clause that cannot change any
    decision because an earlier clause of the same rule holds whenever
    it does (its conjunct set is a superset of the earlier clause's).
``policy/divergent``
    The binary does not round-trip: decompiling through
    :mod:`repro.policy.render` and recompiling yields a different
    policy hash (non-canonical or tampered encoding), or the embedded
    source text no longer compiles to this binary.

``verify_policy`` returns findings; ``verify_source`` compiles source
text first.  The owner runs both through ``python -m repro.analysis
my.policy`` before uploading a policy; the controller compiles and
enforces whatever it is given and runs no verifier.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.errors import PolicyError
from repro.policy.ast import IntValue, Value
from repro.policy.binary import CompiledPolicy, Instruction
from repro.policy.compiler import compile_source
from repro.policy.predicates import _REGISTRY_BY_OPCODE
from repro.policy.render import render_policy

#: Opcodes of the relational predicates, by comparison semantics.
_LE = 2
_LT = 3
_GE = 4
_GT = 5
_EQ = 1

_RELATIONAL = {_LE, _LT, _GE, _GT}


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def _check_expr(expr, policy: CompiledPolicy, where: str) -> list[Finding]:
    findings: list[Finding] = []
    if not isinstance(expr, (list, tuple)) or not expr:
        return [
            Finding(
                rule="policy/bad-reference",
                message=f"{where}: malformed argument expression {expr!r}",
            )
        ]
    kind = expr[0]
    if kind == "c":
        if not (
            len(expr) == 2
            and isinstance(expr[1], int)
            and 0 <= expr[1] < len(policy.constants)
        ):
            findings.append(
                Finding(
                    rule="policy/bad-reference",
                    message=(
                        f"{where}: constant index {expr[1:]} outside the "
                        f"pool of {len(policy.constants)}"
                    ),
                )
            )
    elif kind == "v":
        if not (
            len(expr) == 2
            and isinstance(expr[1], int)
            and 0 <= expr[1] < len(policy.variables)
        ):
            findings.append(
                Finding(
                    rule="policy/bad-reference",
                    message=(
                        f"{where}: variable slot {expr[1:]} outside the "
                        f"{len(policy.variables)} declared slots"
                    ),
                )
            )
    elif kind == "r":
        if len(expr) != 2 or expr[1] not in ("this", "log"):
            findings.append(
                Finding(
                    rule="policy/bad-reference",
                    message=(
                        f"{where}: unknown object reference "
                        f"{expr[1] if len(expr) > 1 else expr!r} "
                        "(context defines only 'this' and 'log')"
                    ),
                )
            )
    elif kind == "a":
        if len(expr) != 4 or expr[1] not in ("+", "-"):
            findings.append(
                Finding(
                    rule="policy/bad-reference",
                    message=f"{where}: unknown arithmetic form {expr!r}",
                )
            )
        else:
            findings.extend(_check_expr(expr[2], policy, where))
            findings.extend(_check_expr(expr[3], policy, where))
    elif kind == "t":
        if len(expr) != 3 or not isinstance(expr[1], int) or not (
            0 <= expr[1] < len(policy.constants)
        ):
            findings.append(
                Finding(
                    rule="policy/bad-reference",
                    message=f"{where}: malformed tuple pattern {expr!r}",
                )
            )
        else:
            for arg in expr[2]:
                findings.extend(_check_expr(arg, policy, where))
    else:
        findings.append(
            Finding(
                rule="policy/bad-reference",
                message=f"{where}: unknown expression kind {kind!r}",
            )
        )
    return findings


def _check_instruction(
    inst: Instruction, policy: CompiledPolicy, where: str
) -> list[Finding]:
    findings: list[Finding] = []
    spec = _REGISTRY_BY_OPCODE.get(inst.opcode)
    if spec is None:
        return [
            Finding(
                rule="policy/undefined-predicate",
                message=(
                    f"{where}: opcode {inst.opcode} names no registered "
                    "predicate; the clause always fails at evaluation"
                ),
            )
        ]
    arity = len(inst.args)
    if not spec.min_arity <= arity <= spec.max_arity:
        findings.append(
            Finding(
                rule="policy/bad-arity",
                message=(
                    f"{where}: {spec.name} takes "
                    f"{spec.min_arity}-{spec.max_arity} arguments, "
                    f"got {arity}"
                ),
            )
        )
    for arg in inst.args:
        findings.extend(_check_expr(arg, policy, where))
    return findings


# ---------------------------------------------------------------------------
# Clause satisfiability
# ---------------------------------------------------------------------------

def _term_key(expr, policy: CompiledPolicy):
    """Hashable canonical form of an argument expression.

    Constants resolve to their values so structurally different
    encodings of the same term compare equal.
    """
    kind = expr[0]
    if kind == "c":
        return ("c", policy.constants[expr[1]].render())
    if kind == "v":
        return ("v", expr[1])
    if kind == "r":
        return ("r", expr[1])
    if kind == "a":
        return (
            "a",
            expr[1],
            _term_key(expr[2], policy),
            _term_key(expr[3], policy),
        )
    if kind == "t":
        return (
            "t",
            policy.constants[expr[1]].render(),
            tuple(_term_key(arg, policy) for arg in expr[2]),
        )
    raise PolicyError(f"unknown expression kind {kind!r}")


def _const_int(expr, policy: CompiledPolicy) -> int | None:
    if expr[0] == "c":
        value = policy.constants[expr[1]]
        if isinstance(value, IntValue):
            return value.value
    return None


def _const_value(expr, policy: CompiledPolicy) -> Value | None:
    if expr[0] == "c":
        return policy.constants[expr[1]]
    return None


class _Interval:
    """Closed integer interval [lo, hi] with +/- infinity as None."""

    __slots__ = ("lo", "hi")

    def __init__(self) -> None:
        self.lo: int | None = None
        self.hi: int | None = None

    def tighten_lo(self, bound: int) -> None:
        if self.lo is None or bound > self.lo:
            self.lo = bound

    def tighten_hi(self, bound: int) -> None:
        if self.hi is None or bound < self.hi:
            self.hi = bound

    @property
    def empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def describe(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


def _clause_unsat(
    clause: list, policy: CompiledPolicy, where: str
) -> Finding | None:
    """Interval analysis over the clause's relational conjuncts."""
    intervals: dict = {}
    equalities: dict = {}

    def interval(term_key) -> _Interval:
        return intervals.setdefault(term_key, _Interval())

    for inst in clause:
        if len(inst.args) != 2:
            continue
        left, right = inst.args
        if inst.opcode in _RELATIONAL:
            lc = _const_int(left, policy)
            rc = _const_int(right, policy)
            if lc is not None and rc is not None:
                holds = {
                    _LE: lc <= rc,
                    _LT: lc < rc,
                    _GE: lc >= rc,
                    _GT: lc > rc,
                }[inst.opcode]
                if not holds:
                    return Finding(
                        rule="policy/unsat",
                        message=(
                            f"{where}: constant comparison "
                            f"({lc}, {rc}) is always false"
                        ),
                    )
                continue
            # Normalize to: term <op> constant.
            if rc is not None:
                term, bound, opcode = left, rc, inst.opcode
            elif lc is not None:
                flipped = {_LE: _GE, _LT: _GT, _GE: _LE, _GT: _LT}
                term, bound, opcode = right, lc, flipped[inst.opcode]
            else:
                continue
            box = interval(_term_key(term, policy))
            if opcode == _LE:
                box.tighten_hi(bound)
            elif opcode == _LT:
                box.tighten_hi(bound - 1)
            elif opcode == _GE:
                box.tighten_lo(bound)
            elif opcode == _GT:
                box.tighten_lo(bound + 1)
        elif inst.opcode == _EQ:
            # eq(term, constant): pin the term's value.
            for term, const in ((left, right), (right, left)):
                value = _const_value(const, policy)
                if value is None or const is term:
                    continue
                key = _term_key(term, policy)
                if key in equalities and equalities[key] != value:
                    return Finding(
                        rule="policy/unsat",
                        message=(
                            f"{where}: term equated with both "
                            f"{equalities[key].render()} and "
                            f"{value.render()}"
                        ),
                    )
                equalities[key] = value
                if isinstance(value, IntValue):
                    box = interval(key)
                    box.tighten_lo(value.value)
                    box.tighten_hi(value.value)
                break

    for key, box in intervals.items():
        if box.empty:
            return Finding(
                rule="policy/unsat",
                message=(
                    f"{where}: numeric constraints on {key!r} reduce to "
                    f"the empty interval {box.describe()}; the clause "
                    "can never grant"
                ),
            )
    return None


# ---------------------------------------------------------------------------
# Shadowing
# ---------------------------------------------------------------------------

def _clause_signature(clause: list, policy: CompiledPolicy) -> frozenset:
    return frozenset(
        (inst.opcode, tuple(_term_key(arg, policy) for arg in inst.args))
        for inst in clause
    )


def _shadowed(clauses: list, policy: CompiledPolicy, operation: str) -> list:
    findings = []
    signatures = [_clause_signature(clause, policy) for clause in clauses]
    for later in range(1, len(signatures)):
        for earlier in range(later):
            if signatures[earlier] <= signatures[later]:
                exact = signatures[earlier] == signatures[later]
                findings.append(
                    Finding(
                        rule="policy/shadowed",
                        severity="warning",
                        message=(
                            f"{operation} clause {later + 1} is "
                            + ("a duplicate of" if exact else "shadowed by")
                            + f" clause {earlier + 1}: whenever it holds, "
                            "the earlier clause already granted"
                        ),
                        context={"operation": operation, "clause": later},
                    )
                )
                break
    return findings


# ---------------------------------------------------------------------------
# Divergence
# ---------------------------------------------------------------------------

def _divergence(policy: CompiledPolicy) -> list[Finding]:
    findings = []
    try:
        recompiled = compile_source(render_policy(policy))
    except PolicyError as exc:
        return [
            Finding(
                rule="policy/divergent",
                message=f"decompiled source does not recompile: {exc}",
            )
        ]
    if recompiled.policy_hash() != policy.policy_hash():
        findings.append(
            Finding(
                rule="policy/divergent",
                message=(
                    "binary is not the canonical compilation of its own "
                    f"decompiled source (hash {policy.policy_hash()[:12]} "
                    f"vs recompiled {recompiled.policy_hash()[:12]}); "
                    "the blob was tampered with or produced by a "
                    "non-canonical compiler"
                ),
            )
        )
    if policy.source:
        try:
            from_source = compile_source(policy.source)
        except PolicyError as exc:
            return findings + [
                Finding(
                    rule="policy/divergent",
                    message=f"embedded source no longer compiles: {exc}",
                )
            ]
        if from_source.policy_hash() != policy.policy_hash():
            findings.append(
                Finding(
                    rule="policy/divergent",
                    message=(
                        "embedded source compiles to "
                        f"{from_source.policy_hash()[:12]}, not this "
                        f"binary's {policy.policy_hash()[:12]}"
                    ),
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def verify_policy(policy: CompiledPolicy) -> list[Finding]:
    """All static checks over one compiled policy."""
    findings: list[Finding] = []
    structural = False
    for operation, clauses in sorted(policy.permissions.items()):
        for index, clause in enumerate(clauses):
            where = f"{operation} clause {index + 1}"
            for inst in clause:
                reports = _check_instruction(inst, policy, where)
                findings.extend(reports)
                structural = structural or bool(reports)
            if not structural:
                unsat = _clause_unsat(clause, policy, where)
                if unsat is not None:
                    findings.append(unsat)
        if not structural:
            findings.extend(_shadowed(clauses, policy, operation))
    # Round-trip comparison needs a renderable policy: skip when the
    # structure is already broken (render would crash on it).
    if not structural:
        findings.extend(_divergence(policy))
    return findings


def verify_source(source: str) -> list[Finding]:
    """Compile and verify policy source text (the owner's pre-upload lint)."""
    return verify_policy(compile_source(source))

