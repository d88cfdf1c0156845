"""Reference interpreter: the differential oracle for the evaluator.

The tree-walking evaluator :mod:`repro.policy.compiled` replaced.  It
stays here, never imported by ``src/``, so the shipped closures can be
compared against an implementation that shares none of their
compilation logic (only :mod:`repro.policy.evalcore` and the predicate
registry).  The contract covers every policy ``compile_source`` emits
and every blob ``CompiledPolicy.from_bytes`` accepts.

Walks a :class:`~repro.policy.binary.CompiledPolicy` for one operation:
each clause of the disjunctive normal form gets fresh variable
bindings and its predicates run left to right; the first clause whose
predicates all hold grants the permission.  A structurally failing
clause (unbound arithmetic, type confusion) simply does not grant —
other disjuncts are still tried.

An operation with no rule in the policy is denied (deny by default).
"""

from __future__ import annotations

from repro.errors import PolicyDenied, PolicyFormatError
from repro.policy.ast import IntValue, NullValue, StrValue
from repro.policy.binary import CompiledPolicy
from repro.policy.compiled import Decision
from repro.policy.context import EvalContext
from repro.policy.evalcore import Bindings, EvalError, TuplePattern
from repro.policy.predicates import predicate_by_opcode


class PolicyInterpreter:
    """Evaluates compiled policies; stateless, shareable."""

    def evaluate(
        self, policy: CompiledPolicy, operation: str, ctx: EvalContext
    ) -> Decision:
        """Check whether ``operation`` is permitted under ``policy``."""
        clauses = policy.permissions.get(operation)
        if not clauses:
            return Decision(granted=False, operation=operation)
        evaluated = [0]  # predicates run so far, across every tried clause
        for clause_index, clause in enumerate(clauses):
            bindings = Bindings(len(policy.variables), policy.variables)
            if self._clause_holds(policy, clause, ctx, bindings, evaluated):
                return Decision(
                    granted=True,
                    operation=operation,
                    matched_clause=clause_index,
                    bindings=bindings.snapshot(),
                    predicates_evaluated=evaluated[0],
                )
        return Decision(
            granted=False,
            operation=operation,
            predicates_evaluated=evaluated[0],
        )

    def check(
        self, policy: CompiledPolicy, operation: str, ctx: EvalContext
    ) -> None:
        """Like :meth:`evaluate` but raises :class:`PolicyDenied`."""
        decision = self.evaluate(policy, operation, ctx)
        if not decision.granted:
            raise PolicyDenied(
                f"policy {policy.policy_hash()[:12]} denies {operation}"
            )

    # -- internals -----------------------------------------------------------

    def _clause_holds(
        self,
        policy: CompiledPolicy,
        clause: list,
        ctx: EvalContext,
        bindings: Bindings,
        evaluated: list,
    ) -> bool:
        for instruction in clause:
            evaluated[0] += 1
            spec = predicate_by_opcode(instruction.opcode)
            try:
                args = [
                    self._eval_expr(expr, policy, ctx, bindings)
                    for expr in instruction.args
                ]
                if not spec.impl(ctx, bindings, args):
                    return False
            except EvalError:
                return False
        return True

    def _eval_expr(self, expr, policy: CompiledPolicy, ctx, bindings):
        kind = expr[0]
        if kind == "c":
            return policy.constants[expr[1]]
        if kind == "v":
            return bindings.lookup(expr[1])
        if kind == "r":
            object_id = ctx.resolve_ref(expr[1])
            return NullValue() if object_id is None else StrValue(object_id)
        if kind == "a":
            left = self._eval_expr(expr[2], policy, ctx, bindings)
            right = self._eval_expr(expr[3], policy, ctx, bindings)
            if not isinstance(left, IntValue) or not isinstance(right, IntValue):
                raise EvalError("arithmetic needs bound integers")
            if expr[1] == "+":
                return IntValue(left.value + right.value)
            if expr[1] == "-":
                return IntValue(left.value - right.value)
            raise PolicyFormatError(f"unknown arithmetic op {expr[1]!r}")
        if kind == "t":
            name = policy.constants[expr[1]]
            elems = tuple(
                self._eval_expr(arg, policy, ctx, bindings) for arg in expr[2]
            )
            return TuplePattern(name=name.value, elems=elems)
        raise PolicyFormatError(f"unknown expression kind {kind!r}")
