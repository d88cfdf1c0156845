"""Static and dynamic analysis for the Pesos reproduction.

Three cooperating analyzers, one CLI (``python -m repro.analysis``):

- **Concurrency sanitizer** (:mod:`repro.analysis.races`,
  :mod:`repro.analysis.deadlock`): replay a :class:`ShadowState` event
  stream recorded by the instrumented engine for Eraser-style lockset
  races and lock-order-graph deadlock cycles.
- **Policy static verifier** (:mod:`repro.analysis.policy_verify`):
  unsatisfiable and shadowed clauses, undefined predicates, structural
  defects, and binary-vs-source divergence in compiled policies.
- **Project lint** (:mod:`repro.analysis.lint`): AST rules protecting
  the determinism, enclave-boundary, and telemetry invariants.
"""

from repro.analysis.deadlock import find_deadlocks
from repro.analysis.findings import (
    Finding,
    render_json_report,
    render_markdown,
    render_text,
    sort_findings,
)
from repro.analysis.lint import lint_source
from repro.analysis.policy_verify import (
    verify_policy,
    verify_source,
    warnings_payload,
)
from repro.analysis.races import find_races
from repro.analysis.sanitizer import (
    MAIN_THREAD,
    NULL_SANITIZER,
    NullSanitizer,
    ShadowState,
)

__all__ = [
    "Finding",
    "MAIN_THREAD",
    "NULL_SANITIZER",
    "NullSanitizer",
    "ShadowState",
    "find_deadlocks",
    "find_races",
    "lint_source",
    "render_json_report",
    "render_markdown",
    "render_text",
    "sort_findings",
    "verify_policy",
    "verify_source",
    "warnings_payload",
]
