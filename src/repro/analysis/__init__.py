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
