"""Shielded-execution substrate (Intel SGX + Scone stand-in).

The paper runs the Pesos controller inside an SGX enclave via Scone.
Enclave *hardware* is impractical to reproduce in Python, so this
package models shielded execution at two levels:

**Functional** — the security workflow runs for real:

- :mod:`repro.sgx.enclave` — enclave identity (measurement over the
  loaded binary), sealing of secrets to the measurement.
- :mod:`repro.sgx.attestation` — remote attestation: quotes signed by a
  platform quoting key, and a Scone-CAS-style attestation service that
  releases runtime secrets (TLS keys, disk credentials) only to
  enclaves whose quote verifies against a registered measurement.
- :mod:`repro.sgx.syscalls` — the FlexSC-style asynchronous system-call
  interface (slots + submission/return queues).
- :mod:`repro.sgx.scheduler` — Scone's userspace threading: M green
  threads multiplexed onto K enclave hardware threads, switching at
  syscall preemption points.

**Performance** — :mod:`repro.sgx.costs` holds the documented
overheads (enclave transitions, cross-boundary copies, the cost of one
EPC page fault and the 96 MB limit), calibrated to the paper's
native-vs-SGX deltas; :class:`repro.bench.model.SystemModel` charges
them in the discrete-event benchmarks, EPC paging analytically from
the enclave's footprint (``_epc_cost``).
"""
