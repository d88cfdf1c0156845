"""Cost model for shielded execution, charged in virtual time.

The one home of the controller's calibrated CPU constants (DESIGN.md
§6): the field defaults are the request-path costs both builds share,
:data:`NATIVE_COSTS` / :data:`SGX_COSTS` the only two instances, read
by the discrete-event benchmarks and by the concurrent engine's clock.

All values are seconds (virtual).  The SGX numbers follow the published
measurements the paper builds on: enclave transitions cost microseconds
(Scone/FlexSC motivation), asynchronous syscalls amortize most of that,
cross-boundary copies pay an encryption/copy penalty, and EPC paging is
2x-2000x an ordinary access (§2.1).

The *native* model zeroes every enclave-specific cost, which is exactly
how the paper builds its native comparison binary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Virtual-time costs for one controller configuration."""

    #: Base CPU time of one client request (TLS, HTTP, dispatch).
    request_parse: float = 53e-6
    #: CPU time per byte moved through the request path (memcpy, TLS).
    per_byte_copy: float = 3.0e-9
    #: CPU time per evaluated policy predicate (cache hit path).
    policy_check: float = 0.30e-6
    #: CPU time to compile a policy from source (lex + parse + emit).
    policy_compile: float = 150e-6
    #: CPU time to load + validate a compiled policy fetched from disk
    #: (binary decode, hash check, cache insertion).
    policy_load: float = 45.0e-6
    #: AES-GCM cost per byte for payload encryption (hardware AES-NI).
    encrypt_per_byte: float = 0.4e-9
    #: Fixed cost per AES-GCM operation (key schedule, tag).
    encrypt_fixed: float = 0.4e-6

    # -- enclave-specific ------------------------------------------------
    #: Synchronous syscall (enclave exit + re-enter).  Zero for native.
    syscall_sync: float = 0.0
    #: Asynchronous syscall submission (shared-memory slot + queue).
    syscall_async: float = 0.0
    #: Extra per-byte cost crossing the enclave boundary (copy + shield).
    boundary_per_byte: float = 0.0
    #: Cost of one EPC page fault (evict + encrypt + load + verify).
    epc_page_fault: float = 0.0
    #: Usable EPC bytes (None = unlimited, i.e. native).
    epc_limit: int | None = None

    def syscall_cost(self) -> float:
        """Cost of issuing one system call under this configuration."""
        return self.syscall_async

    def copy_cost(self, nbytes: int) -> float:
        """Cost of moving ``nbytes`` through the request path."""
        return nbytes * (self.per_byte_copy + self.boundary_per_byte)

    def encryption_cost(self, nbytes: int) -> float:
        """Cost of AES-GCM over ``nbytes`` of payload."""
        return self.encrypt_fixed + nbytes * self.encrypt_per_byte

    def with_sync_syscalls(self) -> "CostModel":
        """Ablation: every call traps (enclave exit + re-enter)."""
        return replace(self, syscall_async=self.syscall_sync)


#: Native (non-SGX) controller build: no enclave overheads.
NATIVE_COSTS = CostModel()

#: SGX controller (Scone) build.  Transition and paging costs follow the
#: Scone paper's measurements on Skylake v1 SGX; the per-byte shield cost
#: reflects transparent encryption of data crossing the boundary.
SGX_COSTS = CostModel(
    syscall_sync=8.0e-6,
    syscall_async=1.5e-6,
    boundary_per_byte=0.9e-9,
    epc_page_fault=12.0e-6,
    epc_limit=96 * 1024 * 1024,
)
