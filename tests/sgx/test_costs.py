"""Cost model invariants the benchmarks rely on."""

from dataclasses import fields

from repro.sgx.costs import NATIVE_COSTS, SGX_COSTS, CostModel


def test_native_has_no_enclave_overheads():
    assert NATIVE_COSTS.syscall_cost() == 0.0
    assert NATIVE_COSTS.boundary_per_byte == 0.0
    assert NATIVE_COSTS.epc_limit is None
    assert NATIVE_COSTS.epc_page_fault == 0.0


def test_sgx_async_cheaper_than_sync():
    assert 0 < SGX_COSTS.syscall_async < SGX_COSTS.syscall_sync


def test_sgx_syscall_cost_uses_async_by_default():
    assert SGX_COSTS.syscall_cost() == SGX_COSTS.syscall_async


def test_sync_ablation_switches_cost():
    sync_model = SGX_COSTS.with_sync_syscalls()
    assert sync_model.syscall_cost() == SGX_COSTS.syscall_sync
    # Original is unchanged (frozen dataclass copy).
    assert SGX_COSTS.syscall_cost() == SGX_COSTS.syscall_async


def test_copy_cost_scales_with_bytes():
    assert SGX_COSTS.copy_cost(2000) > SGX_COSTS.copy_cost(1000)
    assert SGX_COSTS.copy_cost(1000) > NATIVE_COSTS.copy_cost(1000)


def test_encryption_cost_has_fixed_part():
    assert NATIVE_COSTS.encryption_cost(0) == NATIVE_COSTS.encrypt_fixed
    assert NATIVE_COSTS.encryption_cost(4096) > NATIVE_COSTS.encryption_cost(0)


def test_epc_limit_is_96mb():
    assert SGX_COSTS.epc_limit == 96 * 1024 * 1024


def test_one_pair_differing_only_in_enclave_costs():
    # The request-path constants are the dataclass defaults, shared by
    # construction; the pair differs in the enclave-specific fields.
    enclave = {
        "syscall_sync", "syscall_async", "boundary_per_byte",
        "epc_page_fault", "epc_limit",
    }
    for spec in fields(CostModel):
        same = getattr(NATIVE_COSTS, spec.name) == getattr(SGX_COSTS, spec.name)
        assert same == (spec.name not in enclave), spec.name
    assert NATIVE_COSTS == CostModel()
