"""Evaluation configurations: the four combos and their invariants."""

import pytest

from repro.bench.configs import make_config, paper_ratio_caches
from repro.kinetic.timing import HddTiming, SimulatorTiming
from repro.sgx.costs import NATIVE_COSTS, SGX_COSTS


def test_four_configurations_exist():
    names = {
        make_config(mode, backend).name
        for mode in ("native", "sgx")
        for backend in ("sim", "disk")
    }
    assert names == {"native-sim", "native-disk", "sgx-sim", "sgx-disk"}


def test_sgx_config_carries_enclave_costs():
    config = make_config("sgx", "sim")
    assert config.cost.syscall_cost() > 0
    assert config.cost.epc_limit == 96 * 1024 * 1024


def test_native_config_has_no_enclave_costs():
    config = make_config("native", "sim")
    assert config.cost.epc_limit is None
    assert config.cost.syscall_cost() == 0


def test_backends_pick_timing_models():
    # The calibrated dataclass defaults, not a second set of numbers.
    assert make_config("sgx", "sim").drive_timing == SimulatorTiming()
    assert make_config("sgx", "disk").drive_timing == HddTiming()


def test_disk_config_models_shared_enclosure():
    shared = make_config("sgx", "disk")
    dedicated = make_config("sgx", "disk", shared_enclosure=False)
    assert shared.enclosure_per_op > 0
    assert dedicated.enclosure_per_op == 0


def test_sgx_replication_costs_more_than_native():
    native = make_config("native", "sim")
    sgx = make_config("sgx", "sim")
    assert sgx.replica_write_cpu > native.replica_write_cpu


def test_request_costs_shared_between_modes():
    # Same request-path constants; only enclave overheads differ.
    assert make_config("native", "sim").cost is NATIVE_COSTS
    assert make_config("sgx", "disk").cost is SGX_COSTS
    assert NATIVE_COSTS.request_parse == SGX_COSTS.request_parse
    assert SGX_COSTS.boundary_per_byte > 0


def test_unknown_mode_and_backend_rejected():
    with pytest.raises(ValueError):
        make_config("tpm", "sim")
    with pytest.raises(ValueError):
        make_config("sgx", "tape")


def test_paper_ratio_caches_scale():
    small = paper_ratio_caches(1_000, 1024)
    full = paper_ratio_caches(100_000, 1024)
    assert full.object_bytes > small.object_bytes
    # At paper scale the object cache is ~48 MB.
    assert 40 << 20 < full.object_bytes < 56 << 20
    assert full.policy_bytes == 5 << 20
