"""Pins the shape of the virtual-time cost model: one set of constants.

The calibrated constants live where their dataclasses are declared
(``sgx/costs.py``, ``kinetic/timing.py``) with the deployment around
them in ``bench/configs.py``; everything that keeps a virtual clock
derives from those.  These guards keep a second set from growing back:
a timing constant is a float literal below a millisecond, and a cost
model is a ``CostModel(...)`` call.
"""

import ast
import dataclasses
from pathlib import Path

import repro
from repro.core.engine import ENGINE_TIMING, EngineTiming

SRC = Path(repro.__file__).parent

#: Modules that keep or drive the engine's clock and may not carry a
#: timing constant of their own.
DERIVED_ONLY = [
    SRC / "core" / "engine.py",
    SRC / "bench" / "concurrency.py",
    SRC / "bench" / "overload.py",
    *sorted((SRC / "workload").glob("*.py")),
]


def _small_float_literals(path: Path) -> list[tuple[int, float]]:
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-3
    ]


def test_no_timing_literal_outside_the_constants_home():
    assert len(DERIVED_ONLY) > 5
    found = {
        str(path.relative_to(SRC)): literals
        for path in DERIVED_ONLY
        if (literals := _small_float_literals(path))
    }
    assert found == {}


def test_exactly_one_native_sgx_pair_of_cost_models():
    pairs = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "CostModel"
            ):
                pairs.append(
                    (str(path.relative_to(SRC)), node.targets[0].id)
                )
    assert pairs == [
        ("sgx/costs.py", "NATIVE_COSTS"),
        ("sgx/costs.py", "SGX_COSTS"),
    ]


def test_engine_timing_has_no_number_of_its_own():
    fields = dataclasses.fields(EngineTiming)
    assert [spec.name for spec in fields] == [
        "cpu_per_segment", "drive_base", "drive_per_op", "syscall_submit",
    ]
    for spec in fields:
        assert spec.default is dataclasses.MISSING
        assert spec.default_factory is dataclasses.MISSING
        assert getattr(ENGINE_TIMING, spec.name) > 0
