"""Project lint rules: each fires on a minimal snippet, the pragma
silences it, and the repository itself is clean."""

from pathlib import Path

from repro.analysis.__main__ import analyze_targets, default_targets
from repro.analysis.lint import lint_source

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def rules(source, rel_path="core/example.py"):
    return [f.rule for f in lint_source(source, rel_path)]


# -- det-wall-clock ----------------------------------------------------------

def test_wall_clock_read_flagged():
    assert rules("import time\nt = time.time()\n") == ["det-wall-clock"]


def test_wall_clock_alias_does_not_dodge():
    assert rules("import time as _time\nt = _time.time()\n") == [
        "det-wall-clock"
    ]


def test_datetime_now_flagged_from_import():
    source = "from datetime import datetime\nt = datetime.now()\n"
    assert rules(source) == ["det-wall-clock"]


def test_perf_counter_measurement_is_allowed():
    assert rules("import time\nt = time.perf_counter()\n") == []


def test_bench_driver_is_exempt():
    source = "import time\nt = time.time()\n"
    assert lint_source(source, "bench/__main__.py") == []


# -- det-unseeded-random -----------------------------------------------------

def test_global_random_flagged():
    assert rules("import random\nx = random.random()\n") == [
        "det-unseeded-random"
    ]


def test_seeded_rng_instance_is_fine():
    source = "import random\nrng = random.Random(7)\nx = rng.random()\n"
    assert rules(source) == []


# -- sgx-enclave-io ----------------------------------------------------------

def test_socket_inside_enclave_flagged():
    source = "import socket\ns = socket.socket()\n"
    reported = [
        f.rule for f in lint_source(source, "sgx/enclave.py")
    ]
    assert reported == ["sgx-enclave-io", "sgx-enclave-io"]  # import + call


def test_builtin_open_inside_enclave_flagged():
    assert [
        f.rule
        for f in lint_source("fh = open('x')\n", "sgx/enclave.py")
    ] == ["sgx-enclave-io"]


def test_syscall_model_is_exempt():
    source = "import socket\ns = socket.socket()\n"
    assert lint_source(source, "sgx/syscalls.py") == []


def test_aead_open_method_is_not_builtin_open():
    assert lint_source("x = aead.open(blob)\n", "sgx/enclave.py") == []


def test_io_outside_sgx_is_not_this_rules_problem():
    assert rules("import socket\ns = socket.socket()\n") == []


# -- core-drive-io -----------------------------------------------------------

def test_direct_drive_call_in_core_flagged():
    assert rules("r = client.direct('get', key)\n") == ["core-drive-io"]


def test_direct_call_with_pragma_allowed():
    source = "r = client.direct('get', key)  # pesos: allow[core-drive-io]\n"
    assert rules(source) == []


def test_direct_outside_core_is_fine():
    source = "r = client.direct('get', key)\n"
    assert lint_source(source, "kinetic/client.py") == []


# -- core-no-swallow ---------------------------------------------------------

def test_swallowing_broad_except_flagged():
    source = "try:\n    x()\nexcept Exception:\n    pass\n"
    assert rules(source) == ["core-no-swallow"]


def test_bare_except_flagged():
    source = "try:\n    x()\nexcept:\n    y = 1\n"
    assert rules(source) == ["core-no-swallow"]


def test_reraising_broad_except_warns_in_core():
    # Deliberate catch-alls in core/ must carry a justification
    # pragma; the finding is a warning, so the CI gate still passes.
    source = "try:\n    x()\nexcept Exception:\n    count()\n    raise\n"
    findings = lint_source(source, "core/example.py")
    assert rules(source) == ["core-no-swallow"]
    assert [f.severity for f in findings] == ["warning"]


def test_reraising_broad_except_outside_core_is_fine():
    source = "try:\n    x()\nexcept Exception:\n    count()\n    raise\n"
    assert lint_source(source, "kinetic/client.py") == []


def test_broad_except_leaking_exc_into_response_flagged():
    source = (
        "try:\n"
        "    x()\n"
        "except Exception as exc:\n"
        "    resp = Response(status=500, error=f'failed: {exc}')\n"
        "    raise\n"
    )
    findings = lint_source(source, "core/example.py")
    assert "interpolates the raw exception" in findings[0].message
    assert findings[0].severity == "error"


def test_narrow_except_into_response_is_fine():
    # A typed handler reprs a known protocol error, not arbitrary
    # internal state.
    source = (
        "try:\n"
        "    x()\n"
        "except PesosError as exc:\n"
        "    resp = Response(status=exc.status, error=str(exc))\n"
    )
    assert rules(source) == []


def test_narrow_except_is_fine():
    source = "try:\n    x()\nexcept ValueError:\n    pass\n"
    assert rules(source) == []


def test_base_exception_is_deliberate_and_excluded():
    source = "try:\n    x()\nexcept BaseException as exc:\n    keep(exc)\n"
    assert rules(source) == []


# -- crypto-nonce-reuse ------------------------------------------------------

def test_constant_nonce_flagged():
    source = "blob = gcm.seal(bytes(12), data, aad)\n"
    assert rules(source, "crypto/example.py") == ["crypto-nonce-reuse"]


def test_reused_attribute_nonce_flagged():
    source = (
        "def seal_it(self, data):\n"
        "    return self._gcm.seal(self.last_nonce, data)\n"
    )
    assert rules(source, "crypto/example.py") == ["crypto-nonce-reuse"]


def test_token_bytes_nonce_allowed():
    source = (
        "def seal_it(gcm, data):\n"
        "    nonce = secrets.token_bytes(12)\n"
        "    return nonce + gcm.seal(nonce, data)\n"
    )
    assert rules(source, "crypto/example.py") == []


def test_counter_derived_nonce_allowed():
    source = (
        "def send(self, data):\n"
        "    nonce = self._seq.to_bytes(12, 'big')\n"
        "    self._seq += 1\n"
        "    return self._gcm.seal(nonce, data)\n"
    )
    assert rules(source, "crypto/example.py") == []


def test_nonce_param_passthrough_allowed():
    # Wrapper idiom: the caller owes the freshness.
    source = (
        "def seal(self, nonce, plaintext, aad=b''):\n"
        "    return self._gcm.seal(nonce, plaintext, aad)\n"
    )
    assert rules(source, "crypto/example.py") == []


def test_nonce_helper_call_allowed():
    source = (
        "def write(self, gen, index, chunk):\n"
        "    return self._aead.seal(self._nonce(gen, index), chunk)\n"
    )
    assert rules(source, "sgx/example.py") == []


def test_single_arg_seal_not_a_nonce_call():
    # ``enclave.seal(data)`` takes no nonce; out of the rule's scope.
    source = "blob = enclave.seal(data)\n"
    assert rules(source, "sgx/example.py") == []


# -- telemetry-label-cardinality --------------------------------------------

def test_fstring_label_flagged():
    source = "m.labels(f'{kind}:{region}').inc()\n"
    assert rules(source) == ["telemetry-label-cardinality"]


def test_unbounded_identifier_label_flagged():
    assert rules("m.labels(request.key).inc()\n") == [
        "telemetry-label-cardinality"
    ]


def test_literal_and_bounded_labels_are_fine():
    assert rules("m.labels('get', outcome).inc()\n") == []


# -- det-default-clock -------------------------------------------------------

def test_defaulted_now_in_core_flagged():
    source = "def connect(fp, now=0.0):\n    pass\n"
    assert rules(source) == ["det-default-clock"]


def test_defaulted_keyword_only_clock_flagged():
    source = "def sweep(*, wall_clock: float = 0.0):\n    pass\n"
    assert rules(source) == ["det-default-clock"]


def test_required_clock_is_fine():
    source = "def connect(fp, *, now):\n    pass\n"
    assert rules(source) == []


def test_non_time_default_is_fine():
    assert rules("def f(depth=3):\n    pass\n") == []


def test_defaulted_clock_outside_core_is_fine():
    source = "def run(now=0.0):\n    pass\n"
    assert lint_source(source, "bench/harness.py") == []


def test_defaulted_clock_pragma_allowed():
    source = (
        "def handle(req, now=0.0):  # pesos: allow[det-default-clock]\n"
        "    pass\n"
    )
    assert rules(source) == []


# -- core-unverified-meta-read -----------------------------------------------

def test_raw_client_read_in_core_flagged():
    source = "blob, version = self.clients[index].get(disk_key)\n"
    assert rules(source) == ["core-unverified-meta-read"]


def test_raw_range_scan_in_core_flagged():
    source = "keys = client.get_key_range(start, end)\n"
    assert rules(source) == ["core-unverified-meta-read"]


def test_unverified_read_pragma_allowed():
    source = (
        "blob, v = self.store.clients[i].get(key)"
        "  # pesos: allow[core-unverified-meta-read]\n"
    )
    assert rules(source) == []


def test_store_implements_verification_and_is_exempt():
    source = "blob, version = self.clients[index].get(disk_key)\n"
    assert lint_source(source, "core/store.py") == []


def test_raw_read_outside_core_is_fine():
    source = "blob, version = self.clients[index].get(disk_key)\n"
    assert lint_source(source, "bench/harness.py") == []


def test_non_client_get_is_not_a_drive_read():
    assert rules("value = mapping.get(key)\n") == []


# -- policy-stale-decision-cache ---------------------------------------------

def test_decision_cache_write_without_epoch_flagged():
    source = "self.decisions.put(key, value)\n"
    assert rules(source) == ["policy-stale-decision-cache"]


def test_decision_cache_write_missing_only_epoch_flagged():
    source = "cache.decision_cache.put(policy_hash, op, shape, d)\n"
    assert rules(source) == ["policy-stale-decision-cache"]


def test_decision_cache_write_with_epoch_and_policy_is_fine():
    source = (
        "self.decisions.put(policy_hash, op, shape, "
        "epoch=self.decisions.epoch, decision=d)\n"
    )
    assert rules(source) == []


def test_non_decision_cache_put_is_not_flagged():
    assert rules("self.sessions.put(key, value)\n") == []


def test_decision_cache_write_pragma_allowed():
    source = (
        "self.decisions.put(key, value)"
        "  # pesos: allow[policy-stale-decision-cache]\n"
    )
    assert rules(source) == []


# -- the repository itself ---------------------------------------------------

def test_repo_source_tree_is_clean():
    findings = analyze_targets([SRC])
    assert findings == [], "\n".join(
        f"{f.location()}: {f.rule}" for f in findings
    )


def test_default_targets_include_example_policies():
    # default_targets resolves examples/ relative to the cwd; from the
    # repo root (how CI runs) the policy corpus must be picked up.
    targets = default_targets()
    assert targets[0] == SRC
