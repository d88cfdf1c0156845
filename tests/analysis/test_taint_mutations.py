"""Leak-mutation self-test for the secrecy-flow taint analyzer.

Each test copies ``src/repro`` into a sandbox, injects ONE synthetic
leak — a realistic mistake a future change could make — and asserts the
analyzer reports it with the right rule in the right file.  The anchors
are exact source snippets, so a refactor that moves them fails loudly
(the test asserts the anchor exists before mutating) instead of
silently testing nothing.

Together with ``test_clean_tree_is_silent`` this pins both directions:
no false positives on the real tree, no false negatives on the eight
leak classes the threat model bans (drive write, wire frame, metric
label, span attribute, HTTP body, audit entry, exception message, log
line — plus the commit-frame variant of the drive write, which only
reaches the drive through a deferred call two functions down, the
HTTP error-header variant, the scrape-time variant of the metric
label, where the value is read by a callable handed to
``telemetry.derived`` rather than passed to ``.labels()``, a span
attribute carrying an HMAC's precomputed pad state, and an opened
secure-channel record in an exception message).
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis.taint import analyze_package

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

STORE = "core/store.py"
CLIENT = "kinetic/client.py"
CONTROLLER = "core/controller.py"
WEBSERVER = "core/webserver.py"
CHANNEL = "crypto/channel.py"
CHANNEL_OPEN = "        plaintext = self._recv_aead.open(nonce, record, aad)\n"


def mutate(tmp_path: Path, rel_path: str, old: str, new: str) -> Path:
    """Copy the package and apply one anchored mutation."""
    root = tmp_path / "repro"
    shutil.copytree(
        SRC, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    target = root / rel_path
    source = target.read_text()
    assert old in source, f"mutation anchor vanished from {rel_path}"
    target.write_text(source.replace(old, new, 1))
    return root


def rules_in(findings, rel_path: str):
    return {f.rule for f in findings if f.file == rel_path}


# -- baseline ----------------------------------------------------------------

def test_clean_tree_is_silent():
    findings = analyze_package(SRC)
    assert findings == [], [
        f"{f.file}:{f.line} {f.rule}" for f in findings
    ]


# -- the eight leak classes --------------------------------------------------

WRITE_VALUE_SEAL = (
    "        blob = self._seal(value, aad)\n"
    "        ops = [_forced(disk_key, blob)]"
)


def test_unsealed_drive_write_detected(tmp_path):
    # Writing the plaintext instead of the sealed blob to a replica.
    root = mutate(
        tmp_path,
        STORE,
        WRITE_VALUE_SEAL,
        "        blob = self._seal(value, aad)\n"
        "        self.clients[0].put(disk_key, value, force=True)\n"
        "        ops = [_forced(disk_key, blob)]",
    )
    assert "taint/drive-write" in rules_in(analyze_package(root), STORE)


def test_plaintext_in_commit_frame_detected(tmp_path):
    # Framing the plaintext instead of the sealed blob: the leak is
    # one op of a list that reaches the drive two calls further down.
    root = mutate(
        tmp_path,
        STORE,
        WRITE_VALUE_SEAL,
        "        blob = self._seal(value, aad)\n"
        "        ops = [_forced(disk_key, value)]",
    )
    assert "taint/drive-write" in rules_in(analyze_package(root), STORE)


def test_key_in_wire_frame_detected(tmp_path):
    # Embedding the client's keyed HMAC into a PUT request body.
    root = mutate(
        tmp_path,
        CLIENT,
        "        response = self._roundtrip(MessageType.PUT, body)",
        '        body["debug_mac"] = self._mac_key\n'
        "        response = self._roundtrip(MessageType.PUT, body)",
    )
    assert "taint/wire-frame" in rules_in(analyze_package(root), CLIENT)


def test_plaintext_metric_label_detected(tmp_path):
    # Using the object value as a Prometheus label.
    root = mutate(
        tmp_path,
        STORE,
        WRITE_VALUE_SEAL,
        "        self._m_drive_bytes.labels(value).inc(1)\n"
        + WRITE_VALUE_SEAL,
    )
    assert "taint/metric-label" in rules_in(analyze_package(root), STORE)


JOURNAL_READER = "            lambda: len(self.journal),\n"


@pytest.mark.parametrize(
    "rel_path, anchor, leak",
    [
        # The reader is a lambda closing over the object value: it runs
        # at scrape time, the leak is written here.
        (
            STORE,
            WRITE_VALUE_SEAL,
            "        self.telemetry.derived(\n"
            '            "pesos_last_write", "gauge", "Last value written.",\n'
            '            lambda: [(value, 1)], ("value",),\n'
            "        )\n" + WRITE_VALUE_SEAL,
        ),
        # The reader is a bound method returning decrypted content: the
        # analyzer follows the reference to what the method returns.
        (STORE, JOURNAL_READER, "            self.read_value,\n"),
    ],
    ids=["lambda", "method"],
)
def test_plaintext_scrape_time_label_detected(
    tmp_path, rel_path, anchor, leak
):
    # Publishing plaintext through a derived (scrape-time) family — the
    # sites no ``.labels()`` call guards.
    root = mutate(tmp_path, rel_path, anchor, leak)
    assert "taint/metric-label" in rules_in(analyze_package(root), rel_path)


def test_plaintext_span_attribute_detected(tmp_path):
    # Recording the value itself (not its size) on a trace span.
    root = mutate(
        tmp_path,
        STORE,
        "            key=meta.key,\n"
        "            version=new_version,\n"
        "            bytes=len(value),\n"
        "        ):",
        "            key=meta.key,\n"
        "            version=new_version,\n"
        "            payload=value,\n"
        "        ):",
    )
    assert "taint/span-attribute" in rules_in(analyze_package(root), STORE)


def test_mac_pad_state_span_attribute_detected(tmp_path):
    # Recording a precomputed HMAC pad state, reached through objects no
    # other rule marks, on a trace span: only the pad-state name sources
    # make it key material.
    root = mutate(
        tmp_path,
        STORE,
        "            bytes=len(value),\n"
        "        ):",
        "            bytes=len(value),\n"
        "            mac=self._aead._mac_key._ipad_state,\n"
        "        ):",
    )
    assert "taint/span-attribute" in rules_in(analyze_package(root), STORE)


def test_key_in_http_body_detected(tmp_path):
    # Returning key material in an admin HTTP response body.
    root = mutate(
        tmp_path,
        WEBSERVER,
        '        return _admin_response(404, "text/plain",'
        ' b"unknown admin path\\n")',
        '        return _admin_response(\n'
        '            200, "text/plain",'
        " self.controller.store._aead._enc_key\n"
        "        )",
    )
    assert "taint/http-body" in rules_in(analyze_package(root), WEBSERVER)


GET_RESPONSE = (
    "        self.effects.record(COPY, len(value))\n"
    "        return Response("
)


def test_plaintext_audit_entry_detected(tmp_path):
    # Recording the read value in the tamper-evident audit chain.
    root = mutate(
        tmp_path,
        CONTROLLER,
        GET_RESPONSE,
        '        self.auditor.record_shed(\n'
        '            "get", value, session.fingerprint, request.key, now\n'
        "        )\n" + GET_RESPONSE,
    )
    assert "taint/audit-entry" in rules_in(analyze_package(root), CONTROLLER)


def test_plaintext_exception_message_detected(tmp_path):
    # Quoting the value in an error raised off the write path.
    root = mutate(
        tmp_path,
        STORE,
        WRITE_VALUE_SEAL,
        "        if not value:\n"
        '            raise ValueError(f"refusing empty write of {value!r}")\n'
        + WRITE_VALUE_SEAL,
    )
    assert "taint/exception-message" in rules_in(
        analyze_package(root), STORE
    )


def test_channel_record_in_exception_message_detected(tmp_path):
    # Quoting an opened channel record: the receiving AEAD is a
    # SecureChannel attribute, so its name must be an AEAD receiver.
    root = mutate(
        tmp_path,
        CHANNEL,
        CHANNEL_OPEN,
        CHANNEL_OPEN
        + "        if not plaintext:\n"
        '            raise IntegrityError(f"empty record {plaintext!r}")\n',
    )
    assert "taint/exception-message" in rules_in(
        analyze_package(root), CHANNEL
    )


def test_plaintext_log_line_detected(tmp_path):
    # Debug print of the value on the write path.
    root = mutate(
        tmp_path,
        STORE,
        WRITE_VALUE_SEAL,
        "        print(value)\n" + WRITE_VALUE_SEAL,
    )
    assert "taint/log-line" in rules_in(analyze_package(root), STORE)


def test_plaintext_http_error_header_detected(tmp_path):
    # Interpolating the value into the X-Pesos-Error header.
    root = mutate(
        tmp_path,
        CONTROLLER,
        "        return Response(\n"
        "            status=200,\n"
        "            value=value,\n"
        "            version=row.version,\n"
        "            policy_id=meta.policy_id,\n"
        "        )",
        "        return Response(\n"
        "            status=200,\n"
        "            value=value,\n"
        "            version=row.version,\n"
        "            policy_id=meta.policy_id,\n"
        '            error=f"served {value!r}",\n'
        "        )",
    )
    assert "taint/http-header" in rules_in(
        analyze_package(root), CONTROLLER
    )


# -- suppression and precision ----------------------------------------------

def test_pragma_silences_injected_leak(tmp_path):
    root = mutate(
        tmp_path,
        STORE,
        WRITE_VALUE_SEAL,
        "        # pesos: allow[taint/log-line]\n"
        "        print(value)\n" + WRITE_VALUE_SEAL,
    )
    assert "taint/log-line" not in rules_in(analyze_package(root), STORE)


def test_mutated_tree_reports_only_the_mutation(tmp_path):
    # A single injected leak must not fan out into unrelated files.
    root = mutate(
        tmp_path,
        STORE,
        WRITE_VALUE_SEAL,
        "        print(value)\n" + WRITE_VALUE_SEAL,
    )
    findings = analyze_package(root)
    assert {f.file for f in findings} == {STORE}


@pytest.mark.parametrize(
    "rel_path, anchor",
    [
        (STORE, WRITE_VALUE_SEAL),
        (CLIENT, "        response = self._roundtrip(MessageType.PUT, body)"),
        (CONTROLLER, GET_RESPONSE),
        (WEBSERVER, "unknown admin path"),
        (STORE, JOURNAL_READER),
        (CHANNEL, CHANNEL_OPEN),
    ],
)
def test_anchors_still_exist(rel_path, anchor):
    assert anchor in (SRC / rel_path).read_text()
