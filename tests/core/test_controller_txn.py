"""Transactions through the controller's request interface."""

import pytest

from repro.core.request import Request
from tests.core.conftest import ALICE, BOB


def _tx(controller, fingerprint):
    response = controller.handle(Request(method="create_tx"), fingerprint)
    assert response.ok
    return response.txid


def test_transactional_read_write(controller):
    controller.put(ALICE, "account-a", b"100")
    controller.put(ALICE, "account-b", b"50")
    txid = _tx(controller, ALICE)
    controller.handle(
        Request(method="add_read", key="account-a", txid=txid), ALICE
    )
    controller.handle(
        Request(method="add_write", key="account-a", value=b"75", txid=txid),
        ALICE,
    )
    controller.handle(
        Request(method="add_write", key="account-b", value=b"75", txid=txid),
        ALICE,
    )
    commit = controller.handle(Request(method="commit_tx", txid=txid), ALICE)
    assert commit.ok
    results = controller.handle(
        Request(method="tx_results", txid=txid), ALICE
    )
    assert results.ok
    assert b"read:account-a=100" in results.value  # read saw pre-tx value
    assert b"write:account-a=v1" in results.value
    assert controller.get(ALICE, "account-a").value == b"75"
    assert controller.get(ALICE, "account-b").value == b"75"


def test_transaction_isolated_to_session(controller):
    txid = _tx(controller, ALICE)
    response = controller.handle(
        Request(method="add_read", key="x", txid=txid), BOB
    )
    assert response.status == 409


def test_policy_denial_aborts_whole_transaction(controller):
    policy_id = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\nupdate :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    controller.put(ALICE, "guarded", b"v0", policy_id=policy_id)
    controller.put(ALICE, "free", b"v0")
    txid = _tx(controller, BOB)
    controller.handle(
        Request(method="add_write", key="free", value=b"bob", txid=txid), BOB
    )
    controller.handle(
        Request(method="add_write", key="guarded", value=b"bob", txid=txid),
        BOB,
    )
    commit = controller.handle(Request(method="commit_tx", txid=txid), BOB)
    assert commit.status == 409
    # Atomicity: the permitted write must not have been applied either.
    assert controller.get(ALICE, "free").value == b"v0"
    results = controller.handle(Request(method="tx_results", txid=txid), BOB)
    assert results.status == 409


def test_unknown_policy_aborts_before_any_write(controller, cluster):
    """§4.4 atomicity: a write naming an unknown policy is refused in
    phase 1, so the earlier write of the same transaction never lands."""
    txid = _tx(controller, ALICE)
    controller.handle(
        Request(method="add_write", key="first", value=b"a", txid=txid), ALICE
    )
    controller.handle(
        Request(method="add_write", key="second", value=b"b",
                policy_id="deadbeef", txid=txid),
        ALICE,
    )
    commit = controller.handle(Request(method="commit_tx", txid=txid), ALICE)
    assert commit.status == 409
    assert "unknown policy" in commit.error
    assert controller.txns.get(txid, ALICE).state == "aborted"
    assert controller.get(ALICE, "first").status == 404
    meta_key = controller.store.meta_key("first")
    assert all(meta_key not in drive._entries for drive in cluster.drives)
    again = controller.handle(Request(method="commit_tx", txid=txid), ALICE)
    assert again.status == 409
    assert "not open" in again.error


def test_transactional_read_denied_aborts(controller):
    policy_id = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\nupdate :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    controller.put(ALICE, "secret", b"v", policy_id=policy_id)
    txid = _tx(controller, BOB)
    controller.handle(
        Request(method="add_read", key="secret", txid=txid), BOB
    )
    commit = controller.handle(Request(method="commit_tx", txid=txid), BOB)
    assert commit.status == 409


def test_abort_discards_writes(controller):
    controller.put(ALICE, "k", b"v0")
    txid = _tx(controller, ALICE)
    controller.handle(
        Request(method="add_write", key="k", value=b"v1", txid=txid), ALICE
    )
    assert controller.handle(
        Request(method="abort_tx", txid=txid), ALICE
    ).ok
    assert controller.get(ALICE, "k").value == b"v0"


def test_commit_unknown_tx(controller):
    response = controller.handle(
        Request(method="commit_tx", txid="tx-000099"), ALICE
    )
    assert response.status == 409


def test_transaction_creates_new_objects(controller):
    txid = _tx(controller, ALICE)
    controller.handle(
        Request(method="add_write", key="new-obj", value=b"fresh", txid=txid),
        ALICE,
    )
    assert controller.handle(
        Request(method="commit_tx", txid=txid), ALICE
    ).ok
    assert controller.get(ALICE, "new-obj").value == b"fresh"


def test_async_commit(controller):
    controller.put(ALICE, "k", b"v0")
    txid = _tx(controller, ALICE)
    controller.handle(
        Request(method="add_write", key="k", value=b"v1", txid=txid), ALICE
    )
    response = controller.handle(
        Request(method="commit_tx", txid=txid, asynchronous=True), ALICE
    )
    assert response.status == 202
    status = controller.handle(
        Request(method="status", operation_id=response.operation_id), ALICE
    )
    assert status.ok
    assert controller.get(ALICE, "k").value == b"v1"


def test_session_holds_only_open_transactions(controller):
    """``Session.transactions`` is the set of *open* handles that
    ``footprint()`` says it is: a transaction leaves it when it ends,
    committed or aborted (it grew by ``len(txid) + 48`` bytes per
    transaction, for ever, at 87c2486)."""
    from repro.core.request import build_http_request, parse_http_response
    from repro.core.webserver import WebServer

    server = WebServer(controller)

    def call(**fields):
        raw = server.handle_bytes(
            build_http_request(Request(**fields)), ALICE
        )
        return parse_http_response(raw)

    first = call(method="create_tx")
    session = controller.sessions.lookup(ALICE, now=0.0)
    assert session.transactions == {first.txid}
    assert call(method="abort_tx", txid=first.txid).status == 200
    start = session.footprint()
    for index in range(5000):
        txid = call(method="create_tx").txid
        if index % 1000 == 0:
            call(method="add_write", key="k", value=b"v", txid=txid)
            assert session.footprint() > start
        assert call(method="commit_tx", txid=txid).status == 200
    # One whose policy refuses it ends aborted, and leaves as well.
    txid = call(method="create_tx").txid
    call(method="add_write", key="k", value=b"v", policy_id="0" * 64, txid=txid)
    assert call(method="commit_tx", txid=txid).status == 409
    assert session.transactions == set()
    assert session.footprint() == start
