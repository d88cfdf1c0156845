"""Sharded deployment: multiple controllers behind a load balancer.

§6.2: "A more immediate solution to increase the overall system
throughput is to run multiple Pesos instances in parallel behind a
load balancer while sharding the object space among them."

:class:`ShardedPesos` is that load balancer: it routes object
operations to shards by key hash, broadcasts policy installation (a
policy's identity is its content hash, so every shard agrees on ids),
and pins asynchronous operations and transactions to the shard that
created them.  Transactions cannot span shards — a cross-shard key is
rejected rather than half-committed, matching the paper's position
that distributed transactions belong in a layer above Pesos (§4.4).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.core.admission import AdmissionConfig, AdmissionController
from repro.core.controller import PesosController
from repro.core.request import Request, Response, error_response
from repro.errors import ConfigurationError, RequestError, TransactionError


class ShardedPesos:
    """Routes client requests across independent Pesos instances."""

    def __init__(
        self,
        controllers: list[PesosController],
        admission: AdmissionConfig | None = None,
    ):
        if not controllers:
            raise ConfigurationError("need at least one shard")
        self.shards = list(controllers)
        self._txid_shard: dict[str, int] = {}
        self._opid_shard: dict[str, int] = {}
        self.routed = [0] * len(controllers)
        #: Per-shard overload protection: each shard gets its own
        #: :class:`AdmissionController` over its own session manager,
        #: so one hot shard sheds without throttling its siblings.  The
        #: jitter seed is offset per shard so Retry-After hints across
        #: shards decorrelate while staying replayable.
        self.admission: list[AdmissionController] | None = None
        if admission is not None:
            self.admission = [
                AdmissionController(
                    replace(
                        admission,
                        seed=admission.seed + index,
                        priorities=dict(admission.priorities),
                    )
                ).attach(shard)
                for index, shard in enumerate(self.shards)
            ]

    # -- routing ---------------------------------------------------------------

    def shard_index(self, key: str) -> int:
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:8], "big") % len(self.shards)

    def shard_for(self, key: str) -> PesosController:
        return self.shards[self.shard_index(key)]

    # -- the load-balancer request path ------------------------------------------

    def handle(
        self, request: Request, fingerprint: str, now: float = 0.0  # pesos: allow[det-default-clock]
    ) -> Response:
        request.validate()
        method = request.method
        if method == "put_policy":
            return self._broadcast_policy(request, fingerprint, now)
        if method == "get_policy":
            # Policies exist on every shard; any shard can answer.
            return self._route(0, request, fingerprint, now)
        if method == "create_tx":
            # The transaction binds to a shard at its first keyed op.
            response = Response(status=200, txid=f"pending-{len(self._txid_shard)}")
            self._txid_shard[response.txid] = -1
            return response
        if method in ("add_read", "add_write"):
            return self._tx_keyed(request, fingerprint, now)
        if method in ("commit_tx", "abort_tx", "tx_results"):
            return self._tx_routed(request, fingerprint, now)
        if method == "status":
            index = self._opid_shard.get(request.operation_id)
            if index is None:
                from repro.errors import ResultExpired

                return error_response(
                    ResultExpired(f"no shard holds {request.operation_id}")
                )
            return self._route(index, request, fingerprint, now)
        # Keyed object operations.
        index = self.shard_index(request.key)
        response = self._route(index, request, fingerprint, now)
        if response.operation_id:
            self._opid_shard[response.operation_id] = index
        return response

    def _route(
        self, index: int, request: Request, fingerprint: str, now: float
    ) -> Response:
        if self.admission is not None:
            # Per-shard gate at the single routing funnel.  Shedding
            # happens before the shard sees the request, so a shed
            # broadcast leg (e.g. put_policy) is retry-safe: policy ids
            # are content hashes and re-installation is idempotent.
            decision = self.admission[index].check(request, fingerprint, now)
            if not decision.admitted:
                return decision.to_response()
        self.routed[index] += 1
        return self.shards[index].handle(request, fingerprint, now)

    # -- policies --------------------------------------------------------------------

    def _broadcast_policy(
        self, request: Request, fingerprint: str, now: float
    ) -> Response:
        responses = [
            self._route(index, request, fingerprint, now)
            for index in range(len(self.shards))
        ]
        failed = next((r for r in responses if not r.ok), None)
        if failed is not None:
            return failed
        ids = {response.policy_id for response in responses}
        if len(ids) != 1:  # pragma: no cover - content hash guarantees this
            raise RequestError("shards disagree on policy identity")
        return responses[0]

    # -- transactions ---------------------------------------------------------------------

    def _tx_keyed(
        self, request: Request, fingerprint: str, now: float
    ) -> Response:
        bound = self._txid_shard.get(request.txid)
        if bound is None:
            return error_response(
                TransactionError(f"no transaction {request.txid!r}")
            )
        key_shard = self.shard_index(request.key)
        if bound == -1:
            # First keyed op: create the real transaction on the key's
            # shard and rebind the public txid to the shard's txid.
            create = self._route(
                key_shard, Request(method="create_tx"), fingerprint, now
            )
            self._txid_shard[request.txid] = key_shard
            self._txid_shard[f"real:{request.txid}"] = create.txid  # type: ignore[assignment]
        elif key_shard != bound:
            return error_response(
                TransactionError(
                    f"cross-shard transaction: {request.key!r} maps to "
                    f"shard {key_shard}, transaction bound to {bound}"
                )
            )
        return self._forward_tx(request, fingerprint, now)

    def _tx_routed(
        self, request: Request, fingerprint: str, now: float
    ) -> Response:
        bound = self._txid_shard.get(request.txid)
        if bound is None:
            return error_response(
                TransactionError(f"no transaction {request.txid!r}")
            )
        if bound == -1:
            # Never touched a key: commit/abort of an empty transaction.
            return Response(status=200, txid=request.txid)
        return self._forward_tx(request, fingerprint, now)

    def _forward_tx(
        self, request: Request, fingerprint: str, now: float
    ) -> Response:
        index = self._txid_shard[request.txid]
        real_txid = self._txid_shard[f"real:{request.txid}"]
        forwarded = Request(
            method=request.method,
            key=request.key,
            value=request.value,
            policy_id=request.policy_id,
            txid=real_txid,  # type: ignore[arg-type]
        )
        response = self._route(index, forwarded, fingerprint, now)
        response.txid = request.txid  # present the public id
        return response

    # -- aggregate stats ------------------------------------------------------------

    def total_requests(self) -> int:
        return sum(self.routed)

    def admission_snapshot(self) -> list[dict]:
        """Per-shard admission state, empty when admission is off."""
        if self.admission is None:
            return []
        return [controller.snapshot() for controller in self.admission]
