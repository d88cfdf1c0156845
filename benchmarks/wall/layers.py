"""Per-layer tracing from outside the program.

The traced pass wraps each layer's public entry points with a timing
closure that records one span per call: name, start, end, the span
that caused it, and the index of the request being served.  Spans stay
in memory (column arrays, 26 bytes per span) and are summarised and
written out after the run.  A layer's self time is its spans' duration
minus the part covered by their child spans, so layer shares sum to
one over the root spans.

Untraced passes never call :func:`install`; :func:`assert_pristine`
proves the wrapped attributes are the objects the program shipped.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import repro.core.webserver as webserver_module
import repro.kinetic.protocol as protocol_module
from repro.core.admission import AdmissionController
from repro.core.cache import CacheManager
from repro.core.controller import PesosController
from repro.core.freshness import FreshnessAuthority
from repro.core.store import ObjectStore, StoredMeta
from repro.core.webserver import WebServer
from repro.crypto.aead import StreamAead
from repro.kinetic.client import KineticClient
from repro.kinetic.drive import KineticDrive
from repro.kinetic.protocol import Message
from repro.policy.compiled import PolicyEngine
from repro.policy.context import VersionInfo
from repro.sgx.enclave import Enclave, MonotonicCounter

ROOT = "WebServer.handle_bytes"

#: (layer, owner, attribute names) — the timed entry points.
TIMED: tuple[tuple[str, object, tuple[str, ...]], ...] = (
    ("core.webserver", WebServer, ("handle_bytes",)),
    ("core.webserver", webserver_module,
     ("parse_http_request", "render_http_response")),
    ("core.admission", AdmissionController, ("check",)),
    ("core.controller", PesosController, ("handle",)),
    ("core.cache", CacheManager,
     ("get_policy", "put_policy", "get_object", "put_object",
      "get_meta", "put_meta")),
    ("policy", PolicyEngine, ("evaluate",)),
    ("policy", VersionInfo, ("from_content",)),
    ("core.store", ObjectStore,
     ("read_meta", "read_value", "store_version", "scan_keys",
      "read_policy", "write_policy", "delete_object")),
    ("core.store", StoredMeta, ("encode", "decode")),
    ("crypto.aead", StreamAead, ("seal", "open")),
    ("core.freshness", FreshnessAuthority,
     ("prepare", "settle", "abort", "expected", "acceptable")),
    ("sgx.enclave", Enclave, ("seal", "unseal")),
    ("sgx.enclave", MonotonicCounter, ("increment", "read")),
    ("kinetic.client", KineticClient,
     ("put", "get", "delete", "get_key_range", "get_version")),
    ("kinetic.protocol", Message, ("sign", "verify", "encode", "decode")),
    ("kinetic.drive", KineticDrive, ("handle",)),
)

#: Counted, not timed: they run ~8x per round trip and a timer on each
#: would be most of what it measured.
COUNTED: tuple[tuple[object, str], ...] = (
    (Message, "command_bytes"),
    (protocol_module, "encode_fields"),
)

#: Byte counts taken at a span boundary: name -> f(args, result).
_SIZED = {
    "StreamAead.seal": lambda args, result: len(args[2]),
    "StreamAead.open": lambda args, result: len(args[2]),
    "StoredMeta.encode": lambda args, result: len(result),
}


def _owner_name(owner) -> str:
    name = getattr(owner, "__name__", str(owner))
    return name.rsplit(".", 1)[-1]


def span_name(owner, attr: str) -> str:
    if owner is webserver_module:
        return attr
    return f"{_owner_name(owner)}.{attr}"


def _targets():
    for _layer, owner, attrs in TIMED:
        for attr in attrs:
            yield owner, attr
    yield from COUNTED


#: What the program shipped, captured before anything can patch it.
ORIGINALS = {
    (owner, attr): vars(owner)[attr] for owner, attr in _targets()
}


def assert_pristine() -> None:
    """Raise unless every wrapped attribute is the shipped object."""
    for (owner, attr), original in ORIGINALS.items():
        if vars(owner)[attr] is not original:
            raise AssertionError(
                f"{_owner_name(owner)}.{attr} is patched in an untraced pass"
            )


@dataclass
class Tracer:
    """Span columns plus the call stack of the single client thread."""

    names: list = field(default_factory=list)          # id -> span name
    layers: list = field(default_factory=list)         # id -> layer
    name_id: array = field(default_factory=lambda: array("H"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    parent: array = field(default_factory=lambda: array("i"))
    request: array = field(default_factory=lambda: array("i"))
    stack: list = field(default_factory=lambda: [-1])
    #: Index of the request being served (set by the harness loop).
    current_request: int = -1
    counts: dict = field(default_factory=dict)
    sized: dict = field(default_factory=dict)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, name: str, layer: str):
        ident = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        name_id, start, end = self.name_id, self.start, self.end
        parent, request, stack = self.parent, self.request, self.stack
        size_of = _SIZED.get(name)
        sized = self.sized
        if size_of is not None:
            sized[name] = 0

        def traced(*args, **kwargs):
            index = len(name_id)
            name_id.append(ident)
            parent.append(stack[-1])
            request.append(self.current_request)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if size_of is not None:
                sized[name] += size_of(args, result)
            return result

        return traced

    def _counted(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        assert_pristine()
        for layer, owner, attrs in TIMED:
            for attr in attrs:
                self._patch(
                    owner, attr,
                    lambda fn, n=span_name(owner, attr), la=layer:
                    self._timed(fn, n, la),
                )
        for owner, attr in COUNTED:
            self._patch(
                owner, attr,
                lambda fn, n=span_name(owner, attr): self._counted(fn, n),
            )

    @staticmethod
    def _patch(owner, attr: str, wrap) -> None:
        original = ORIGINALS[owner, attr]
        if isinstance(original, classmethod):
            patched = classmethod(wrap(original.__func__))
        else:
            patched = wrap(original)
        setattr(owner, attr, patched)

    @staticmethod
    def uninstall() -> None:
        for (owner, attr), original in ORIGINALS.items():
            setattr(owner, attr, original)
        assert_pristine()

    # -- summaries -------------------------------------------------------

    def summarise(self, request_factor: list) -> "TraceSummary":
        """Fold the span columns into per-name and per-layer totals.

        ``request_factor[i]`` is the calibration factor of the batch
        request ``i`` ran in; every span of that request is scaled by
        it, so layer times are in the same reference-machine seconds as
        the end-to-end times and add up to them.
        """
        count = len(self.name_id)
        start, end, parent, name_id = (
            self.start, self.end, self.parent, self.name_id
        )
        request = self.request
        durations = [
            (end[index] - start[index]) * request_factor[request[index]]
            for index in range(count)
        ]
        child_time = [0.0] * count
        for index in range(count):
            above = parent[index]
            if above >= 0:
                child_time[above] += durations[index]
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        for index in range(count):
            ident = name_id[index]
            duration = durations[index]
            calls[ident] += 1
            inclusive[ident] += duration
            self_time[ident] += duration - child_time[index]
        by_name = {
            name: SpanTotals(calls[i], inclusive[i], self_time[i])
            for i, name in enumerate(self.names)
        }
        by_layer: dict[str, SpanTotals] = {}
        for i, layer in enumerate(self.layers):
            totals = by_layer.setdefault(layer, SpanTotals())
            totals.calls += calls[i]
            totals.self_seconds += self_time[i]
        root = by_name.get(ROOT, SpanTotals())
        return TraceSummary(
            by_name=by_name,
            by_layer=by_layer,
            root_seconds=root.inclusive_seconds,
            root_self_seconds=root.self_seconds,
            counts=dict(self.counts),
            sized=dict(self.sized),
            spans=count,
        )

    def dump(
        self, path: str, workload: str, seed: int, request_factor: list
    ) -> None:
        """Write every span, column-wise, as one JSON document.

        ``start_s``/``end_s`` are raw clock readings; multiply a span's
        duration by ``request_factor[request]`` for calibrated seconds.
        """
        document = {
            "workload": workload,
            "seed": seed,
            "columns": "name_id,start_s,end_s,parent,request",
            "request_factor": request_factor,
            "names": self.names,
            "layers": self.layers,
            "name_id": self.name_id.tolist(),
            "start_s": self.start.tolist(),
            "end_s": self.end.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


@dataclass
class SpanTotals:
    calls: int = 0
    inclusive_seconds: float = 0.0
    self_seconds: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.inclusive_seconds / self.calls * 1e6 if self.calls else 0.0


@dataclass
class TraceSummary:
    by_name: dict
    by_layer: dict
    root_seconds: float
    root_self_seconds: float
    counts: dict
    sized: dict
    spans: int

    def name(self, span: str) -> SpanTotals:
        return self.by_name.get(span, SpanTotals())
