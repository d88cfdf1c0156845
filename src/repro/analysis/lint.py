"""Project-specific AST lint rules.

These are not style rules — each one guards an invariant the test
suite depends on but cannot easily assert:

``det-wall-clock``
    No ``time.time()`` / ``time.monotonic()`` / ``datetime.now()``
    outside ``bench/__main__.py``.  The engine is deterministic only
    because every timestamp flows from the virtual clock; one stray
    wall-clock read breaks replayability silently.
``det-unseeded-random``
    No module-level ``random.*`` calls (the process-global, unseeded
    RNG).  Randomness must come from a ``random.Random(seed)`` instance
    threaded through explicitly.
``sgx-enclave-io``
    Nothing under ``sgx/`` performs direct I/O (``socket``, ``os``
    file descriptors, builtin ``open``) except the syscall model
    (``sgx/syscalls.py``).  The enclave boundary is the point of the
    model; in-enclave I/O would bypass the transition accounting.
``core-drive-io``
    ``core/`` code never calls a drive client's ``.direct(...)``
    bypass.  All drive traffic must flow through the interceptor so
    the scheduler sees every preemption point.  The engine's two
    legitimate call sites (the interceptor itself) carry pragmas.
``core-no-swallow``
    No ``except Exception:`` / bare ``except:`` handler whose body
    lacks a ``raise``.  Swallowed faults turn corruption into silence;
    handlers must narrow the type, re-raise, or both.  Two variants
    ride along: a broad handler that interpolates the *bound
    exception* into a ``Response(...)`` leaks internal state (paths,
    offsets, secret-bearing reprs) to HTTP clients — error; and a
    broad handler in ``core/`` that only re-raises is flagged as a
    *warning* so each one carries a written justification pragma.
``crypto-nonce-reuse``
    Every AEAD ``seal``/``encrypt`` call's nonce argument must be
    visibly fresh: ``secrets.token_bytes(...)``, a monotonic-counter
    ``.to_bytes(...)`` derivation, a nonce-derivation helper call, or
    a pass-through ``nonce`` parameter of an enclosing wrapper.  A
    constant, reused attribute, or anything else repeats (key, nonce)
    pairs — which reuses the keystream, and XORing two ciphertexts
    then yields the XOR of their plaintexts.
``telemetry-label-cardinality``
    ``.labels(...)`` arguments must be bounded: no f-strings,
    ``%``/``.format`` formatting, or values named after unbounded
    identifiers (keys, fingerprints, transaction ids).  Unbounded
    labels grow the metrics registry without limit.
``det-default-clock``
    No defaulted time parameter (``now``, ``wall_clock``,
    ``timestamp``) in ``core/``.  A forgotten ``now`` silently pins a
    caller to time zero, so expiry and eviction decisions compare
    fresh state against the epoch — sessions were expired (or kept)
    depending on call order, not on the clock.  Outer entry points
    that deliberately treat the virtual epoch as "no clock yet" carry
    pragmas; everything below them must require the clock.
``core-unverified-meta-read``
    ``core/`` code outside the store and the freshness layer never
    reads drive state through a raw client call (``.get``,
    ``.get_key_range``, ...).  Such reads skip the check of the
    record's digest against the pinned Merkle leaf, so a replayed stale
    replica would be trusted on its version number alone — the exact
    hole rollback protection closes.  Route reads through
    ``ObjectStore.read_meta`` / ``read_policy`` / ``read_value``;
    deliberate raw reads (e.g. migration sources whose result
    re-enters the verified path) carry pragmas.

``policy-stale-decision-cache``
    Every write to a policy *decision* cache (a ``.put(...)`` on a
    receiver whose name mentions ``decision``) must carry the policy
    identity and the request shape explicitly — as keywords or as
    identifiers in the key arguments.  A cached verdict is sound only
    when its key holds everything the verdict read: the content hash
    of the policy (a new text is a new key) and the policy's read-set
    of the request.  A decision memoized without either is served to a
    request, or under a policy, that would be decided differently.
``core-url-parser``
    No stdlib URL parser (``urlparse``/``urlsplit``/``parse_qs``/
    ``parse_qsl``) in ``core/``: ``core/request.py::split_target`` is
    the one reading of a request target, for clients and admins alike.
``core-error-response``
    A ``Response(...)`` built from an error's ``.status`` or from
    ``str(...)`` appears only in ``core/request.py``
    (``error_response``): one place maps a failure to a response.
``crypto-per-call-hmac``
    No ``hmac.digest``/``hmac.new`` in ``kinetic/`` or
    ``crypto/aead.py``: every HMAC on a round trip is an
    ``HmacSha256`` keyed once by whoever holds the secret.
``det-timing-literal``
    No float literal in (0, 1e-3) in the modules that keep or drive the
    engine's clock: timing constants live in ``sgx/costs.py`` and
    ``kinetic/timing.py``, and the engine derives its clock from them.
``confined-call``
    A name called from one module only (``_CONFINED``): a cost model is
    built in ``sgx/costs.py``, lock acquisitions in ``core/`` are
    reported by the lock table in ``core/txn.py``, and only the store
    asks which metadata rule is in force (``_verifying``).

Suppression: ``# pesos: allow[rule-id]`` on the flagged line or the
line above (see :mod:`repro.analysis.findings`).
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, suppressed_rules

#: Files exempt from the determinism rules (the bench driver reports
#: real wall-clock alongside virtual time, on purpose).
_WALL_CLOCK_EXEMPT = ("bench/__main__.py",)

#: The one sgx module allowed to model host I/O.
_SGX_IO_EXEMPT = ("sgx/syscalls.py",)

#: Absolute-time reads: values that leak wall-clock timestamps into
#: behaviour or stored state.  ``perf_counter``/``monotonic`` deltas
#: feeding telemetry histograms are measurement-only and allowed.
_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

_GLOBAL_RANDOM_CALLS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "getrandbits",
    "randbytes",
    "seed",
}

_IO_MODULES = {"socket", "subprocess"}

_OS_IO_ATTRS = {
    "read",
    "write",
    "open",
    "pipe",
    "popen",
    "system",
    "fork",
    "exec",
    "socket",
}

#: Identifier fragments that signal unbounded metric label values.
_HIGH_CARDINALITY_NAMES = {
    "key",
    "fingerprint",
    "txid",
    "object_id",
    "policy_id",
    "nonce",
    "blob",
}


#: Parameter names that carry the virtual clock; defaulting one in
#: ``core/`` hides a time-zero pin from every forgetful caller.
_TIME_PARAM_NAMES = {"now", "wall_clock", "timestamp"}


#: Drive-client read methods that return raw (unverified) state.
_DRIVE_READ_ATTRS = {
    "get",
    "get_version",
    "get_next",
    "get_previous",
    "get_key_range",
}

#: The two core modules that *implement* verification and therefore
#: legitimately touch raw client reads.
_FRESHNESS_EXEMPT = ("core/store.py", "core/freshness.py")


#: AEAD entry points whose first argument is a nonce.
_NONCE_METHODS = {"seal", "encrypt"}


#: Modules whose import aliases the visitor resolves, so
#: ``import time as _time`` cannot dodge the rules.
_TRACKED_MODULES = {"time", "datetime", "random", "socket", "subprocess", "os", "hmac", "urllib"}

_URL_PARSERS = {"urlparse", "urlsplit", "parse_qs", "parse_qsl"}

#: Where a round trip's HMAC may not be set up per call.
_ROUND_TRIP = ("kinetic/", "crypto/aead.py")

#: Modules that keep or drive the engine's virtual clock.
_DERIVED_TIMING = ("core/engine.py", "bench/concurrency.py", "bench/overload.py", "workload/")

#: Callee name -> (the one module that may call it, scope of the rule).
_CONFINED = {
    "CostModel": ("sgx/costs.py", ""),
    "on_lock_acquire": ("core/txn.py", "core/"),
    "_verifying": ("core/store.py", ""),
}


def _is_fresh_nonce_expr(node: ast.AST) -> bool:
    """Expression shapes that produce a never-repeating nonce."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        # ``secrets.token_bytes(12)`` / ``seq.to_bytes(12, "big")`` /
        # ``self._nonce(generation, index)`` derivation helpers.
        if func.attr in ("token_bytes", "to_bytes"):
            return True
        if "nonce" in func.attr.lower():
            return True
    elif isinstance(func, ast.Name) and "nonce" in func.id.lower():
        return True
    return False


def _receiver_names(node: ast.AST) -> list[str]:
    """Every identifier in a call-receiver chain, subscripts included.

    ``self.store.clients[index]`` yields ``["clients", "store",
    "self"]`` — unlike :func:`_dotted`, which gives up at the
    subscript.  Calls in the chain resolve through their function.
    """
    names: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            names.append(node.id)
            return names
        else:
            return names


def _dotted(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``, or None for other shapes."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.in_sgx = rel_path.startswith("sgx/")
        self.in_core = rel_path.startswith("core/")
        self.findings: list[Finding] = []
        #: Local name -> canonical dotted path, for tracked modules.
        self._aliases: dict[str, tuple[str, ...]] = {}
        #: Per-function stack of names known to hold a fresh nonce.
        self._nonce_scopes: list[set[str]] = []

    def _resolve(self, dotted: tuple[str, ...]) -> tuple[str, ...]:
        alias = self._aliases.get(dotted[0])
        if alias is not None:
            return alias + dotted[1:]
        return dotted

    def report(
        self, rule: str, node: ast.AST, message: str,
        severity: str = "error",
    ) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                message=message,
                file=self.rel_path,
                line=getattr(node, "lineno", 0),
                severity=severity,
            )
        )

    # -- determinism -------------------------------------------------------

    def _check_wall_clock(self, node: ast.Call) -> None:
        if self.rel_path in _WALL_CLOCK_EXEMPT:
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        dotted = self._resolve(dotted)
        tail = dotted[-2:] if len(dotted) >= 2 else ()
        if tuple(tail) in _WALL_CLOCK_CALLS:
            self.report(
                "det-wall-clock",
                node,
                f"wall-clock read {'.'.join(dotted)}() breaks deterministic "
                "replay; use the engine's virtual clock",
            )
        if dotted == ("random",) or (
            len(dotted) == 2
            and dotted[0] == "random"
            and dotted[1] in _GLOBAL_RANDOM_CALLS
        ):
            self.report(
                "det-unseeded-random",
                node,
                f"{'.'.join(dotted)}() uses the process-global unseeded "
                "RNG; thread a random.Random(seed) instance instead",
            )

    # -- sgx I/O -----------------------------------------------------------

    def _check_sgx_io(self, node: ast.Call) -> None:
        if not self.in_sgx or self.rel_path in _SGX_IO_EXEMPT:
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        dotted = self._resolve(dotted)
        if dotted == ("open",):
            self.report(
                "sgx-enclave-io",
                node,
                "builtin open() inside the enclave model bypasses the "
                "syscall boundary; route through sgx/syscalls.py",
            )
        elif dotted[0] in _IO_MODULES or (
            dotted[0] == "os" and dotted[-1] in _OS_IO_ATTRS
        ):
            self.report(
                "sgx-enclave-io",
                node,
                f"direct host I/O {'.'.join(dotted)}() inside the enclave "
                "model; only sgx/syscalls.py may touch the host",
            )

    def _check_sgx_import(self, node: ast.Import | ast.ImportFrom) -> None:
        if not self.in_sgx or self.rel_path in _SGX_IO_EXEMPT:
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""]
        for name in names:
            if name.split(".")[0] in _IO_MODULES:
                self.report(
                    "sgx-enclave-io",
                    node,
                    f"import of {name} inside the enclave model; only "
                    "sgx/syscalls.py may touch the host",
                )

    # -- drive bypass ------------------------------------------------------

    def _check_drive_bypass(self, node: ast.Call) -> None:
        if not self.in_core:
            return
        if isinstance(node.func, ast.Attribute) and node.func.attr == "direct":
            self.report(
                "core-drive-io",
                node,
                ".direct() bypasses the drive-op interceptor, hiding a "
                "preemption point from the scheduler; issue the op through "
                "the intercepted client call",
            )

    # -- unverified metadata reads -----------------------------------------

    def _check_unverified_meta_read(self, node: ast.Call) -> None:
        if not self.in_core or self.rel_path in _FRESHNESS_EXEMPT:
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _DRIVE_READ_ATTRS:
            return
        receiver = _receiver_names(func.value)
        if any(name in ("client", "clients") for name in receiver):
            self.report(
                "core-unverified-meta-read",
                node,
                f"raw drive read .{func.attr}() skips the record digest "
                "check against the pinned Merkle leaf; read through the "
                "store's verified read path",
            )

    # -- policy decision-cache writes --------------------------------------

    def _check_decision_cache_write(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "put":
            return
        receiver = _receiver_names(func.value)
        if not any("decision" in name.lower() for name in receiver):
            return
        mentioned: set[str] = set()
        for value in list(node.args) + [kw.value for kw in node.keywords]:
            for inner in ast.walk(value):
                if isinstance(inner, ast.Name):
                    mentioned.add(inner.id.lower())
                elif isinstance(inner, ast.Attribute):
                    mentioned.add(inner.attr.lower())
        mentioned.update(kw.arg.lower() for kw in node.keywords if kw.arg)
        missing = [
            part
            for part in ("policy", "shape")
            if not any(part in name for name in mentioned)
        ]
        if missing:
            self.report(
                "policy-stale-decision-cache",
                node,
                "decision-cache write without an explicit "
                f"{'/'.join(missing)} key: a memoized verdict is served "
                "to requests its policy would decide differently; key "
                "the entry by (policy hash, operation, request shape)",
            )

    # -- telemetry labels --------------------------------------------------

    def _check_labels(self, node: ast.Call) -> None:
        if not (
            isinstance(node.func, ast.Attribute) and node.func.attr == "labels"
        ):
            return
        for arg in node.args:
            if isinstance(arg, ast.JoinedStr):
                self.report(
                    "telemetry-label-cardinality",
                    node,
                    "f-string label value: interpolated labels are "
                    "unbounded; use a fixed label set",
                )
            elif isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mod):
                self.report(
                    "telemetry-label-cardinality",
                    node,
                    "%-formatted label value: interpolated labels are "
                    "unbounded; use a fixed label set",
                )
            elif (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "format"
            ):
                self.report(
                    "telemetry-label-cardinality",
                    node,
                    ".format() label value: interpolated labels are "
                    "unbounded; use a fixed label set",
                )
            else:
                name = None
                if isinstance(arg, ast.Name):
                    name = arg.id
                elif isinstance(arg, ast.Attribute):
                    name = arg.attr
                if name is not None and name.lower() in _HIGH_CARDINALITY_NAMES:
                    self.report(
                        "telemetry-label-cardinality",
                        node,
                        f"label value {name!r} looks unbounded (per-key / "
                        "per-principal); metrics registries must stay "
                        "bounded",
                    )

    # -- defaulted clocks --------------------------------------------------

    def _check_default_clock(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if not self.in_core:
            return
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        flagged = [
            arg
            for arg in defaulted
            if arg.arg in _TIME_PARAM_NAMES
        ]
        flagged.extend(
            arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None and arg.arg in _TIME_PARAM_NAMES
        )
        for arg in flagged:
            self.report(
                "det-default-clock",
                arg,
                f"time parameter {arg.arg!r} has a default: a forgotten "
                "clock pins the caller to time zero and skews every "
                "expiry decision; make it a required keyword argument",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_default_clock(node)
        self._enter_function(node)
        self.generic_visit(node)
        self._nonce_scopes.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_default_clock(node)
        self._enter_function(node)
        self.generic_visit(node)
        self._nonce_scopes.pop()

    # -- nonce freshness ---------------------------------------------------

    def _enter_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """Collect the names that provably hold a fresh nonce here:
        ``nonce``-named parameters (wrapper pass-through — the caller
        owes the freshness) and locals assigned from a fresh-nonce
        expression anywhere in the body."""
        args = node.args
        safe = {
            arg.arg
            for arg in args.posonlyargs + args.args + args.kwonlyargs
            if "nonce" in arg.arg.lower()
        }
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and _is_fresh_nonce_expr(
                stmt.value
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        safe.add(target.id)
        self._nonce_scopes.append(safe)

    def _check_nonce_freshness(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _NONCE_METHODS or len(node.args) < 2:
            return
        nonce = node.args[0]
        if _is_fresh_nonce_expr(nonce):
            return
        if isinstance(nonce, ast.Name) and any(
            nonce.id in scope for scope in self._nonce_scopes
        ):
            return
        self.report(
            "crypto-nonce-reuse",
            node,
            f".{func.attr}() nonce is not visibly fresh: a repeated "
            "(key, nonce) pair reuses the keystream; use "
            "secrets.token_bytes(), a monotonic counter's .to_bytes(), "
            "or a nonce-derivation helper",
        )

    # -- one home per design rule -------------------------------------------

    def _check_round_trip_hmac(self, node: ast.Call) -> None:
        if not self.rel_path.startswith(_ROUND_TRIP):
            return
        dotted = _dotted(node.func)
        if dotted is not None and self._resolve(dotted) in (
            ("hmac", "digest"), ("hmac", "new"),
        ):
            self.report(
                "crypto-per-call-hmac",
                node,
                "per-call hmac setup on the drive round trip; key an "
                "HmacSha256 once and reuse it",
            )

    def _check_error_response(self, node: ast.Call) -> None:
        if self.rel_path == "core/request.py" or not (
            isinstance(node.func, ast.Name) and node.func.id == "Response"
        ):
            return
        for keyword in node.keywords:
            value = keyword.value
            if (
                keyword.arg == "status"
                and isinstance(value, ast.Attribute)
                and value.attr == "status"
                or keyword.arg == "error"
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "str"
            ):
                self.report(
                    "core-error-response",
                    node,
                    "a failure becomes a response in one place; call "
                    "core/request.py::error_response",
                )
                return

    def _check_confined_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            return
        if name not in _CONFINED:
            return
        home, scope = _CONFINED[name]
        if self.rel_path != home and self.rel_path.startswith(scope):
            self.report(
                "confined-call",
                node,
                f"{name}() is called only from {home}",
            )

    def _check_url_parser(self, node: ast.AST, dotted: tuple[str, ...]) -> None:
        if self.in_core and dotted[0] == "urllib" and dotted[-1] in _URL_PARSERS:
            self.report(
                "core-url-parser",
                node,
                f"stdlib URL parser {dotted[-1]} in core/; a request target "
                "is read by core/request.py::split_target",
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = _dotted(node)
        if dotted is not None:
            self._check_url_parser(node, self._resolve(dotted))
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if (
            self.rel_path.startswith(_DERIVED_TIMING)
            and isinstance(node.value, float)
            and 0.0 < abs(node.value) < 1e-3
        ):
            self.report(
                "det-timing-literal",
                node,
                f"timing literal {node.value!r} in a module whose clock is "
                "derived; put the constant in sgx/costs.py or "
                "kinetic/timing.py",
            )

    # -- exception swallowing ----------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        # BaseException is excluded: naming it is always deliberate
        # (generator adapters that surface errors out-of-band).
        broad = node.type is None or (
            isinstance(node.type, ast.Name) and node.type.id == "Exception"
        )
        label = (
            "bare except:"
            if node.type is None
            else "except Exception:"
        )
        reraises = any(
            isinstance(inner, ast.Raise)
            for stmt in node.body
            for inner in ast.walk(stmt)
        )
        if broad and not reraises:
            self.report(
                "core-no-swallow",
                node,
                f"{label} swallows every failure silently; narrow the "
                "exception type or re-raise after recording",
            )
        if broad and node.name and self._leaks_exc_into_response(node):
            self.report(
                "core-no-swallow",
                node,
                f"{label} interpolates the raw exception into an HTTP "
                "response: a broad catch reprs *anything* that went "
                "wrong — paths, offsets, secret-bearing state — "
                "straight to the client; narrow the type or send a "
                "fixed message",
            )
        elif broad and reraises and self.in_core:
            self.report(
                "core-no-swallow",
                node,
                f"broad {label} re-raise in core/: deliberate "
                "catch-alls must carry a written justification pragma "
                "so the next narrowing sweep skips them knowingly",
                severity="warning",
            )
        self.generic_visit(node)

    def _leaks_exc_into_response(self, node: ast.ExceptHandler) -> bool:
        """Does the handler body pass the bound exception (or any
        expression containing it) into a ``Response(...)``?"""
        bound = node.name
        for stmt in node.body:
            for inner in ast.walk(stmt):
                if not (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "Response"
                ):
                    continue
                values = list(inner.args) + [
                    kw.value for kw in inner.keywords
                ]
                for value in values:
                    if any(
                        isinstance(leaf, ast.Name) and leaf.id == bound
                        for leaf in ast.walk(value)
                    ):
                        return True
        return False

    # -- dispatch ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_wall_clock(node)
        self._check_sgx_io(node)
        self._check_drive_bypass(node)
        self._check_unverified_meta_read(node)
        self._check_decision_cache_write(node)
        self._check_labels(node)
        self._check_nonce_freshness(node)
        self._check_round_trip_hmac(node)
        self._check_error_response(node)
        self._check_confined_call(node)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in _TRACKED_MODULES:
                local = alias.asname or root
                self._aliases[local] = tuple(
                    alias.name.split(".") if alias.asname else (root,)
                )
        self._check_sgx_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".")
        if module[0] in _TRACKED_MODULES:
            for alias in node.names:
                local = alias.asname or alias.name
                self._aliases[local] = (*module, alias.name)
                self._check_url_parser(node, (*module, alias.name))
        self._check_sgx_import(node)
        self.generic_visit(node)


def lint_source(source: str, rel_path: str) -> list[Finding]:
    """Lint one module's source; ``rel_path`` is relative to the package
    root (e.g. ``core/engine.py``) and selects the per-layer rules."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rule="lint/syntax-error",
                message=f"cannot parse: {exc.msg}",
                file=rel_path,
                line=exc.lineno or 0,
            )
        ]
    visitor = _Visitor(rel_path)
    visitor.visit(tree)
    lines = source.splitlines()
    return [
        f
        for f in visitor.findings
        if f.rule not in suppressed_rules(lines, f.line)
    ]
