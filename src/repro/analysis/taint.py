"""Interprocedural secrecy-flow taint analysis over the package.

The property proved (or refuted, finding by finding): **decrypted
object plaintext and key material never reach an untrusted sink
unsealed**.  Sources, sinks, sanitizers, declassifiers, and exemptions
are data in :mod:`repro.analysis.taintspec`; this module is the
engine.

Design (deliberately modest, tuned for this package):

- **Taint values** carry two components: concrete *kinds*
  (``plaintext`` / ``key``) and symbolic *parameter indices* of the
  function under analysis.  Symbolic taint is how summaries compose:
  "whatever flows into parameter 2 reaches a wire frame".

- **Per-function summaries** record which kinds a function returns,
  which parameters flow to its return value, which parameters reach a
  sink (transitively), and which parameters are stored into object
  attributes.

- **A global fixpoint** iterates summary computation across the whole
  package until nothing changes: call edges are resolved name-based by
  :mod:`repro.analysis.callgraph`, attribute stores feed a
  package-global attribute taint map (field names are tracked, object
  identities are not), and unresolved calls conservatively propagate
  the union of their argument and receiver taint.

- **A reporting pass** re-walks every function with the final
  summaries and emits one finding per sink crossing, at the crossing
  call site — so a transitive flow (``write_policy`` → raw replica
  write) is reported where the tainted value enters the sink-reaching
  call, which is exactly where a ``# pesos: allow[taint/...]`` pragma
  belongs if the flow is justified.

Intraprocedural transfer is flow-sensitive for straight-line code
(assignments strongly update), and the function body is re-walked a
few times so loop-carried taint stabilizes.  Comparisons yield clean
values: implicit flows are out of scope, as is object identity —
coarse, but the mutation self-test pins down that the precision is
sufficient for the flows this codebase must never contain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    build_callgraph,
)
from repro.analysis.findings import Finding, suppressed_rules
from repro.analysis.taintspec import (
    BOTH,
    DEFAULT_REGISTRY,
    SINK_EXCEPTION,
    TaintRegistry,
)

#: Upper bound on global fixpoint passes (converges in 3-5 in practice).
MAX_GLOBAL_PASSES = 12

#: Re-walks of one function body per pass (loop-carried taint).
BODY_PASSES = 3


@dataclass(frozen=True)
class Taint:
    """Concrete kinds plus symbolic parameter indices."""

    kinds: frozenset = frozenset()
    params: frozenset = frozenset()

    def __bool__(self) -> bool:
        return bool(self.kinds or self.params)

    def union(self, other: "Taint") -> "Taint":
        if not other:
            return self
        if not self:
            return other
        return Taint(self.kinds | other.kinds, self.params | other.params)


EMPTY = Taint()


def _union(taints: list) -> Taint:
    result = EMPTY
    for taint in taints:
        result = result.union(taint)
    return result


#: One sink a parameter reaches: (sink_id, rejected kinds, message).
SinkEntry = tuple


@dataclass
class Summary:
    """What callers need to know about one function."""

    returns_kinds: set = field(default_factory=set)
    param_to_return: set = field(default_factory=set)
    #: param index -> set of :data:`SinkEntry`.
    param_sinks: dict = field(default_factory=dict)
    #: param index -> attribute names it is stored into.
    param_to_attr: dict = field(default_factory=dict)

    def snapshot(self) -> tuple:
        return (
            frozenset(self.returns_kinds),
            frozenset(self.param_to_return),
            frozenset(
                (k, frozenset(v)) for k, v in self.param_sinks.items()
            ),
            frozenset(
                (k, frozenset(v)) for k, v in self.param_to_attr.items()
            ),
        )


def receiver_names(node: ast.AST) -> list:
    """Identifiers in a receiver chain (``self._aead`` → ``["_aead",
    "self"]``); subscripts and calls are looked through."""
    names: list = []
    while True:
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        elif isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            names.append(node.id)
            return names
        else:
            return names


def _root_name(node: ast.AST) -> str | None:
    names = receiver_names(node)
    return names[-1] if names else None


class _Analyzer:
    """Walks one function: summary updates and (optionally) findings."""

    def __init__(
        self,
        graph: CallGraph,
        registry: TaintRegistry,
        summaries: dict,
        attr_taint: dict,
        module: ModuleInfo,
        info: FunctionInfo,
        report: bool = False,
    ) -> None:
        self.graph = graph
        self.registry = registry
        self.summaries = summaries
        self.attr_taint = attr_taint
        self.module = module
        self.info = info
        self.report = report
        self.findings: list = []
        self.summary: Summary = summaries[info.qualname]
        self.env: dict = {}
        self._name_source_kinds = {
            s.name: s.kind for s in registry.name_sources
        }
        self._param_source_kinds: dict = {}
        for source in registry.param_sources:
            if source.qualname == info.qualname:
                self._param_source_kinds[source.param] = source.kind
        self._declassified = registry.declassified()
        self._init_env()

    def _init_env(self) -> None:
        for index, name in enumerate(self.info.params):
            kinds = set()
            if name in self._param_source_kinds:
                kinds.add(self._param_source_kinds[name])
            if name in self._name_source_kinds:
                kinds.add(self._name_source_kinds[name])
            self.env[name] = Taint(frozenset(kinds), frozenset({index}))

    # -- driving -----------------------------------------------------------

    def run(self) -> None:
        for _ in range(BODY_PASSES):
            before = dict(self.env)
            for stmt in self.info.node.body:
                self.exec_stmt(stmt)
            if self.env == before:
                break

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _join_env(left: dict, right: dict) -> dict:
        """Pointwise union of two environments (branch join)."""
        joined = dict(left)
        for name, taint in right.items():
            joined[name] = joined.get(name, EMPTY).union(taint)
        return joined

    def _name_source(self, name: str) -> Taint:
        kind = self._name_source_kinds.get(name)
        if kind is None:
            return EMPTY
        return Taint(kinds=frozenset({kind}))

    def _record_param_sink(self, taint: Taint, entries: set) -> None:
        """Symbolic taint reaching a sink → entries on *our* summary."""
        for param in taint.params:
            bucket = self.summary.param_sinks.setdefault(param, set())
            bucket.update(entries)

    def _emit(self, sink_id: str, kinds: set, node: ast.AST,
              message: str, origin: str) -> None:
        # Exemptions match the file the *sink itself* lives in (e.g. a
        # raise inside ``policy/``), not the crossing call site — the
        # waiver travels with the sink, wherever it is reached from.
        live = {
            kind
            for kind in kinds
            if not self.registry.exempted(sink_id, origin, kind)
        }
        if not live:
            return
        rule = f"taint/{sink_id}"
        line = getattr(node, "lineno", 0)
        self.findings.append(
            Finding(
                rule=rule,
                message=f"{'/'.join(sorted(live))} taint: {message}",
                file=self.module.rel_path,
                line=line,
                severity="error",
                context={"kinds": sorted(live), "sink": sink_id},
            )
        )

    def _check_sink(self, sink_id: str, sink_kinds: frozenset,
                    taint: Taint, node: ast.AST, message: str,
                    origin: str | None = None,
                    via: str | None = None) -> None:
        """Concrete taint fires a finding; symbolic extends the summary."""
        if origin is None:
            origin = self.module.rel_path
        # A justification pragma at the crossing site waives the whole
        # flow: no finding here, and no symbolic entry either — callers
        # feeding this function must not re-surface a waived sink.
        allowed = suppressed_rules(
            self.module.source_lines, getattr(node, "lineno", 0)
        )
        if f"taint/{sink_id}" in allowed or "taint" in allowed:
            return
        hit = taint.kinds & sink_kinds
        if hit and self.report:
            shown = message if via is None else f"{message} (via {via}())"
            self._emit(sink_id, set(hit), node, shown, origin)
        if taint.params:
            self._record_param_sink(
                taint, {(sink_id, sink_kinds, message, origin)}
            )

    # -- expressions -------------------------------------------------------

    def tx(self, node: ast.AST | None) -> Taint:
        if node is None or isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY).union(
                self._name_source(node.id)
            )
        if isinstance(node, ast.Attribute):
            # Attribute taint is *scoped*: ``self.x`` consults the
            # enclosing class's bucket (cross-method state), any
            # ``obj.x`` consults the flow-sensitive local composite
            # key (``obj.x`` assigned earlier in this function), and a
            # field whose name is itself a key-material name source
            # (``private_key``, ...) is tainted wherever it is read.
            # Foreign-object stores are deliberately *not* propagated
            # package-wide: an anonymous ``*.result`` bucket would
            # alias the enclave syscall shuttle's decrypted results
            # onto every unrelated ``.result`` load in the package.
            kinds: set = set()
            taint = EMPTY
            if isinstance(node.value, ast.Name):
                if (
                    node.value.id in ("self", "cls")
                    and self.info.class_name
                ):
                    kinds.update(
                        self.attr_taint.get(
                            f"{self.info.class_name}.{node.attr}", ()
                        )
                    )
                taint = self.env.get(
                    f"{node.value.id}.{node.attr}", EMPTY
                )
            source = self._name_source_kinds.get(node.attr)
            if source is not None:
                kinds.add(source)
            return taint.union(Taint(kinds=frozenset(kinds)))
        if isinstance(node, ast.Call):
            return self.tx_call(node)
        if isinstance(node, ast.Subscript):
            return self.tx(node.value)
        if isinstance(node, (ast.Starred, ast.Await, ast.NamedExpr)):
            if isinstance(node, ast.NamedExpr):
                taint = self.tx(node.value)
                self.bind(node.target, taint)
                return taint
            return self.tx(node.value)
        if isinstance(node, ast.JoinedStr):
            return _union([self.tx(value) for value in node.values])
        if isinstance(node, ast.FormattedValue):
            return self.tx(node.value)
        if isinstance(node, ast.BinOp):
            return self.tx(node.left).union(self.tx(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.tx(node.operand)
        if isinstance(node, ast.BoolOp):
            return _union([self.tx(value) for value in node.values])
        if isinstance(node, ast.Compare):
            # Comparisons yield decisions, not content: implicit flows
            # are out of scope by design.
            self.tx(node.left)
            for comparator in node.comparators:
                self.tx(comparator)
            return EMPTY
        if isinstance(node, ast.IfExp):
            self.tx(node.test)
            return self.tx(node.body).union(self.tx(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return _union([self.tx(elt) for elt in node.elts])
        if isinstance(node, ast.Dict):
            parts = [self.tx(key) for key in node.keys if key is not None]
            parts.extend(self.tx(value) for value in node.values)
            return _union(parts)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                self.bind(gen.target, self.tx(gen.iter))
            return self.tx(node.elt)
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                self.bind(gen.target, self.tx(gen.iter))
            return self.tx(node.key).union(self.tx(node.value))
        if isinstance(node, ast.Lambda):
            return self._tx_lambda(node)
        if isinstance(node, (ast.Slice,)):
            return EMPTY
        return EMPTY

    def _tx_lambda(self, node: ast.Lambda) -> Taint:
        """Walk a lambda's body where it is defined.

        It runs later but reads this scope, so a sink crossed in a
        deferred call (``lambda: self._write_replicas(key, ops)``) is
        crossed here.  Its own parameters shadow ours, each as tainted
        as any default.
        """
        spec = node.args
        seeded = _union([
            self.tx(default)
            for default in spec.defaults + spec.kw_defaults
            if default is not None
        ])
        names = [arg.arg for arg in ast.walk(spec) if isinstance(arg, ast.arg)]
        outer = self.env
        self.env = {**outer, **dict.fromkeys(names, seeded)}
        result = self.tx(node.body)
        self.env = outer
        return result

    # -- calls -------------------------------------------------------------

    def _call_name(self, call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return ""

    def tx_call(self, call: ast.Call) -> Taint:
        name = self._call_name(call)
        arg_taints = [self.tx(arg) for arg in call.args]
        kwarg_taints = {
            kw.arg: self.tx(kw.value) for kw in call.keywords
        }
        receiver = EMPTY
        chain: list = []
        if isinstance(call.func, ast.Attribute):
            receiver = self.tx(call.func.value)
            chain = receiver_names(call.func.value)
        elif isinstance(call.func, ast.Name):
            chain = []
        else:
            receiver = self.tx(call.func)

        all_args = _union(arg_taints + list(kwarg_taints.values()))

        # Registry sinks that match on call shape.
        self._check_call_sinks(call, name, chain, arg_taints, kwarg_taints)

        # Sanitizers and size-like builtins produce clean values.
        if name in self.registry.sanitizers:
            return EMPTY
        if isinstance(call.func, ast.Name) and (
            name in self.registry.clean_builtins
        ):
            return EMPTY

        source_kinds: set = set()
        for source in self.registry.call_sources:
            if source.method != name:
                continue
            if source.receiver_hints and not (
                source.receiver_hints.intersection(chain)
            ):
                continue
            source_kinds.add(source.kind)
        if source_kinds:
            # A matched source defines the output taint
            # authoritatively: ``aead.open(ciphertext)`` yields
            # *plaintext* — neither the ciphertext argument nor the
            # key-holding AEAD receiver bleeds into the result.
            return Taint(kinds=frozenset(source_kinds))

        result = EMPTY
        targets = self.graph.resolve_call(call, self.info.class_name)
        if not targets:
            # Unresolved: conservatively propagate everything in.
            return result.union(all_args).union(receiver)

        for target in targets:
            summary = self.summaries.get(target.qualname)
            if summary is None:
                continue
            declassified = target.qualname in self._declassified
            if not declassified:
                result = result.union(
                    Taint(kinds=frozenset(summary.returns_kinds))
                )
            pairs = self._map_args(call, target, arg_taints, kwarg_taints)
            if isinstance(call.func, ast.Attribute) and target.is_method:
                pairs.append((0, receiver, call.func))
            for index, taint, node in pairs:
                if not taint:
                    continue
                if index in summary.param_to_return and not declassified:
                    result = result.union(taint)
                entries = summary.param_sinks.get(index)
                if entries:
                    for sink_id, sink_kinds, message, origin in sorted(
                        entries, key=lambda e: (e[0], e[2])
                    ):
                        # Propagated entries keep the *base* message
                        # (the summary must reach a fixpoint); the
                        # immediate callee is named only in the
                        # reported finding.  The finding anchors to
                        # the crossing *call* so a justification
                        # pragma sits on (or above) the call line.
                        self._check_sink(
                            sink_id, sink_kinds, taint, call, message,
                            origin=origin,
                            via=target.qualname,
                        )
                attrs = summary.param_to_attr.get(index)
                if attrs:
                    for attr in attrs:
                        self._store_attr(attr, taint)
        return result

    def _map_args(
        self,
        call: ast.Call,
        target: FunctionInfo,
        arg_taints: list,
        kwarg_taints: dict,
    ) -> list:
        """``(param_index, taint, node)`` for each argument."""
        offset = 0
        if target.params and target.params[0] in ("self", "cls"):
            offset = 1
        pairs: list = []
        for position, taint in enumerate(arg_taints):
            index = position + offset
            if index < len(target.params):
                pairs.append((index, taint, call.args[position]))
        for kw in call.keywords:
            if kw.arg is None:
                continue
            index = target.param_index(kw.arg)
            if index is not None:
                pairs.append((index, kwarg_taints[kw.arg], kw.value))
        return pairs

    def _check_call_sinks(
        self,
        call: ast.Call,
        name: str,
        chain: list,
        arg_taints: list,
        kwarg_taints: dict,
    ) -> None:
        for sink in self.registry.call_sinks:
            if sink.method != name:
                continue
            if sink.receiver_hints and not (
                sink.receiver_hints.intersection(chain)
            ):
                continue
            for position, taint in enumerate(arg_taints):
                node = call.args[position]
                self._check_sink(
                    sink.sink_id, sink.kinds,
                    taint.union(self._reference_returns(node)),
                    node, sink.message,
                )
            for kw in call.keywords:
                key = kw.arg
                taint = (
                    kwarg_taints[key] if key is not None else self.tx(kw.value)
                )
                self._check_sink(
                    sink.sink_id, sink.kinds,
                    taint.union(self._reference_returns(kw.value)),
                    kw.value, sink.message,
                )
        for sink in self.registry.kwarg_sinks:
            if sink.callee != name:
                continue
            for kw in call.keywords:
                if kw.arg != sink.kwarg:
                    continue
                self._check_sink(
                    sink.sink_id, sink.kinds, kwarg_taints[kw.arg],
                    kw.value, sink.message,
                )

    def _reference_returns(self, node: ast.AST) -> Taint:
        """Kinds a *method reference* handed to a sink will return.

        A sink that takes a callable and invokes it later (the reader
        of a scrape-time metric family) is crossed by whatever that
        callable returns.  A lambda's body is walked where it is
        written; ``self.method`` / ``Class.method`` resolve here, by
        the precise rules only — a name-based guess would tie every
        attribute argument to unrelated methods.
        """
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
        ):
            return EMPTY
        owner = node.value.id
        if owner in ("self", "cls"):
            owner = self.info.class_name
        target = self.graph.method_on(owner, node.attr)
        if target is None:
            return EMPTY
        return Taint(
            kinds=frozenset(self.summaries[target.qualname].returns_kinds)
        )

    # -- stores ------------------------------------------------------------

    def _attr_key(self, target: ast.Attribute) -> str:
        if (
            isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
            and self.info.class_name
        ):
            return f"{self.info.class_name}.{target.attr}"
        return f"*.{target.attr}"

    def _store_attr(self, scoped: str, taint: Taint) -> None:
        """Record a store into attribute ``scoped`` (a pre-scoped key:
        ``Class.attr`` or ``*.attr``)."""
        if taint.kinds:
            bucket = self.attr_taint.setdefault(scoped, set())
            bucket.update(taint.kinds)
        for param in taint.params:
            attrs = self.summary.param_to_attr.setdefault(param, set())
            attrs.add(scoped)

    def bind(self, target: ast.AST, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind(elt, taint)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, taint)
        elif isinstance(target, ast.Attribute):
            self._store_attr(self._attr_key(target), taint)
            if isinstance(target.value, ast.Name):
                # Flow-sensitive composite key: a later load of
                # ``obj.attr`` *in this function* sees this store.
                self.env[f"{target.value.id}.{target.attr}"] = taint
        elif isinstance(target, ast.Subscript):
            # Storing into a container taints the whole container.
            root = _root_name(target.value)
            if root is not None:
                self.env[root] = self.env.get(root, EMPTY).union(taint)

    # -- statements --------------------------------------------------------

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.tx(stmt.value)
            for target in stmt.targets:
                self.bind(target, taint)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target, self.tx(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taint = self.tx(stmt.value).union(self.tx(stmt.target))
            self.bind(stmt.target, taint)
        elif isinstance(stmt, ast.Return):
            taint = self.tx(stmt.value)
            self.summary.returns_kinds.update(taint.kinds)
            self.summary.param_to_return.update(taint.params)
        elif isinstance(stmt, ast.Raise):
            self._exec_raise(stmt)
        elif isinstance(stmt, ast.Expr):
            self.tx(stmt.value)
        elif isinstance(stmt, ast.If):
            # Branch *join*: either branch may execute, so the
            # post-state is the pointwise union of both — a strong
            # update in ``else`` must not erase taint assigned in the
            # ``if`` body (``value = self._open(...)`` in one branch,
            # ``value = blob`` in the other).
            self.tx(stmt.test)
            base = dict(self.env)
            for inner in stmt.body:
                self.exec_stmt(inner)
            after_body = self.env
            self.env = base
            for inner in stmt.orelse:
                self.exec_stmt(inner)
            self.env = self._join_env(after_body, self.env)
        elif isinstance(stmt, ast.While):
            self.tx(stmt.test)
            base = dict(self.env)
            for inner in stmt.body:
                self.exec_stmt(inner)
            for inner in stmt.orelse:
                self.exec_stmt(inner)
            # Zero iterations are possible: join with the pre-state.
            self.env = self._join_env(base, self.env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            base = dict(self.env)
            self.bind(stmt.target, self.tx(stmt.iter))
            for inner in stmt.body:
                self.exec_stmt(inner)
            for inner in stmt.orelse:
                self.exec_stmt(inner)
            self.env = self._join_env(base, self.env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.tx(item.context_expr)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, taint)
            for inner in stmt.body:
                self.exec_stmt(inner)
        elif isinstance(stmt, ast.Try):
            for inner in stmt.body:
                self.exec_stmt(inner)
            # Handlers run (or not) from some prefix of the body; join
            # each handler's post-state instead of strongly updating.
            after_body = dict(self.env)
            merged = dict(self.env)
            for handler in stmt.handlers:
                self.env = dict(after_body)
                for inner in handler.body:
                    self.exec_stmt(inner)
                merged = self._join_env(merged, self.env)
            self.env = merged
            for inner in stmt.orelse:
                self.exec_stmt(inner)
            for inner in stmt.finalbody:
                self.exec_stmt(inner)
        elif isinstance(stmt, ast.Assert):
            self.tx(stmt.test)
            if stmt.msg is not None:
                self._check_sink(
                    SINK_EXCEPTION, BOTH, self.tx(stmt.msg), stmt.msg,
                    "secret value in an assertion message",
                )
        elif isinstance(stmt, ast.Delete):
            pass
        # Nested function/class definitions are not descended into:
        # their bodies run in a different frame the summary machinery
        # does not model.

    def _exec_raise(self, stmt: ast.Raise) -> None:
        exc = stmt.exc
        if exc is None:
            return
        if isinstance(exc, ast.Call):
            taint = _union(
                [self.tx(arg) for arg in exc.args]
                + [self.tx(kw.value) for kw in exc.keywords]
            )
            node: ast.AST = exc
        else:
            taint = self.tx(exc)
            node = exc
        self._check_sink(
            SINK_EXCEPTION, BOTH, taint, node,
            "secret value embedded in an exception message",
        )


# ---------------------------------------------------------------------------
# Package driver
# ---------------------------------------------------------------------------

def _seed_summaries(
    graph: CallGraph, registry: TaintRegistry
) -> dict:
    summaries: dict = {}
    for _module, info in graph.all_functions():
        summaries[info.qualname] = Summary()
    for sink in registry.param_sinks:
        info = graph.by_qualname.get(sink.qualname)
        if info is None:
            continue
        summary = summaries[info.qualname]
        if sink.param == "*":
            indices = [
                index
                for index, name in enumerate(info.params)
                if name not in ("self", "cls")
            ]
        else:
            index = info.param_index(sink.param)
            indices = [index] if index is not None else []
        for index in indices:
            bucket = summary.param_sinks.setdefault(index, set())
            bucket.add(
                (sink.sink_id, sink.kinds, sink.message, info.rel_path)
            )
    return summaries


def analyze_package(
    root: Path, registry: TaintRegistry = DEFAULT_REGISTRY
) -> list:
    """Taint-analyze every module under ``root`` (the ``repro``
    package); returns pragma-filtered findings."""
    graph = build_callgraph(root, excluded=registry.excluded_paths)
    summaries = _seed_summaries(graph, registry)
    attr_taint: dict = {}

    for _ in range(MAX_GLOBAL_PASSES):
        before = {
            qualname: summary.snapshot()
            for qualname, summary in summaries.items()
        }
        attrs_before = {
            attr: frozenset(kinds) for attr, kinds in attr_taint.items()
        }
        for module, info in graph.all_functions():
            _Analyzer(
                graph, registry, summaries, attr_taint, module, info
            ).run()
        after = {
            qualname: summary.snapshot()
            for qualname, summary in summaries.items()
        }
        attrs_after = {
            attr: frozenset(kinds) for attr, kinds in attr_taint.items()
        }
        if before == after and attrs_before == attrs_after:
            break

    findings: list = []
    seen: set = set()
    for module, info in graph.all_functions():
        analyzer = _Analyzer(
            graph, registry, summaries, attr_taint, module, info,
            report=True,
        )
        analyzer.run()
        for finding in analyzer.findings:
            allowed = suppressed_rules(
                module.source_lines, finding.line
            )
            if finding.rule in allowed or "taint" in allowed:
                continue
            key = (finding.rule, finding.file, finding.line)
            if key in seen:
                continue
            seen.add(key)
            findings.append(finding)
    return findings


__all__ = [
    "EMPTY",
    "MAX_GLOBAL_PASSES",
    "Summary",
    "Taint",
    "analyze_package",
    "receiver_names",
]
