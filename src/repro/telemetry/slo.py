"""SLO engine: error budgets and burn-rate alerts on virtual time.

An SLO (:class:`SloSpec`) declares, for one *request class*, either an
availability objective ("99% of requests succeed") or a latency
objective ("99% of requests finish under 25 virtual milliseconds"),
measured over a sliding window of **virtual time** — the same clock the
benchmarks, the admission layer, and the fault schedules run on, so two
same-seed runs burn their budgets identically.

Alerting follows the multi-window burn-rate pattern from the Google SRE
workbook: the *burn rate* is how fast the error budget is being spent
relative to the sustainable rate (a burn rate of 1.0 spends exactly the
budget over the objective window).  An objective *burns* only when both
a fast and a slow window exceed their thresholds — the fast window makes
the alert responsive, the slow window keeps a short blip from paging —
and is *exhausted* once the bad fraction over the full window has used
the entire budget.  The resulting state machine per objective is::

    healthy  ->  burning  ->  exhausted
       ^___________/_____________/      (budget refills as the window slides)

Events that violate a latency objective leave an *exemplar*: the trace
id of the offending request, so ``GET /_slo`` links a burning objective
straight to span trees an operator can pull from ``GET /_traces``.

The engine is plain data + arithmetic: no locks, no wall clock, no
background thread.  Recording is O(objectives per class) appends plus
amortized window pruning; evaluation happens at scrape time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Alert states, ordered by severity (index = numeric metric value).
STATE_HEALTHY = "healthy"
STATE_BURNING = "burning"
STATE_EXHAUSTED = "exhausted"
STATES = (STATE_HEALTHY, STATE_BURNING, STATE_EXHAUSTED)

#: Priority class per request method, mirroring the admission layer's
#: ordering (writes outrank reads outrank status polls).  Kept local so
#: ``repro.telemetry`` stays import-cycle-free of ``repro.core``.
_METHOD_CLASSES: dict[str, str] = {
    "get": "get/p1",
    "attest": "get/p1",
    "scan": "scan/p1",
    "put": "put/p2",
    "delete": "put/p2",
    "rmw": "put/p2",
    "put_policy": "policy/p2",
    "get_policy": "policy/p1",
    "create_tx": "txn/p1",
    "add_read": "txn/p2",
    "add_write": "txn/p2",
    "commit_tx": "txn/p2",
    "abort_tx": "txn/p2",
    "tx_results": "txn/p1",
    "status": "status/p0",
}


def classify(method: str) -> str:
    """Map a request method to its SLO request class."""
    return _METHOD_CLASSES.get(method, "other/p1")


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over one request class.

    ``objective`` is ``"availability"`` (an event is good when the
    request succeeded) or ``"latency"`` (good when it succeeded *and*
    finished within ``threshold`` virtual seconds).  ``target`` is the
    required good fraction over ``window`` virtual seconds; the error
    budget is the complementary ``1 - target`` fraction.
    """

    name: str
    request_class: str
    objective: str = "availability"
    target: float = 0.99
    #: Latency bound in virtual seconds (latency objectives only).
    threshold: float | None = None
    #: Sliding objective window, in virtual seconds.
    window: float = 60.0
    #: Burn-rate alert window pair (virtual seconds); both must exceed
    #: their threshold simultaneously for the objective to "burn".
    fast_window: float | None = None
    slow_window: float | None = None
    fast_burn: float = 14.4
    slow_burn: float = 6.0
    #: Exemplar ring size (trace ids of breaching events).
    max_exemplars: int = 8

    def __post_init__(self) -> None:
        if self.objective not in ("availability", "latency"):
            raise ConfigurationError(
                f"slo {self.name!r}: unknown objective {self.objective!r}"
            )
        if self.objective == "latency" and self.threshold is None:
            raise ConfigurationError(
                f"slo {self.name!r}: latency objective needs a threshold"
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"slo {self.name!r}: target must be in (0, 1)"
            )
        if any(
            window is not None and window <= 0.0
            for window in (self.window, self.fast_window, self.slow_window)
        ):
            raise ConfigurationError(
                f"slo {self.name!r}: window must be positive"
            )
        if self.threshold is not None and self.threshold < 0.0:
            raise ConfigurationError(
                f"slo {self.name!r}: threshold must not be negative"
            )

    @property
    def fast(self) -> float:
        """Fast alert window (default: 1/12 of the objective window)."""
        return self.window / 12.0 if self.fast_window is None else self.fast_window

    @property
    def slow(self) -> float:
        """Slow alert window (default: half the objective window)."""
        return self.window / 2.0 if self.slow_window is None else self.slow_window


def default_slos(
    window: float = 60.0, latency_threshold: float = 0.025
) -> list[SloSpec]:
    """The stock objective set: GET/PUT/policy/txn classes, both kinds."""
    specs: list[SloSpec] = []
    for request_class in ("get/p1", "put/p2", "policy/p2", "txn/p2"):
        short = request_class.replace("/", "-")
        specs.append(
            SloSpec(
                name=f"{short}-availability",
                request_class=request_class,
                objective="availability",
                target=0.99,
                window=window,
            )
        )
        specs.append(
            SloSpec(
                name=f"{short}-latency",
                request_class=request_class,
                objective="latency",
                target=0.99,
                threshold=latency_threshold,
                window=window,
            )
        )
    return specs


class ObjectiveState:
    """Sliding-window event record + budget ledger for one objective."""

    __slots__ = (
        "spec", "events", "exemplars", "good_total", "bad_total", "last_vnow",
    )

    def __init__(self, spec: SloSpec):
        self.spec = spec
        #: (vnow, bad) pairs, pruned to the longest window of interest.
        self.events: deque[tuple[float, bool]] = deque()
        #: (trace_id, vnow, latency) of breaching events, newest last.
        self.exemplars: deque[tuple] = deque(maxlen=spec.max_exemplars)
        self.good_total = 0
        self.bad_total = 0
        self.last_vnow = 0.0

    # -- recording ---------------------------------------------------------

    def record(
        self, ok: bool, latency: float, vnow: float, trace_id=None
    ) -> None:
        spec = self.spec
        if spec.objective == "latency":
            bad = not ok or latency > spec.threshold
        else:
            bad = not ok
        self.events.append((vnow, bad))
        self.last_vnow = max(self.last_vnow, vnow)
        if bad:
            self.bad_total += 1
            if trace_id is not None:
                self.exemplars.append((trace_id, vnow, latency))
        else:
            self.good_total += 1
        self._prune(vnow)

    def _prune(self, vnow: float) -> None:
        horizon = vnow - max(self.spec.window, self.spec.slow)
        events = self.events
        while events and events[0][0] < horizon:
            events.popleft()

    # -- evaluation --------------------------------------------------------

    def _window_counts(self, vnow: float, window: float) -> tuple[int, int]:
        """(total, bad) over the trailing ``window`` virtual seconds."""
        start = vnow - window
        total = bad = 0
        for when, was_bad in reversed(self.events):
            if when < start:
                break
            total += 1
            bad += was_bad
        return total, bad

    def burn_rate(self, vnow: float, window: float) -> float:
        """Budget spend rate over ``window``; 1.0 = sustainable."""
        total, bad = self._window_counts(vnow, window)
        if not total:
            return 0.0
        return (bad / total) / (1.0 - self.spec.target)

    def budget_remaining(self, vnow: float) -> float:
        """Unspent error-budget fraction over the objective window.

        1.0 with an untouched budget, 0.0 (clamped) once the bad
        fraction has consumed ``1 - target`` of the window's events.
        """
        total, bad = self._window_counts(vnow, self.spec.window)
        if not total:
            return 1.0
        budget = (1.0 - self.spec.target) * total
        return max(0.0, 1.0 - bad / budget)

    def state(self, vnow: float) -> str:
        spec = self.spec
        if self.budget_remaining(vnow) <= 0.0:
            return STATE_EXHAUSTED
        fast = self.burn_rate(vnow, spec.fast)
        slow = self.burn_rate(vnow, spec.slow)
        if fast >= spec.fast_burn and slow >= spec.slow_burn:
            return STATE_BURNING
        return STATE_HEALTHY

    def snapshot(self, vnow: float | None = None) -> dict:
        """JSON-ready view of this objective at ``vnow``."""
        if vnow is None:
            vnow = self.last_vnow
        spec = self.spec
        total, bad = self._window_counts(vnow, spec.window)
        return {
            "slo": spec.name,
            "request_class": spec.request_class,
            "objective": spec.objective,
            "target": spec.target,
            "threshold_s": spec.threshold,
            "window_s": spec.window,
            "events_in_window": total,
            "bad_in_window": bad,
            "good_total": self.good_total,
            "bad_total": self.bad_total,
            "budget_remaining": round(self.budget_remaining(vnow), 6),
            "burn_rate_fast": round(self.burn_rate(vnow, spec.fast), 3),
            "burn_rate_slow": round(self.burn_rate(vnow, spec.slow), 3),
            "state": self.state(vnow),
            "exemplar_trace_ids": [trace for trace, _v, _l in self.exemplars],
            "exemplars": [
                {
                    "trace_id": trace,
                    "vnow": when,
                    "latency_s": latency,
                }
                for trace, when, latency in self.exemplars
            ],
        }


class SloEngine:
    """Evaluates a set of :class:`SloSpec` against the request stream.

    One engine guards one controller (one registry).  Attach it to a
    :class:`~repro.telemetry.Telemetry` with
    :meth:`Telemetry.attach_slo` so the request path records through
    ``telemetry.record_request(...)`` and the budget/burn series land
    on ``/_metrics`` as scrape-time families (:meth:`register`).
    """

    def __init__(self, specs: list[SloSpec] | None = None):
        self._by_class: dict[str, list[ObjectiveState]] = {}
        self.objectives: list[ObjectiveState] = []
        self.recorded = 0
        for spec in specs if specs is not None else default_slos():
            self.add(spec)

    def add(self, spec: SloSpec) -> ObjectiveState:
        state = ObjectiveState(spec)
        self.objectives.append(state)
        self._by_class.setdefault(spec.request_class, []).append(state)
        return state

    def get(self, name: str) -> ObjectiveState | None:
        for state in self.objectives:
            if state.spec.name == name:
                return state
        return None

    # -- recording ---------------------------------------------------------

    def record(
        self,
        method: str,
        ok: bool,
        latency: float,
        vnow: float,
        trace_id=None,
    ) -> None:
        """Fold one finished request into every objective of its class."""
        states = self._by_class.get(classify(method))
        if not states:
            return
        self.recorded += 1
        for state in states:
            state.record(ok, latency, vnow, trace_id)

    # -- evaluation --------------------------------------------------------

    def last_vnow(self) -> float:
        return max(
            (state.last_vnow for state in self.objectives), default=0.0
        )

    def worst_state(self, vnow: float | None = None) -> str:
        if vnow is None:
            vnow = self.last_vnow()
        worst = 0
        for state in self.objectives:
            if state.events:
                worst = max(worst, STATES.index(state.state(vnow)))
        return STATES[worst]

    def health_status(self, vnow: float | None = None) -> str:
        """Fold the alert states into the ``/_health`` vocabulary."""
        return {
            STATE_HEALTHY: "ok",
            STATE_BURNING: "degraded",
            STATE_EXHAUSTED: "critical",
        }[self.worst_state(vnow)]

    def snapshot(self, vnow: float | None = None) -> dict:
        """The ``GET /_slo`` payload."""
        if vnow is None:
            vnow = self.last_vnow()
        objectives = [state.snapshot(vnow) for state in self.objectives]
        return {
            "vnow": vnow,
            "recorded": self.recorded,
            "worst_state": self.worst_state(vnow),
            "objectives": objectives,
        }

    # -- exposition --------------------------------------------------------

    def register(self, registry) -> None:
        """Publish budget/burn/state/event series per objective."""
        registry.derived(
            "pesos_slo_error_budget_remaining",
            "gauge",
            "Unspent error-budget fraction over the objective window.",
            lambda: [
                (state.spec.name, state.budget_remaining(vnow))
                for vnow in [self.last_vnow()]
                for state in self.objectives
            ],
            ("slo",),
        )
        registry.derived(
            "pesos_slo_burn_rate",
            "gauge",
            "Error-budget spend rate (1.0 = sustainable), by window.",
            lambda: [
                (
                    (state.spec.name, window),
                    state.burn_rate(vnow, getattr(state.spec, window)),
                )
                for vnow in [self.last_vnow()]
                for window in ("fast", "slow")
                for state in self.objectives
            ],
            ("slo", "window"),
        )
        registry.derived(
            "pesos_slo_state",
            "gauge",
            "Alert state per objective: 0 healthy, 1 burning, "
            "2 exhausted.",
            lambda: [
                (state.spec.name, float(STATES.index(state.state(vnow))))
                for vnow in [self.last_vnow()]
                for state in self.objectives
            ],
            ("slo",),
        )
        registry.derived(
            "pesos_slo_events_total",
            "counter",
            "Requests folded into each objective, by outcome.",
            lambda: [
                ((state.spec.name, outcome), float(total))
                for state in self.objectives
                for outcome, total in (
                    ("good", state.good_total),
                    ("bad", state.bad_total),
                )
            ],
            ("slo", "outcome"),
        )
