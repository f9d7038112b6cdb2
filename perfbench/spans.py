"""Span run: per-layer call counts and self time, recorded from outside.

Nothing in ``src/repro`` knows about this module.  :class:`SpanRun`
replaces the public entry points of each ``repro.<layer>`` package with
timing wrappers for the duration of a ``with`` block and puts the
originals back on exit, so plain (timed) runs in the same process see the
unmodified code.

Self time: every wrapper opens a span; a span's self time is its duration
minus the time covered by the spans opened inside it.  A wrapper also
costs its caller time the span does not measure (the call into the
wrapper, the bookkeeping); that cost is calibrated once per span run and
charged to ``instrumentation`` instead of the caller's layer, together
with the time the wrappers spend reading counters.  Layer self times plus
``instrumentation`` therefore add up to the time covered by outermost
spans, and ``unattributed`` is the rest of the span run's wall (the
benchmark's own code between calls).

The kernel fires most model code through private callbacks (``_finish``,
``_on_state_timeout`` …), so the callable handed to
``Simulator.schedule``/``at`` (``call_soon`` goes through ``at``), to
``Timer(...)``, to ``attach_observer`` and to a MAC's upper-layer hooks is
itself wrapped, and each fired callback is charged to the layer of the
module that defines it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in dependency order, then the service layers (see DESIGN.md §10).
LAYERS = (
    "sim", "queues", "phy", "core", "mac", "net", "topo", "experiments",
    "trace", "verify", "obs", "fault", "runner", "service",
)

#: Module prefix → layer; the longest matching prefix wins.
_PREFIXES = (
    ("repro.sim.queues", "queues"),
    ("repro.sim.trace", "trace"),
    ("repro.sim", "sim"),
    ("repro.phy", "phy"),
    ("repro.core", "core"),
    ("repro.mac", "mac"),
    ("repro.net", "net"),
    ("repro.topo", "topo"),
    ("repro.experiments", "experiments"),
    ("repro.verify", "verify"),
    ("repro.obs", "obs"),
    ("repro.fault", "fault"),
    ("repro.runner", "runner"),
    ("repro.service", "service"),
)


def module_layer(module: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None outside them."""
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def callable_layer(fn: Any) -> Optional[str]:
    """Layer of the module that defines ``fn`` (bound methods and
    ``functools.partial`` objects resolve to their underlying function)."""
    fn = getattr(fn, "func", fn)
    return module_layer(getattr(fn, "__module__", None) or "")


class SpanRecorder:
    """Span stack plus per-layer self time and per-key counters."""

    def __init__(self, calibrate: bool = True) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive time per entry-point key (e.g. ``"Trace.digest"``).
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Time covered by outermost spans.
        self.covered_s = 0.0
        #: Time inside covered spans that the wrappers themselves took.
        self.instrumentation_s = 0.0
        self._stack: List[List[float]] = []
        #: Unmeasured cost one nested span adds to its caller.
        self.overhead_s = _calibrate() if calibrate else 0.0

    def wrap(self, layer: str, fn: Callable[..., Any], key: str,
             on_result: Optional[Callable[[Any, tuple], None]] = None
             ) -> Callable[..., Any]:
        """``fn`` inside a span charged to ``layer``, counted under ``key``.

        ``on_result(result, args)`` runs inside the span after ``fn``
        returns; its time counts as instrumentation.
        """
        stack = self._stack
        self_s, inclusive_s, calls = self.self_s, self.inclusive_s, self.calls
        clock = time.perf_counter
        recorder = self

        def span(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    mid = clock()
                    on_result(result, args)
                    hidden = clock() - mid
                    frame[0] += hidden
                    recorder.instrumentation_s += hidden
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                inclusive_s[key] += elapsed
                if stack:
                    stack[-1][0] += elapsed + recorder.overhead_s
                    recorder.instrumentation_s += recorder.overhead_s
                else:
                    recorder.covered_s += elapsed

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def callback(self, fn: Any) -> Any:
        """Wrap a callable the program will invoke later (kernel event,
        timer expiry, observer, upcall) in a span of its defining layer."""
        if fn is None or hasattr(fn, "__wrapped__"):
            return fn
        layer = callable_layer(fn)
        if layer is None:
            return fn
        return self.wrap(layer, fn, f"{layer}.callback")


def _calibrate(calls: int = 20000, repeats: int = 5) -> float:
    """Least per-call cost a nested span adds beyond what it measures."""
    probe = SpanRecorder(calibrate=False)
    probe._stack.append([0.0])  # measure the nested path

    def noop() -> None:
        return None

    wrapped = probe.wrap("calibration", noop, "noop")
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            noop()
        plain = clock() - start
        probe.inclusive_s["noop"] = 0.0
        start = clock()
        for _ in range(calls):
            wrapped()
        total = clock() - start
        best = min(best, (total - probe.inclusive_s["noop"] - plain) / calls)
    return max(best, 0.0)


class EventCounter:
    """Counts fired kernel events — one wrapper call per ``Simulator.run``,
    so the run it observes keeps its speed."""

    def __init__(self) -> None:
        self.events_fired = 0

    def __enter__(self) -> "EventCounter":
        from repro.sim.kernel import Simulator

        self._original = original = Simulator.__dict__["run"]
        counter = self

        def run(sim: Any, until: Optional[float] = None) -> float:
            before = sim.events_fired
            try:
                return original(sim, until)
            finally:
                counter.events_fired += sim.events_fired - before

        Simulator.run = run  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: Any) -> None:
        from repro.sim.kernel import Simulator

        Simulator.run = self._original  # type: ignore[method-assign]


class SpanRun:
    """Context manager installing span wrappers on the layers' entry points.

    ``parent_side_only`` wraps just the sweep orchestration (``runner``
    and ``service``): sweep workers are forked from the benchmark process
    and would inherit every other wrapper, slowing the cells while their
    spans die with the worker.
    """

    def __init__(self, parent_side_only: bool = False) -> None:
        self.rec = SpanRecorder()
        self.parent_side_only = parent_side_only
        self.scenarios: List[Any] = []
        self.counter = EventCounter()
        self.cancelled = 0
        self.peak_pending = 0
        self.records_checked = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- patching
    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _method(self, cls: type, name: str, layer: str,
                on_result: Optional[Callable[[Any, tuple], None]] = None) -> None:
        key = f"{cls.__name__}.{name}"
        self._set(cls, name, self.rec.wrap(layer, cls.__dict__[name], key, on_result))

    def _function(self, module: Any, name: str, layer: str) -> None:
        """Wrap a module-level function in every ``repro`` module that
        imported it by name (``from x import f`` binds a second name)."""
        original = getattr(module, name)
        wrapped = self.rec.wrap(layer, original, name)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(name) is original):
                self._set(mod, name, wrapped)

    @property
    def events_fired(self) -> int:
        return self.counter.events_fired

    def __enter__(self) -> "SpanRun":
        self.counter.__enter__()
        self._install_sweep_side()
        if not self.parent_side_only:
            self._install_kernel()
            self._install_model()
            self._install_optional()
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self.counter.__exit__()

    def _install_kernel(self) -> None:
        from repro.sim.events import EventHandle
        from repro.sim.kernel import Simulator
        from repro.sim.queues import HeapQueue, WheelQueue
        from repro.sim.timers import Timer

        run, cb = self, self.rec.callback
        original_at = Simulator.__dict__["at"]
        original_schedule = Simulator.__dict__["schedule"]
        original_attach = Simulator.__dict__["attach_observer"]
        original_detach = Simulator.__dict__["detach_observer"]
        original_timer_init = Timer.__dict__["__init__"]
        original_cancel = EventHandle.__dict__["cancel"]

        def at(self: Any, time_: float, callback: Any, *args: Any,
               priority: int = 0, pooled: bool = False) -> Any:
            return original_at(self, time_, cb(callback), *args,
                               priority=priority, pooled=pooled)

        def schedule(self: Any, delay: float, callback: Any, *args: Any,
                     pooled: bool = False) -> Any:
            return original_schedule(self, delay, cb(callback), *args, pooled=pooled)

        def attach_observer(self: Any, observer: Any) -> None:
            original_attach(self, cb(observer))

        def detach_observer(self: Any, observer: Any) -> None:
            current = getattr(self._observer, "__wrapped__", None)
            if current is not None and current == observer:
                self._observer = None
            else:
                original_detach(self, observer)

        def timer_init(self: Any, sim: Any, callback: Any, name: str = "") -> None:
            original_timer_init(self, sim, cb(callback), name)

        def cancel(self: Any) -> bool:
            done = original_cancel(self)
            run.cancelled += done
            return done

        for name, fn in (("at", at), ("schedule", schedule),
                         ("attach_observer", attach_observer),
                         ("detach_observer", detach_observer)):
            self._set(Simulator, name, fn)
        self._set(Timer, "__init__", timer_init)
        self._set(EventHandle, "cancel", cancel)
        for name in ("run", "at", "schedule", "reschedule"):
            self._method(Simulator, name, "sim")
        for name in ("start", "start_at", "stop"):
            self._method(Timer, name, "sim")

        def note_live(_: Any, args: tuple) -> None:
            live = args[0].live
            if live > run.peak_pending:
                run.peak_pending = live

        for queue_cls in (HeapQueue, WheelQueue):
            self._method(queue_cls, "push", "queues", note_live)
            self._method(queue_cls, "pop_next", "queues")

    def _install_model(self) -> None:
        from repro.core.macaw import MacawMac
        from repro.experiments.base import Experiment
        from repro.mac.base import BaseMac
        from repro.net.sink import FlowRecorder
        from repro.phy.medium import Medium
        from repro.topo.builder import Scenario, ScenarioBuilder

        run, cb = self, self.rec.callback

        def built(scenario: Any, _: tuple) -> None:
            # Upcalls the MAC makes into net (and the obs delivery tap)
            # are plain attributes, not kernel events: wrap them here.
            run.scenarios.append(scenario)
            for station in scenario.stations.values():
                mac = station.mac
                for hook in ("on_deliver", "on_sent", "on_drop"):
                    setattr(mac, hook, cb(getattr(mac, hook)))
            scenario.recorder.on_record = cb(scenario.recorder.on_record)

        self._method(Medium, "transmit", "phy")
        for name in ("on_frame", "on_transmit_complete", "enqueue"):
            self._method(MacawMac, name, "core")
        for name in ("send_frame", "deliver_up", "notify_drop", "notify_sent"):
            self._method(BaseMac, name, "mac")
        self._method(FlowRecorder, "record", "net")
        self._method(ScenarioBuilder, "build", "topo", built)
        self._method(Scenario, "run", "topo")
        self._method(Experiment, "run", "experiments")

    def _install_optional(self) -> None:
        import repro.fault.inject as inject
        import repro.obs.probes as probes
        from repro.sim.trace import Trace
        from repro.topo.builder import Scenario

        run = self

        def checked(report: Any, _: tuple) -> None:
            run.records_checked += sum(report.examined.values())

        self._method(Trace, "record", "trace")
        self._method(Trace, "digest", "trace")
        self._method(Scenario, "verify", "verify", checked)
        self._method(probes.MacProbe, "note_state", "obs")
        self._function(probes, "instrument_scenario", "obs")
        self._function(inject, "install_faults", "fault")

    def _install_sweep_side(self) -> None:
        import repro.runner.parallel as parallel
        import repro.service.orchestrator as orchestrator
        from repro.runner.cache import ResultCache
        from repro.service.journal import Journal
        from repro.service.scheduler import CellScheduler

        self._method(ResultCache, "get", "runner")
        self._method(ResultCache, "put", "runner")
        self._function(parallel, "execute_cell", "runner")
        self._method(Journal, "append", "service")
        self._method(CellScheduler, "reap", "service")
        self._method(CellScheduler, "submit", "service")
        self._function(orchestrator, "run_job", "service")
