"""Outside-in per-layer wall-clock attribution for the bench.

``LayerTrace`` wraps each layer's public entry points (the ``LAYERS``
table below) in place, times every call with ``perf_counter``, and
restores the originals on exit.  A call's *self time* is its duration
minus the time of wrapped calls nested inside it, so the layer self
times of one traced window add up to the time spent inside any wrapped
entry point; the rest of the window is reported as ``other``.

Coroutine and generator entry points (``DetectionService.submit``,
``Tracer.span``'s context manager, ``frame_chunks``) are timed per
resumed step: the time a coroutine spends suspended on the event loop,
or a generator spends between ``next`` calls, belongs to whoever runs
in the meantime.

The wrappers only read the clock and update plain Python containers.
They never call into ``repro``, so they tick no ops, open no spans and
leave every deterministic export byte-identical to an untraced run.

An entry point that does not resolve (renamed or deleted by a later
refactor) is skipped and listed in ``LayerTrace.unresolved``; the bench
keeps working, the layer just loses that part of its attribution.
"""

from __future__ import annotations

import collections.abc
import contextlib
import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: ``(layer, entry points)`` in report order.  An entry point is
#: ``module:function``, ``module:Class.method``, ``module:Class.*`` (the
#: public methods the class itself defines, minus ``state_dict`` and
#: ``load_state``) or ``module:*`` (the public functions the module
#: defines).  ``recovery.state`` is resolved by scanning every loaded
#: ``repro`` class for ``state_dict``/``load_state``.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("net.client", (
        "repro.net.client:HttpClient.request",
        "repro.net.client:HttpClient.request_plain",
    )),
    ("net.tls", (
        "repro.net.tls:TlsClientSession.send",
        "repro.net.tls:TlsClientSession.resume",
        "repro.net.tls:TlsServerHandler.on_data",
    )),
    ("net.crypto", ("repro.net.crypto:*",)),
    ("net.fabric", (
        "repro.net.fabric:NetworkFabric.connect",
        "repro.net.fabric:Connection.roundtrip",
    )),
    ("net.http", (
        "repro.net.http:HttpRequest.to_bytes",
        "repro.net.http:HttpRequest.from_bytes",
        "repro.net.http:HttpResponse.to_bytes",
        "repro.net.http:HttpResponse.from_bytes",
        "repro.net.server:HttpConnectionHandler.on_data",
    )),
    ("net.proxy", (
        "repro.net.proxy:_MitmHandler.on_data",
        "repro.net.proxy:_MitmInnerHandler.on_data",
        "repro.net.proxy:_TunnelHandler.on_data",
    )),
    ("net.server", ("repro.net.server:Router.dispatch",)),
    ("playstore", (
        "repro.playstore.store:PlayStore.*",
        "repro.playstore.frontend:PlayStoreFrontend._details",
        "repro.playstore.frontend:PlayStoreFrontend._chart",
    )),
    ("affiliates", (
        "repro.affiliates.app:AffiliateAppRuntime.*",
        "repro.iip.offerwall:OfferWallServer._offers",
    )),
    # The pipelines' scheduler task runners belong to the layer whose
    # work they run; wrapped under ``parallel`` alone, every task body
    # would count as scheduler time.
    ("monitor.milker", (
        "repro.monitor.milker:Milker.milk",
        "repro.core.wild_measurement:WildMeasurement.run_milk_payload",
    )),
    ("monitor.crawler", (
        "repro.monitor.crawler:PlayStoreCrawler.run_fetch_payload",
        "repro.monitor.crawler:PlayStoreCrawler.crawl_everything",
        "repro.monitor.crawler:PlayStoreCrawler.capture_offer_pages",
        "repro.monitor.crawler:PlayStoreCrawler.crawl_charts",
    )),
    ("monitor.dataset", (
        "repro.monitor.dataset:OfferDataset.ingest_all",
        "repro.monitor.dataset:OfferDataset.frame",
        "repro.monitor.dataset:OfferDataset.frame_chunks",
    )),
    ("simulation", (
        "repro.simulation.world:World.__init__",
        "repro.simulation.scenarios:WildScenario.build",
        "repro.simulation.scenarios:WildScenario.run_day",
    )),
    ("iip", (
        "repro.iip.platform:IncentivizedInstallPlatform.*",
        "repro.iip.accounting:MoneyLedger.*",
        "repro.iip.mediator:AttributionMediator.*",
    )),
    ("honeyapp", (
        "repro.core.honey_experiment:HoneyAppExperiment.run_campaign_payload",
        "repro.honeyapp.app:HoneyApp.*",
        "repro.honeyapp.server:TelemetryServer._ingest",
        "repro.honeyapp.analysis:HoneyExperimentAnalysis.*",
    )),
    ("users", (
        "repro.users.population:PopulationBuilder.build",
        "repro.users.worker:Worker.work_offer",
        "repro.users.devices:DeviceFactory.*",
    )),
    ("analysis", (
        "repro.analysis.characterize:*",
        "repro.analysis.appstore_impact:*",
        "repro.analysis.streams:*",
        "repro.analysis.streams:SpillableLog.*",
        "repro.analysis.streams:SpillableLog._iter_spilled",
        "repro.analysis.streams:GroupFold.*",
        "repro.core.reports:*",
    )),
    ("detection", (
        "repro.detection.stream:InstallEventBus.publish",
        "repro.detection.stream:InstallEventBus.publish_all",
        "repro.detection.stream:OnlineLockstepDetector.ingest",
        "repro.detection.stream:OnlineLockstepDetector.finalize",
        "repro.detection.events:InstallLog.*",
        "repro.detection.evaluation:evaluate_detector",
        "repro.detection.lockstep:LockstepDetector.flag_devices",
    )),
    ("serve", (
        "repro.serve.service:DetectionService.submit",
        "repro.serve.service:DetectionService._handle",
        "repro.serve.cache:WatermarkCache.lookup",
        "repro.serve.cache:WatermarkCache.store",
        "repro.serve.admission:AdmissionController.decide",
        "repro.serve.datasets:DatasetRegistry.execute",
        "repro.serve.datasets:build_serve_datasets",
    )),
    # The serve workloads' load generator: outside the service, inside
    # run_serve's wall time.
    ("serve.fleet", ("repro.serve.fleet:FleetClient._next_request",)),
    # Everything the virtual-time loop runs that no other layer claims:
    # loop bookkeeping (a select() per iteration), task steps, and the
    # coroutine bodies of the fleet clients and service workers.
    # Wrapping the loop's entry rather than each iteration attributes
    # the same time for a handful of calls instead of ~260k.
    ("serve.vtime", (
        "repro.serve.vtime:VirtualTimeEventLoop.run_until_complete",)),
    ("obs", (
        "repro.obs.metrics:MetricsRegistry.inc",
        "repro.obs.metrics:MetricsRegistry.inc_keyed",
        "repro.obs.metrics:MetricsRegistry.observe",
        "repro.obs.metrics:MetricsRegistry.set_gauge",
        "repro.obs.tracing:Tracer.span",
        "repro.obs.observability:Observability.merge",
    )),
    ("recovery", (
        "repro.recovery.checkpoint:CheckpointStore.write",
        "repro.recovery.checkpoint:CheckpointStore.load",
        "repro.recovery.checkpoint:CheckpointStore.latest",
        "repro.recovery.wal:WriteAheadLog.*",
    )),
    ("recovery.state", ()),
    ("parallel", ("repro.parallel.scheduler:ShardScheduler.run_specs",)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)

#: Per-layer metric suffixes and units, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("self_s", "s"), ("calls", "count"), ("us_per_call", "us"),
    ("share", "ratio"))

#: Methods the state scan claims for ``recovery.state``.
STATE_METHODS = ("state_dict", "load_state")

_CONTEXTMANAGER_CODE = contextlib.contextmanager(lambda: iter(())).__code__


def layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name the trace reports, with its unit."""
    units = {f"{layer}.{suffix}": unit
             for layer in LAYER_NAMES for suffix, unit in LAYER_METRICS}
    units["other.self_s"] = "s"
    units["other.share"] = "ratio"
    return units


class _TimedSteps:
    """Times each resumed step of a wrapped generator or coroutine into
    ``slot`` (the body of ``LayerTrace._wrap_function``, per step)."""

    __slots__ = ("_inner", "_slot", "_total", "_clock")

    def __init__(self, inner, slot: List[float], total: List[float],
                 clock: Callable[[], float]) -> None:
        self._inner = inner
        self._slot = slot
        self._total = total
        self._clock = clock

    def _resume(self, method, *args):
        total = self._total
        mark = total[0]
        start = self._clock()
        try:
            return method(*args)
        finally:
            elapsed = self._clock() - start
            self._slot[0] += elapsed - (total[0] - mark)
            total[0] = mark + elapsed

    def send(self, value):
        return self._resume(self._inner.send, value)

    def throw(self, *exc_info):
        return self._resume(self._inner.throw, *exc_info)

    def close(self):
        return self._inner.close()

    def __next__(self):
        return self._resume(self._inner.send, None)

    def __iter__(self):
        return self


class _TimedGenerator(_TimedSteps, collections.abc.Generator):
    __slots__ = ()


class _TimedCoroutine(_TimedSteps, collections.abc.Coroutine):
    """Registered as a ``Coroutine`` so ``asyncio`` accepts it wherever
    it accepts the coroutine it wraps (tasks, ``gather``, ``await``)."""

    __slots__ = ()

    def __await__(self):
        return self


class LayerTrace:
    """Per-layer self time and call counts over a traced window.

    Use as a context manager: entering installs the wrappers, leaving
    restores every patched attribute.  ``clock`` is injectable so tests
    can drive the arithmetic with a fake clock.
    """

    def __init__(self, layers: Sequence[Tuple[str, Sequence[str]]] = LAYERS,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.layers = [(name, tuple(specs)) for name, specs in layers]
        self.clock = clock
        #: layer -> [self seconds, calls]
        self.slots: Dict[str, List[float]] = {
            name: [0.0, 0] for name, _ in self.layers}
        #: Running total of self time over every layer.  A call's nested
        #: wrapped time is how far the total moved while it ran; on exit
        #: the total moves by exactly the call's duration.
        self._total: List[float] = [0.0]
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._claimed: set = set()
        #: (name, replacement, original) of every module-level function
        #: patched: restore also reverts modules imported mid-trace.
        self._module_functions: List[Tuple[str, Callable, Callable]] = []
        self.unresolved: List[str] = []
        self.wall_s = 0.0

    # -- timing ---------------------------------------------------------------

    def _wrap_function(self, fn: Callable, slot: List[float]) -> Callable:
        # Everything is bound to locals: this runs on every traced call.
        clock, total = self.clock, self._total

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            slot[1] += 1
            mark = total[0]
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                slot[0] += elapsed - (total[0] - mark)
                total[0] = mark + elapsed
        return timed

    def _wrap_steps(self, fn: Callable, slot: List[float],
                    kind: type) -> Callable:
        clock, total = self.clock, self._total

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            slot[1] += 1
            return kind(fn(*args, **kwargs), slot, total, clock)
        return timed

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` timed into ``layer``; generator, coroutine and
        ``contextmanager`` functions are timed per resumed step."""
        slot = self.slots[layer]
        if inspect.iscoroutinefunction(fn):
            return self._wrap_steps(fn, slot, _TimedCoroutine)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_steps(fn, slot, _TimedGenerator)
        inner = getattr(fn, "__wrapped__", None)
        if (getattr(fn, "__code__", None) is _CONTEXTMANAGER_CODE
                and inspect.isgeneratorfunction(inner)):
            return functools.wraps(fn)(contextlib.contextmanager(
                self._wrap_steps(inner, slot, _TimedGenerator)))
        return self._wrap_function(fn, slot)

    # -- patching -------------------------------------------------------------

    def _patch(self, owner: object, name: str, layer: str) -> None:
        """Replace ``owner.name`` with its timed version."""
        own = name in vars(owner)
        raw = inspect.getattr_static(owner, name)
        descriptor = isinstance(raw, (staticmethod, classmethod))
        fn = raw.__func__ if descriptor else raw
        if not inspect.isfunction(fn):
            self.unresolved.append(f"{owner!r}.{name} (not a function)")
            return
        if fn in self._claimed:
            return
        self._claimed.add(fn)
        replacement = self.wrap(fn, layer)
        if descriptor:
            replacement = type(raw)(replacement)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, raw, own))
        if inspect.ismodule(owner):
            # Modules that imported the function by name hold their own
            # reference; patch those bindings too.
            self._module_functions.append((name, replacement, fn))
            for module in _repro_modules():
                if module is not owner and vars(module).get(name) is fn:
                    setattr(module, name, replacement)

    def _resolve(self, spec: str, layer: str) -> None:
        module_name, _, target = spec.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.unresolved.append(spec)
            return
        if target == "*":
            names = [name for name, value in vars(module).items()
                     if inspect.isfunction(value)
                     and value.__module__ == module.__name__
                     and not name.startswith("_")]
            for name in sorted(names):
                self._patch(module, name, layer)
            return
        class_name, _, method = target.partition(".")
        if not method:
            if inspect.isfunction(getattr(module, class_name, None)):
                self._patch(module, class_name, layer)
            else:
                self.unresolved.append(spec)
            return
        cls = getattr(module, class_name, None)
        if not inspect.isclass(cls):
            self.unresolved.append(spec)
            return
        if method == "*":
            for name in sorted(vars(cls)):
                value = vars(cls)[name]
                if (not name.startswith("_") and name not in STATE_METHODS
                        and (inspect.isfunction(value) or isinstance(
                            value, (staticmethod, classmethod)))):
                    self._patch(cls, name, layer)
            return
        if not hasattr(cls, method):
            self.unresolved.append(spec)
            return
        self._patch(cls, method, layer)

    def _patch_state_methods(self, layer: str) -> None:
        for module in _repro_modules():
            for value in list(vars(module).values()):
                if (inspect.isclass(value)
                        and value.__module__ == module.__name__):
                    for name in STATE_METHODS:
                        if inspect.isfunction(vars(value).get(name)):
                            self._patch(value, name, layer)

    def install(self) -> None:
        for layer, specs in self.layers:
            for spec in specs:
                self._resolve(spec, layer)
        if "recovery.state" in self.slots:
            self._patch_state_methods("recovery.state")

    def restore(self) -> None:
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        for name, replacement, original in self._module_functions:
            for module in _repro_modules():
                if vars(module).get(name) is replacement:
                    setattr(module, name, original)
        self._patches.clear()
        self._module_functions.clear()
        self._claimed.clear()

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- the traced window ----------------------------------------------------

    @contextlib.contextmanager
    def window(self):
        """Time the traced wall clock; layer shares are taken over it."""
        start = self.clock()
        try:
            yield self
        finally:
            self.wall_s += self.clock() - start

    def attributed_s(self) -> float:
        """Time spent inside top-level wrapped calls."""
        return self._total[0]

    def report(self) -> Dict[str, float]:
        """``layer.self_s/calls/us_per_call/share`` for every layer, plus
        ``other.self_s/share`` for the unattributed rest of the window."""
        wall = self.wall_s
        out: Dict[str, float] = {}
        for layer, _ in self.layers:
            self_s, calls = self.slots[layer]
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.calls"] = calls
            out[f"{layer}.us_per_call"] = (self_s / calls * 1e6
                                           if calls else 0.0)
            out[f"{layer}.share"] = self_s / wall if wall > 0 else 0.0
        other = max(0.0, wall - self.attributed_s())
        out["other.self_s"] = other
        out["other.share"] = other / wall if wall > 0 else 0.0
        return out


def _repro_modules() -> List[object]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]
