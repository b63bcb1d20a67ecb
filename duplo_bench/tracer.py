"""Call-boundary tracer for the benchmark's traced pass.

The tracer records spans from outside the program: it wraps the public
functions each pipeline layer exposes (``LAYER_FUNCTIONS``) and times
every call into them.  A layer's *self time* is its spans' durations
minus the part covered by nested spans, so the self times of all
layers plus the root span's own remainder add up to the traced wall
time exactly.  Counts are taken at the same boundaries (events
synthesised, IDs translated, LHB lookups, L1 hits, store hits, ...).

Wrappers replace the function on its defining module or class and on
every ``repro.*`` module that imported it by name, and
:meth:`Tracer.uninstall` puts the originals back.  Nothing inside
``repro`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from common import percentile

#: (layer, module, qualified attribute) of every timed entry point.
#: Generator functions are timed per ``next()``, so a consumer's work
#: between blocks is not charged to the producer.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("kernel", "repro.gpu.kernel", "plan_sm_trace"),
    ("kernel", "repro.gpu.kernel", "TracePlan.iter_blocks"),
    ("kernel", "repro.gpu.kernel", "TracePlan.make_trace"),
    ("kernel", "repro.gpu.kernel", "generate_sm_trace"),
    ("idgen", "repro.gpu.ldst", "load_ids_for"),
    ("idgen", "repro.core.idgen", "IDGenerator.generate_for_addresses"),
    ("lhb", "repro.gpu.fastpath", "simulate_lhb_stream"),
    ("hierarchy", "repro.gpu.fastpath", "lru_hit_mask"),
    ("fastpath", "repro.gpu.fastpath", "replay_trace_fast"),
    ("fastpath", "repro.gpu.fastpath", "replay_blocks_fast"),
    ("simulator", "repro.gpu.simulator", "simulate_layer"),
    ("simulator", "repro.gpu.simulator", "simulate_layer_streaming"),
    ("analytic", "repro.analytic.profile", "layer_profile"),
    ("analytic", "repro.analytic.model", "predict_stats"),
    ("executor", "repro.runtime.executor", "SweepExecutor.run_chunks"),
    ("executor", "repro.runtime.executor", "simulate_point"),
    ("store", "repro.runtime.store", "DiskCache.get_result"),
    ("store", "repro.runtime.store", "DiskCache.put_result"),
    ("store", "repro.runtime.store", "DiskCache.has_result"),
    ("store", "repro.runtime.store", "DiskCache.get_trace"),
    ("store", "repro.runtime.store", "DiskCache.put_trace"),
    ("store", "repro.runtime.store", "DiskCache.has_trace"),
    ("store", "repro.runtime.store", "DiskCache.trace_stream_writer"),
    ("store", "repro.runtime.store", "TraceStreamWriter.append"),
    ("store", "repro.runtime.store", "TraceStreamWriter.commit"),
    ("serve", "repro.serve.service", "QueryService.query"),
    ("analysis", "repro.analysis.experiments", "figure9"),
    ("analysis", "repro.analysis.experiments", "figure12"),
    ("analysis", "repro.analysis.experiments", "figure14"),
    ("analysis", "repro.analysis.network", "network_time"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(l for l, _, _ in LAYER_FUNCTIONS))

#: Name of the root span's layer: time inside a traced pass that no
#: layer function covers.
UNATTRIBUTED = "unattributed"


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    """Self times, counts and per-call samples for one process.

    With ``rooted=True`` only calls made inside :meth:`root` on the
    same thread are recorded, so work around a traced pass (checks,
    digests) does not leak into its numbers.
    """

    def __init__(self, rooted: bool = False) -> None:
        self.rooted = rooted
        self.self_s: Dict[str, float] = defaultdict(float)
        self.errors: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: (set_mask, assoc) of the modelled L1, which tells L1 calls
        #: of ``lru_hit_mask`` from L2 calls.
        self.l1_geometry: Tuple[int, int] = (-1, -1)

    # -- spans ----------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        return not self.rooted or bool(self._stack())

    def enter(self, layer: str) -> _Frame:
        frame = _Frame(layer, time.perf_counter())
        self._stack().append(frame)
        return frame

    def leave(self, frame: _Frame, failed: bool = False) -> float:
        """Close ``frame``; returns its inclusive duration."""
        duration = time.perf_counter() - frame.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.self_s[frame.layer] += duration - frame.child
            if failed:
                self.errors[frame.layer] += 1
        return duration

    def root(self, fn: Callable[[], object]):
        """Run ``fn`` under the root span; returns (result, wall_s)."""
        frame = self.enter(UNATTRIBUTED)
        try:
            result = fn()
        finally:
            wall = self.leave(frame)
        return result, wall

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer: str, original, hooks: "_Hooks"):
        tracer = self
        sig = inspect.signature(original) if hooks.needs_args else None

        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def gen_wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                if not tracer.active():
                    yield from inner
                    return
                while True:
                    frame = tracer.enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.leave(frame)
                        return
                    except BaseException:
                        tracer.leave(frame, failed=True)
                        raise
                    tracer.leave(frame)
                    if hooks.on_item is not None:
                        hooks.on_item(tracer, item)
                    yield item

            return gen_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active():
                return original(*args, **kwargs)
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            if hooks.before is not None:
                hooks.before(tracer, bound)
            frame = tracer.enter(layer)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.leave(frame, failed=True)
                raise
            duration = tracer.leave(frame)
            if hooks.after is not None:
                hooks.after(tracer, bound, result, duration)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in ``LAYER_FUNCTIONS``."""
        from repro.gpu.cache import SetAssociativeCache
        from repro.gpu.config import TITAN_V

        l1 = SetAssociativeCache(
            TITAN_V.l1_bytes, TITAN_V.l1_assoc, TITAN_V.l1_line_bytes
        )
        self.l1_geometry = (l1.set_mask, l1.assoc)
        targets = []
        for layer, module_name, attr in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            targets.append((layer, attr, owner, name))
        for layer, attr, owner, name in targets:
            original = vars(owner)[name]
            wrapped = self._wrap(layer, original, HOOKS.get(attr, _NO_HOOKS))
            self._patch(owner, name, original, wrapped)
            if isinstance(owner, type):
                continue
            # ``from module import name`` aliases elsewhere in repro.
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("repro"):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, original, wrapped)

    def _patch(self, owner, name, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (spans must be closed)."""
        with self._lock:
            for table in (self.self_s, self.errors, self.counts, self.samples):
                table.clear()

    # -- report ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-JSON view (the traced server child writes this)."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "errors": dict(self.errors),
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }


# ----------------------------------------------------------------------
# Counting hooks: what each boundary counts besides its time.
# ----------------------------------------------------------------------

class _Hooks:
    def __init__(self, before=None, after=None, on_item=None):
        self.before = before
        self.after = after
        self.on_item = on_item
        self.needs_args = before is not None or after is not None


_NO_HOOKS = _Hooks()


def _count_events_trace(t, bound, result, duration):
    t.count("kernel.events", int(result.kind.size))


def _count_events_block(t, block):
    t.count("kernel.events", int(len(block.kind)))


def _count_ids(t, bound, result, duration):
    t.count("idgen.ids", len(bound["addresses"]))


def _count_lhb(t, bound, result, duration):
    t.count("lhb.lookups", len(bound["element"]))
    t.count("lhb.hits", int(result.sum()))


def _count_hierarchy(t, bound, result, duration):
    if (bound["set_mask"], bound["assoc"]) == t.l1_geometry:
        t.count("hierarchy.l1_accesses", len(bound["lines"]))
        t.count("hierarchy.l1_hits", int(result.sum()))


def _probe_trace_lru(t, bound):
    """Before ``simulate_layer``: will its exact replay find the trace
    in the simulator's LRU?  Analytic answers never look it up."""
    from repro.analytic.engine import analytic_resolves
    from repro.gpu import simulator

    if analytic_resolves(
        bound["kernel"], bound["options"], bound["mode"],
        bound["lhb_entries"], bound["lhb_assoc"],
    ):
        return
    t.count("simulator.trace_lookups")
    if simulator.trace_is_cached(
        bound["spec"], bound["gpu"], bound["kernel"], bound["options"]
    ):
        t.count("simulator.trace_lru_hits")


def _count_stream_miss(t, bound):
    t.count("simulator.trace_lookups")


def _point_sample(t, bound, result, duration):
    t.sample("executor.point_s", duration)


def _result_probe(t, bound, result, duration):
    t.count("store.result_gets")
    if result is not None:
        t.count("store.result_hits")


def _query_sample(t, bound, result, duration):
    t.sample("serve.query_s", duration)


HOOKS: Dict[str, _Hooks] = {
    "generate_sm_trace": _Hooks(after=_count_events_trace),
    "TracePlan.iter_blocks": _Hooks(on_item=_count_events_block),
    "IDGenerator.generate_for_addresses": _Hooks(after=_count_ids),
    "simulate_lhb_stream": _Hooks(after=_count_lhb),
    "lru_hit_mask": _Hooks(after=_count_hierarchy),
    "simulate_layer": _Hooks(before=_probe_trace_lru),
    "simulate_layer_streaming": _Hooks(before=_count_stream_miss),
    "simulate_point": _Hooks(after=_point_sample),
    "DiskCache.get_result": _Hooks(after=_result_probe),
    "QueryService.query": _Hooks(after=_query_sample),
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict, passes: int) -> Dict[str, float]:
    """Per-pass self times and counts from a :meth:`Tracer.snapshot`."""
    passes = max(passes, 1)
    self_s = snap["self_s"]
    counts = snap["counts"]
    out: Dict[str, float] = {
        f"{layer}.self_s": self_s.get(layer, 0.0) / passes for layer in LAYERS
    }
    out["trace.unattributed_s"] = self_s.get(UNATTRIBUTED, 0.0) / passes
    out["kernel.events"] = counts.get("kernel.events", 0) / passes
    out["idgen.ids"] = counts.get("idgen.ids", 0) / passes
    out["lhb.lookups"] = counts.get("lhb.lookups", 0) / passes
    out["lhb.hit_ratio"] = ratio(
        counts.get("lhb.hits", 0), counts.get("lhb.lookups", 0)
    )
    out["hierarchy.l1_hit_ratio"] = ratio(
        counts.get("hierarchy.l1_hits", 0),
        counts.get("hierarchy.l1_accesses", 0),
    )
    out["simulator.trace_lru_hit_ratio"] = ratio(
        counts.get("simulator.trace_lru_hits", 0),
        counts.get("simulator.trace_lookups", 0),
    )
    points = sorted(snap["samples"].get("executor.point_s", []))
    out["executor.point_p50_ms"] = percentile(points, 0.50) * 1e3
    out["executor.point_p90_ms"] = percentile(points, 0.90) * 1e3
    out["store.result_hit_ratio"] = ratio(
        counts.get("store.result_hits", 0), counts.get("store.result_gets", 0)
    )
    out["store.failures"] = snap["errors"].get("store", 0)
    return out
