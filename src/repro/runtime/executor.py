"""Adaptive parallel experiment executor with persistent result caching.

The sweep engine fans ``(layer, configuration)`` points out across
workers.  Work is submitted as *chunks* — all configuration points of
one layer form one chunk, and a chunk never splits across workers — so
each worker generates a layer's trace once and reuses it for every
configuration point, exactly like the serial path did.

Dispatch is *adaptive*.  Pool startup and job pickling are fixed costs
that dominated small sweeps once per-layer simulation got fast (the
``parallel_speedup: 0.58`` regression this module's cutover fixes), so
when a pool could open at all (``jobs > 1`` and a backend other than
``serial``) the executor prices every chunk first — the exact event
count of its trace plan, times a per-event rate for the tier that will
answer it (fast vectorised replay vs. event-level Python loop), plus
trace generation when neither the in-process LRU nor the disk store
holds the trace — and only opens a pool when the estimated parallel
saving exceeds the pool's startup cost.  Small sweeps run inline;
``jobs=1`` and ``backend="serial"`` run everything inline unpriced.
The decision picks the *venue* only and can never change results.

Two worker venues exist (``backend=``):

``threads``
    ``ThreadPoolExecutor`` workers in this process.  The fast tier is
    NumPy-vectorised and releases the GIL for the bulk of its time, so
    threads get real parallelism there at zero serialisation cost —
    workers share the parent's trace LRU and metrics registry
    directly.  Thread workers must **not** export/merge their
    instrumentation: they already record onto the parent's registry,
    and merging would double-count (the regression suite pins this).

``processes``
    ``multiprocessing.Pool`` (``fork`` where available).  The event
    tier holds the GIL in a Python loop, so it needs processes.  Trace
    hand-off is zero-copy: workers never receive a pickled
    :class:`KernelTrace` — they receive the points plus
    content-addressed store keys and open the shared
    :class:`~repro.runtime.store.DiskCache` with ``mmap_traces=True``,
    memory-mapping the persisted columnar events so every worker on
    the host shares one copy of the pages through the OS page cache.

``auto`` picks the venue per chunk (event-tier chunks → processes,
fast-tier chunks → threads, both pools may run concurrently);
``serial`` forces inline.  Every tier decision comes from
:func:`repro.analytic.engine.route` via :meth:`SimPoint.route`.

Cold fast-tier points **stream**: when neither the in-process LRU nor
the disk store holds a point's trace, the point runs through
:func:`~repro.gpu.simulator.simulate_layer_streaming` — trace blocks
flow straight from the closed-form synthesizer into the replay's
incremental accumulator (and, when a store is attached, into its
streaming sidecar writer), so a full-network cold sweep never
materialises any layer's event columns.  Peak RSS stays bounded by one
block plus the replay's compact derived streams, which the
``streaming_sweep`` perf-gate benchmark asserts end to end through
this executor.  Warm traces keep the cheaper replay-from-store path
(mmap zero-copy where enabled); results are bit-identical either way.

Determinism contract: a point's :class:`LayerResult` is a pure
function of the point (the simulator has no hidden state beyond its
caches, which only ever return artifacts produced by the same pure
function).  Results are therefore bit-identical whether computed
inline, by a thread, by a worker process, or read back from the
on-disk cache; ``tests/test_executor_backends.py``
and ``tests/test_runtime_equivalence.py`` enforce this for every
backend and elimination mode.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.conv.layer import ConvLayerSpec
from repro.gpu.config import (
    BASELINE_KERNEL,
    GPUConfig,
    KernelConfig,
    SimulationOptions,
    TITAN_V,
)
from repro.gpu.ldst import EliminationMode
from repro.runtime.cachekey import result_key, trace_key
from repro.runtime.store import DiskCache

#: Valid ``SweepExecutor(backend=...)`` values.
BACKENDS = ("auto", "serial", "threads", "processes")


@dataclass(frozen=True)
class SimPoint:
    """One unit of sweep work: a layer under one configuration.

    ``mode=DUPLO`` with ``lhb_entries=None`` is the paper's oracle
    (unbounded LHB).  Points are frozen and picklable so they can
    cross process boundaries and feed content-addressed cache keys.
    """

    spec: ConvLayerSpec
    mode: EliminationMode = EliminationMode.DUPLO
    lhb_entries: Optional[int] = 1024
    lhb_assoc: int = 1
    gpu: GPUConfig = TITAN_V
    kernel: KernelConfig = BASELINE_KERNEL
    options: SimulationOptions = SimulationOptions()

    def cache_key(self) -> str:
        return result_key(
            self.spec,
            self.gpu,
            self.kernel,
            self.options,
            self.mode.value,
            self.lhb_entries,
            self.lhb_assoc,
        )

    def route(self):
        """The :class:`~repro.analytic.engine.Route` answering this point.

        Analytic answers are approximate: they bypass the result cache
        in both directions (never served from exact results persisted
        earlier, never persisted where an exact tier would read them).
        The cache key normalises ``engine`` away, so without this
        bypass the two tiers would share keys.
        """
        from repro.analytic.engine import route

        return route(
            self.kernel, self.options, self.mode,
            self.lhb_entries, self.lhb_assoc,
        )


def _stream_cold(point: SimPoint, cache: Optional[DiskCache]) -> bool:
    """Should this point stream instead of materialising its trace?

    Streaming pays off exactly when the trace does not exist anywhere
    yet: the closed-form synthesizer then feeds the replay (and the
    store's sidecar writer) blockwise, so nothing ever holds the full
    event columns.  A trace already in the in-process LRU or the disk
    store is cheaper to replay from (mmap zero-copy where enabled) —
    and keeps RSS flat anyway, since it is materialised at most once.
    Only the fast tier can stream (the accumulator is the vectorised
    replay's).
    """
    from repro.gpu import simulator

    if point.route().tier != "fast":
        return False
    if simulator.trace_is_cached(
        point.spec, point.gpu, point.kernel, point.options
    ):
        return False
    store = cache if cache is not None else simulator.get_trace_store()
    return store is None or not store.has_trace(
        trace_key(point.spec, point.gpu, point.kernel, point.options)
    )


def simulate_point(
    point: SimPoint,
    cache: Optional[DiskCache] = None,
    key: Optional[str] = None,
    streaming: bool = False,
):
    """Get-or-compute one point's :class:`LayerResult`.

    ``key`` is the precomputed result key when the caller already paid
    for it.  ``streaming=True`` routes cold fast-tier points through
    the bounded-RSS
    :func:`~repro.gpu.simulator.simulate_layer_streaming` entry,
    teeing the synthesized trace into ``cache`` (or the simulator's
    attached trace store) so later points find it warm; results are
    bit-identical to the materialising path.
    """
    from repro.gpu import simulator

    if cache is not None and point.route().tier == "analytic":
        cache = None
    if cache is not None:
        if key is None:
            key = point.cache_key()
        hit = cache.get_result(key)
        if hit is not None:
            return hit
    if streaming and _stream_cold(point, cache):
        tee = cache if cache is not None else simulator.get_trace_store()
        obs.add("executor.streamed_points")
        result = simulator.simulate_layer_streaming(
            point.spec,
            point.mode,
            lhb_entries=point.lhb_entries,
            lhb_assoc=point.lhb_assoc,
            gpu=point.gpu,
            kernel=point.kernel,
            options=point.options,
            store=tee,
        )
    else:
        result = simulator.simulate_layer(
            point.spec,
            point.mode,
            lhb_entries=point.lhb_entries,
            lhb_assoc=point.lhb_assoc,
            gpu=point.gpu,
            kernel=point.kernel,
            options=point.options,
        )
    if cache is not None:
        cache.put_result(key, result)
    return result


def _compute_point(
    point: SimPoint, cache: Optional[DiskCache], key: Optional[str]
):
    """Compute a point the prefilter already missed in ``cache``.

    Runs :func:`simulate_point` without a result store, so the store is
    not asked for the result a second time, then persists the answer
    under ``key``.  Traces still flow through the simulator's attached
    trace store, which every executor venue points at ``cache``.
    """
    result = simulate_point(point, streaming=True)
    if cache is not None:
        cache.put_result(key, result)
    return result


# ----------------------------------------------------------------------
# Cost model: what will this chunk cost, and which venue fits it?
# ----------------------------------------------------------------------
#
# The constants below are wall-clock rates measured on the benchmark
# layers (order-of-magnitude calibration; the cutover only needs the
# *ratio* of work to pool overhead to be roughly right, and the
# decision can never change results — only where they are computed).

#: Seconds per traced event to *generate* a trace.  Re-calibrated for
#: the closed-form columnar synthesizer (measured 1.2–2.2e-8 s/event on
#: the benchmark layers; priced with headroom so small hosts still
#: stay inline for now-cheap generation-bound chunks).
SEC_PER_EVENT_GENERATE = 4e-8
#: Seconds per event for one fast-tier (vectorised) replay.
SEC_PER_EVENT_FAST = 1.5e-7
#: Seconds per event for one event-tier (Python state machine) replay.
SEC_PER_EVENT_EVENT = 1.5e-6

#: Pool startup cost by multiprocessing start method (fork is cheap,
#: spawn re-imports the world in every worker).
POOL_OVERHEAD_S = {"fork": 0.10, "forkserver": 0.35, "spawn": 0.8}
#: Thread-pool startup cost (threads are nearly free to start).
THREAD_OVERHEAD_S = 0.01


@dataclass
class _ChunkPlan:
    """One pending chunk, priced and routed."""

    index: int  # position in the submitted chunk list
    missing: List[Tuple[int, SimPoint, Optional[str]]]  # (pi, point, key)
    est_s: float
    venue: str  # "threads" | "processes"


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------

_log = logging.getLogger(__name__)

_worker_cache: Optional[DiskCache] = None


def _init_worker(cache_root: Optional[str], obs_enabled: bool = False) -> None:
    """Pool initializer: open the shared store, hook the trace cache.

    The worker's store is opened with ``mmap_traces=True`` — the
    zero-copy hand-off: persisted columnar traces are memory-mapped,
    not unpickled or inflated, so N workers replaying one layer share
    a single copy of its event pages.
    """
    global _worker_cache
    from repro.gpu import simulator

    if cache_root is not None:
        _worker_cache = DiskCache(cache_root, mmap_traces=True)
        simulator.set_trace_store(_worker_cache)
    else:
        _worker_cache = None
    if obs_enabled:
        # Start from a clean slate: under ``fork`` the child inherits
        # the parent's recorded state, which must not be shipped back
        # (the parent already holds it — merging would double-count).
        obs.enable()
        obs.reset()


def _run_chunk(job):
    """Process-worker body: one layer's points, in order (trace reuse).

    Returns ``(index, results, payload)`` where ``payload`` is the
    chunk's instrumentation delta (spans + metrics recorded while the
    chunk ran) or ``None`` when observability is off.  The recorded
    state is reset after export so a worker serving many chunks ships
    each delta exactly once.
    """
    index, points = job
    if not obs.enabled():
        return (
            index,
            [_compute_point(p, _worker_cache, key) for _, p, key in points],
            None,
        )
    t0 = time.perf_counter()
    layer = points[0][1].spec.qualified_name if points else "?"
    with obs.span(
        "executor.chunk", layer=layer, points=len(points), backend="processes"
    ):
        results = [
            _compute_point(p, _worker_cache, key) for _, p, key in points
        ]
    payload = obs.export_state()
    payload["busy_s"] = time.perf_counter() - t0
    payload["pid"] = os.getpid()
    obs.reset()
    return index, results, payload


def _run_chunk_threaded(plan: _ChunkPlan, cache: Optional[DiskCache]):
    """Thread-worker body: records straight onto the shared registry.

    No ``export_state`` / ``merge_state`` / ``reset`` here: the thread
    shares the parent's metrics registry, so its spans and counters
    are already in place the moment they are recorded.  Exporting and
    merging (the process-worker protocol) would re-add everything the
    parent can already see — the double-count the regression suite
    guards against — and a ``reset`` would wipe the *parent's* state.
    """
    t0 = time.perf_counter()
    layer = plan.missing[0][1].spec.qualified_name if plan.missing else "?"
    with obs.span(
        "executor.chunk",
        layer=layer,
        points=len(plan.missing),
        backend="threads",
    ):
        out = [
            (pi, _compute_point(p, cache, key))
            for pi, p, key in plan.missing
        ]
    return plan.index, out, time.perf_counter() - t0


class SweepExecutor:
    """Fans sweep chunks across workers; caches traces and results.

    Parameters
    ----------
    jobs:
        Worker count ceiling.  ``1`` (default) runs inline in the
        calling process — the serial reference path.
    cache:
        Optional :class:`DiskCache`.  When set, layer results are
        served from / persisted to disk and workers route trace
        generation through the same store.
    backend:
        ``"auto"`` (price each chunk, pick threads for the vectorised
        tiers and processes for the event tier), ``"serial"`` (always
        inline), ``"threads"`` or ``"processes"``.
    cutover:
        ``"auto"`` opens a pool only when the estimated work saved
        exceeds the pool's startup cost; a number is an estimated-
        seconds threshold — pools open when the pending work prices at
        or above it (``0`` forces pooling, ``math.inf`` forces
        inline).  Venue only: the decision can never change results.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[DiskCache] = None,
        backend: str = "auto",
        cutover: Union[str, float] = "auto",
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if cutover != "auto":
            cutover = float(cutover)
            if math.isnan(cutover) or cutover < 0:
                raise ValueError(f"cutover must be 'auto' or >= 0, got {cutover}")
        self.jobs = jobs
        self.cache = cache
        self.backend = backend
        self.cutover = cutover

    # -- public API -----------------------------------------------------

    def run(self, points: Sequence[SimPoint]) -> List:
        """Run independent points (each its own chunk)."""
        return [chunk[0] for chunk in self.run_chunks([[p] for p in points])]

    def run_chunks(self, chunks: Sequence[Sequence[SimPoint]]) -> List[List]:
        """Run chunked points, preserving submission order.

        All points of one chunk run on one worker, in order.  Results
        come back as one list per chunk, aligned with the input.
        """
        chunks = [list(c) for c in chunks]
        results: Dict[Tuple[int, int], object] = {}
        sweep_span = obs.span(
            "executor.run_chunks",
            chunks=len(chunks),
            points=sum(len(c) for c in chunks),
            jobs=self.jobs,
            backend=self.backend,
        )
        with sweep_span:
            pending = self._prefilter(chunks, results)
            if pending:
                self._run_local(pending, results)
        return [
            [results[(ci, pi)] for pi in range(len(chunk))]
            for ci, chunk in enumerate(chunks)
        ]

    # -- prefilter ------------------------------------------------------

    def _prefilter(self, chunks, results) -> List[Tuple[int, list]]:
        """Resolve warm and analytic points inline; return the rest.

        A point is resolved here — and its chunk therefore shrinks —
        when the result cache already holds it, or when the analytic
        tier answers it (closed forms over a memoised layer profile;
        cheaper than any dispatch).  A chunk whose *every* point
        resolves never reaches a worker (``executor.chunks_skipped``).
        This is the only result-cache probe a point gets: the workers
        compute the returned points without asking the store again.
        """
        pending: List[Tuple[int, list]] = []
        cache_hits = 0
        analytic_hits = 0
        skipped = 0
        for ci, chunk in enumerate(chunks):
            missing = []
            for pi, point in enumerate(chunk):
                if point.route().tier == "analytic":
                    results[(ci, pi)] = simulate_point(point)
                    analytic_hits += 1
                    continue
                key = None
                if self.cache is not None:
                    key = point.cache_key()
                    hit = self.cache.get_result(key)
                    if hit is not None:
                        results[(ci, pi)] = hit
                        cache_hits += 1
                        continue
                missing.append((pi, point, key))
            if missing:
                pending.append((ci, missing))
            elif chunk:
                skipped += 1
        obs.add("executor.chunks", len(chunks))
        obs.add("executor.points", sum(len(c) for c in chunks))
        obs.add("executor.prefilter_hits", cache_hits)
        obs.add("executor.analytic_prefilter", analytic_hits)
        obs.add("executor.chunks_skipped", skipped)
        _log.info(
            "sweep: %d chunk(s), %d point(s), %d cached, %d analytic, "
            "%d chunk(s) skipped, jobs=%d backend=%s",
            len(chunks),
            sum(len(c) for c in chunks),
            cache_hits,
            analytic_hits,
            skipped,
            self.jobs,
            self.backend,
        )
        return pending

    # -- cost model -----------------------------------------------------

    def _plan(self, ci: int, missing: list) -> _ChunkPlan:
        """Price one chunk and pick its natural venue."""
        from repro.gpu import simulator
        from repro.gpu.kernel import plan_sm_trace

        first = missing[0][1]
        events = plan_sm_trace(
            first.spec, first.gpu, first.kernel, first.options
        ).event_count()
        warm = simulator.trace_is_cached(
            first.spec, first.gpu, first.kernel, first.options
        )
        if not warm and self.cache is not None:
            warm = self.cache.has_trace(
                trace_key(first.spec, first.gpu, first.kernel, first.options)
            )
        est = 0.0 if warm else events * SEC_PER_EVENT_GENERATE
        venue = "threads"
        # Analytic points never get here: the prefilter answers them.
        for _pi, point, _key in missing:
            if point.route().tier == "event":
                venue = "processes"
                est += events * SEC_PER_EVENT_EVENT
            else:
                est += events * SEC_PER_EVENT_FAST
        return _ChunkPlan(index=ci, missing=missing, est_s=est, venue=venue)

    def _should_pool(self, plans: List[_ChunkPlan], overhead_s: float) -> bool:
        """The cutover: is a pool worth its startup cost for ``plans``?

        ``auto`` compares the wall-clock the pool would *save* —
        ``est_total * (1 - 1/effective_workers)``, with effective
        workers capped by jobs, pending chunks, and host cores —
        against the pool's startup overhead.  On a single-core host
        the effective worker count is 1, the saving is 0, and the pool
        never opens: parallel mode can no longer lose to serial.
        """
        est_total = sum(p.est_s for p in plans)
        if self.cutover != "auto":
            return est_total >= self.cutover
        effective = min(self.jobs, len(plans), os.cpu_count() or 1)
        if effective < 2:
            return False
        saving = est_total * (1.0 - 1.0 / effective)
        return saving > overhead_s

    def _pool_overhead_s(self) -> float:
        return POOL_OVERHEAD_S.get(self._context().get_start_method(), 0.8)

    # -- dispatch -------------------------------------------------------

    def _split(self, pending):
        """(inline, thread plans, process plans) for the pending chunks.

        Chunks are priced only when a pool could open at all; with
        ``jobs == 1`` or ``backend="serial"`` everything runs inline.
        """
        if self.backend == "serial" or self.jobs == 1:
            return list(pending), [], []
        plans = [self._plan(ci, missing) for ci, missing in pending]
        if self.backend in ("threads", "processes"):
            for p in plans:
                p.venue = self.backend
        thread_plans = [p for p in plans if p.venue == "threads"]
        proc_plans = [p for p in plans if p.venue == "processes"]
        inline = []
        if thread_plans and not self._should_pool(
            thread_plans, THREAD_OVERHEAD_S
        ):
            inline += thread_plans
            thread_plans = []
        if proc_plans and not self._should_pool(
            proc_plans, self._pool_overhead_s()
        ):
            inline += proc_plans
            proc_plans = []
        inline = [(p.index, p.missing) for p in inline]
        return inline, thread_plans, proc_plans

    def _run_local(self, pending, results) -> None:
        """Adaptive dispatch: inline, threads, processes, or a mix."""
        inline, thread_plans, proc_plans = self._split(pending)
        obs.add("executor.cutover.inline", len(inline))
        obs.add("executor.cutover.pool", len(thread_plans) + len(proc_plans))

        t0 = time.perf_counter()
        busy_s = 0.0
        nworkers = 0

        # Kick the process pool off first: imap_unordered dispatches
        # from a handler thread, so event-tier chunks simulate in the
        # workers while this process drives the thread pool.
        pool = None
        proc_iter = None
        if proc_plans:
            ctx = self._context()
            root = str(self.cache.root) if self.cache is not None else None
            nprocs = min(self.jobs, len(proc_plans))
            nworkers += nprocs
            obs.add("executor.dispatch.processes", len(proc_plans))
            pool = ctx.Pool(
                processes=nprocs,
                initializer=_init_worker,
                initargs=(root, obs.enabled()),
            )
            proc_iter = pool.imap_unordered(
                _run_chunk, [(p.index, p.missing) for p in proc_plans]
            )

        from repro.gpu import simulator

        prev = simulator.get_trace_store()
        if self.cache is not None:
            simulator.set_trace_store(self.cache)
        try:
            if thread_plans:
                nthreads = min(self.jobs, len(thread_plans))
                nworkers += nthreads
                obs.add("executor.dispatch.threads", len(thread_plans))
                with ThreadPoolExecutor(max_workers=nthreads) as tpool:
                    for ci, out, chunk_busy in tpool.map(
                        lambda p: _run_chunk_threaded(p, self.cache),
                        thread_plans,
                    ):
                        busy_s += chunk_busy
                        for pi, result in out:
                            results[(ci, pi)] = result
            if inline:
                obs.add("executor.inline_chunks", len(inline))
                for ci, missing in inline:
                    layer = missing[0][1].spec.qualified_name
                    with obs.span(
                        "executor.chunk", layer=layer,
                        points=len(missing), inline=True,
                    ):
                        for pi, point, key in missing:
                            results[(ci, pi)] = _compute_point(
                                point, self.cache, key
                            )
        finally:
            if self.cache is not None:
                simulator.set_trace_store(prev)
            if pool is not None:
                by_index = {p.index: p.missing for p in proc_plans}
                with pool:
                    for ci, outs, payload in proc_iter:
                        for (pi, _, _), result in zip(by_index[ci], outs):
                            results[(ci, pi)] = result
                        if payload is not None:
                            busy_s += payload.pop("busy_s", 0.0)
                            obs.merge_state(
                                payload,
                                pid=payload.pop("pid", None),
                                chunk=ci,
                            )

        if nworkers and obs.enabled():
            wall = time.perf_counter() - t0
            obs.gauge(
                "executor.worker_utilization",
                busy_s / (wall * nworkers) if wall > 0 else 0.0,
            )

    # -- plumbing -------------------------------------------------------

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
