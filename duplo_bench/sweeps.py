"""``geometry_sweep`` and ``network_pass``: cold figure reproductions.

One *pass* is what a user runs to reproduce figures from scratch: a
fresh result store and empty in-process caches, then

* ``geometry_sweep``: ``figure9`` and ``figure12`` over all 22 Table I
  layers through one serial ``SweepExecutor(jobs=1)`` and a fresh
  ``DiskCache``; the seed sets the layer order;
* ``network_pass``: ``figure14()``, every forward, data-gradient and
  weight-gradient layer of the three networks for baseline and Duplo.

Only the figure calls are timed.  Digests, the paper gap and the
event-tier spot checks are computed outside the timed section.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from common import (
    Result,
    child_env,
    host_ref_ms,
    median,
    peak_rss_mb,
    report_host_ref,
    tree_bytes,
)

#: Event-tier spot checks per run, drawn by seed from the points whose
#: trace has at most ``EVENT_CHECK_MAX_EVENTS`` events (the reference
#: tier replays ~2.5 us/event, so larger layers would dominate a run).
EVENT_CHECKS = 3
EVENT_CHECK_MAX_EVENTS = 300_000

#: Fewest set-ups in one run; setup_s is their median.  A sweep set-up
#: takes ~0.3 s, so SETUPS_PER_PASS of them run before each pass.
SETUP_REPEATS = 9
SETUPS_PER_PASS = 4


def _stats_record(result) -> dict:
    return {
        "stats": asdict(result.stats),
        "cycles": result.cycles,
        "time_ms": result.time_ms,
    }


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")
    ).hexdigest()


def gmean_by(rows: List[dict], key: str) -> Dict[str, float]:
    """Per-parameter gmean of ``1 + improvement`` in layer-name order,
    so the value does not depend on the seed's layer order."""
    from repro.gpu.stats import geometric_mean

    groups: Dict[str, List[Tuple[str, float]]] = {}
    for row in rows:
        groups.setdefault(str(row[key]), []).append(
            (row["layer"], 1 + row["improvement"])
        )
    return {
        param: geometric_mean([v for _, v in sorted(vals)]) - 1
        for param, vals in groups.items()
    }


def paper_gap_pts(reproduced: Dict[str, float], paper: Dict[str, float]) -> float:
    """Mean absolute gap, in percentage points, over the paper's keys."""
    gaps = [abs(reproduced[k] - v) * 100 for k, v in paper.items()]
    return sum(gaps) / len(gaps)


class _SweepWorkload:
    """Shared pass loop, checks and metrics of the two figure workloads."""

    #: Imports and objects a user's process needs before a pass starts.
    setup_code = ""
    #: Untraced passes per run, however short ``--seconds`` is.
    min_passes = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.rng = random.Random(seed)
        self._store_seq = 0

    # -- hooks for the two workloads -------------------------------------

    def timed(self, store_dir: Path):
        """The timed body of one pass."""
        raise NotImplementedError

    def describe(self, output, store_dir: Path) -> Tuple[str, Dict, Dict]:
        """(digest, reproduced headline values, paper values)."""
        raise NotImplementedError

    def events_per_pass(self) -> int:
        raise NotImplementedError

    def check_points(self) -> List[Tuple[Callable, Callable, str]]:
        """(fast answer, event answer, label) pairs to compare."""
        raise NotImplementedError

    # -- pass loop ----------------------------------------------------------

    def fresh_store(self) -> Path:
        self._store_seq += 1
        return self.workdir / f"store{self._store_seq}"

    def one_pass(self, tracer=None) -> dict:
        from repro.analytic.profile import clear_profile_cache
        from repro.gpu.simulator import clear_trace_cache

        clear_trace_cache()
        clear_profile_cache()
        store_dir = self.fresh_store()
        ref_before = host_ref_ms()
        start = time.perf_counter()
        if tracer is None:
            output = self.timed(store_dir)
        else:
            output, _ = tracer.root(lambda: self.timed(store_dir))
        wall = time.perf_counter() - start
        ref_after = host_ref_ms()
        digest, reproduced, paper = self.describe(output, store_dir)
        outcome = {
            "wall_s": wall,
            "digest": digest,
            "gap": paper_gap_pts(reproduced, paper),
            "refs": [ref_before, ref_after],
            "store_bytes": tree_bytes(store_dir) if store_dir.exists() else 0,
        }
        shutil.rmtree(store_dir, ignore_errors=True)
        print(
            f"pass {'traced' if tracer else 'untraced'} wall_s={wall:.3f} "
            f"host_ref_ms={ref_before:.2f}/{ref_after:.2f}",
            flush=True,
        )
        return outcome

    def passes(
        self, seconds: float, minimum: int, tracer=None, between=None
    ) -> List[dict]:
        """Passes until ``seconds`` have passed; ``between`` runs
        untimed before each one."""
        start = time.perf_counter()
        out = []
        while len(out) < minimum or time.perf_counter() - start < seconds:
            if between is not None:
                between()
            out.append(self.one_pass(tracer))
        return out

    def setup_once(self) -> float:
        """One set-up: ``setup_code`` in a fresh interpreter.  The child
        times it itself, so interpreter start and exit are left out."""
        self._store_seq += 1
        probe_dir = self.workdir / f"setup{self._store_seq}"
        code = (
            "import time\n_start = time.perf_counter()\n"
            + self.setup_code
            + "print(time.perf_counter() - _start)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(probe_dir)],
            env=child_env(), check=True, capture_output=True, text=True,
        )
        return float(out.stdout)

    # -- checks ---------------------------------------------------------------

    def check_digests(self, result: Result, passes: List[dict], what: str) -> None:
        first = passes[0]["digest"]
        for i, p in enumerate(passes):
            result.check(
                p["digest"] == first,
                f"{what} pass {i} digest {p['digest'][:12]} != {first[:12]}",
                weight=self.answers_per_pass,
            )

    def check_event_tier(self, result: Result) -> None:
        for fast, event, label in self.check_points():
            result.check(fast() == event(), f"event tier differs on {label}")

    # -- runs -----------------------------------------------------------------

    def run(self, seconds: float, result: Result) -> None:
        # The host switches between fast and slow phases within seconds,
        # so the set-ups are spread over the run rather than run back
        # to back.
        setups: List[float] = []
        runs = self.passes(
            seconds, self.min_passes,
            between=lambda: setups.extend(
                self.setup_once() for _ in range(SETUPS_PER_PASS)
            ),
        )
        while len(setups) < SETUP_REPEATS:
            setups.append(self.setup_once())
        rss = peak_rss_mb()
        self.check_digests(result, runs, "untraced")
        self.check_event_tier(result)
        wall = median([p["wall_s"] for p in runs])
        refs = [r for p in runs for r in p["refs"]]
        result.metric("setup_s", median(setups), f"median of {len(setups)}")
        result.metric("wall_s", wall, f"median of {len(runs)} passes")
        result.metric("peak_rss_mb", rss)
        result.metric(
            "events_per_s", self.events_per_pass() / wall,
            f"{self.events_per_pass()} events per pass",
        )
        result.metric("paper_gap_pts", runs[0]["gap"])
        report_host_ref(refs)

    def run_traced(self, seconds: float, result: Result) -> Dict[str, float]:
        from tracer import Tracer, layer_metrics

        plain = self.passes(seconds / 2, 1)
        tracer = Tracer(rooted=True)
        tracer.install()
        try:
            traced = self.passes(seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        self.check_digests(result, plain + traced, "traced vs untraced")
        self.check_event_tier(result)
        metrics = layer_metrics(tracer.snapshot(), len(traced))
        traced_wall = median([p["wall_s"] for p in traced])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_ratio"] = traced_wall / median(
            [p["wall_s"] for p in plain]
        )
        metrics["store.bytes_written"] = median(
            [p["store_bytes"] for p in traced]
        )
        refs = [r for p in plain + traced for r in p["refs"]]
        metrics["host.ref_ms"] = median(refs)
        # Layer self times plus the remainder must add up to the traced
        # wall time, taken outside the tracer, and the remainder must
        # stay under a tenth of it.  Only the root span's own enter and
        # leave (microseconds) lie between the two clocks.
        wall = sum(p["wall_s"] for p in traced) / len(traced)
        total = sum(
            metrics[k] for k in metrics if k.endswith(".self_s")
        ) + metrics["trace.unattributed_s"]
        share = metrics["trace.unattributed_s"] / wall
        print(
            f"traced pass: layers+unattributed {total:.6f}s, wall "
            f"{wall:.6f}s, unattributed share {share:.4%}"
        )
        result.check(
            abs(total - wall) <= 1e-4 * wall and share < 0.1,
            f"self times {total}s vs wall {wall}s, unattributed {share:.2%}",
        )
        report_host_ref(refs)
        return metrics


class GeometrySweep(_SweepWorkload):
    """Figures 9 and 12: one trace per layer replayed at ~11 geometries."""

    setup_code = (
        "import sys\n"
        "from repro.analysis.experiments import figure9, figure12\n"
        "from repro.runtime.executor import SweepExecutor\n"
        "from repro.runtime.store import DiskCache\n"
        "SweepExecutor(jobs=1, cache=DiskCache(root=sys.argv[1]))\n"
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.analysis.sweeps import LHB_ASSOCS, LHB_SIZES
        from repro.conv.workloads import ALL_LAYERS
        from repro.gpu.ldst import EliminationMode
        from repro.runtime.executor import SimPoint

        self.layers = list(ALL_LAYERS)
        self.rng.shuffle(self.layers)
        points = {}
        for spec in self.layers:
            candidates = [SimPoint(spec, EliminationMode.BASELINE)]
            candidates += [
                SimPoint(spec, EliminationMode.DUPLO, lhb_entries=e)
                for e in LHB_SIZES
            ]
            candidates += [
                SimPoint(spec, EliminationMode.DUPLO, 1024, lhb_assoc=a)
                for a in LHB_ASSOCS
            ]
            for p in candidates:
                points.setdefault(p.cache_key(), p)
        #: Every distinct point the two figures simulate.
        self.points = points
        self.answers_per_pass = len(points)
        #: cache key -> stats record of the latest pass, from the store.
        self._stored: Dict[str, dict] = {}

    def timed(self, store_dir: Path):
        from repro.analysis.experiments import figure9, figure12
        from repro.runtime.executor import SweepExecutor
        from repro.runtime.store import DiskCache

        executor = SweepExecutor(jobs=1, cache=DiskCache(root=store_dir))
        return (
            figure9(layers=self.layers, executor=executor),
            figure12(layers=self.layers, executor=executor),
        )

    def describe(self, output, store_dir: Path):
        from repro.runtime.store import DiskCache

        fig9, fig12 = output
        store = DiskCache(root=store_dir)
        records = {}
        for key, point in self.points.items():
            stored = store.get_result(key)
            records[key] = None if stored is None else _stats_record(stored)
        self._stored = records
        g9 = gmean_by(fig9.rows, "lhb")
        g12 = gmean_by(fig12.rows, "assoc")
        reproduced = {f"gmean_{k}": v for k, v in g9.items()}
        reproduced["eight_way_advantage"] = (1 + g12["8-way"]) / (
            1 + g12["direct"]
        ) - 1
        paper = dict(fig9.paper, **fig12.paper)
        digest = _digest({"points": records, "headline": reproduced})
        return digest, reproduced, paper

    def events_per_pass(self) -> int:
        from repro.gpu.kernel import plan_sm_trace

        return sum(
            plan_sm_trace(p.spec, p.gpu, p.kernel, p.options).event_count()
            for p in self.points.values()
        )

    def check_points(self):
        from repro.gpu.kernel import plan_sm_trace
        from repro.runtime.executor import simulate_point

        small = [
            key for key, p in sorted(self.points.items())
            if plan_sm_trace(p.spec, p.gpu, p.kernel, p.options).event_count()
            <= EVENT_CHECK_MAX_EVENTS
        ]
        chosen = self.rng.sample(small, EVENT_CHECKS)
        checks = []
        for key in chosen:
            point = self.points[key]
            reference = replace(
                point, options=replace(point.options, engine="event")
            )
            checks.append((
                lambda key=key: self._stored[key],
                lambda ref=reference: _stats_record(simulate_point(ref)),
                f"{point.spec.qualified_name} {point.mode.value} "
                f"{point.lhb_entries}x{point.lhb_assoc}",
            ))
        return checks


class NetworkPass(_SweepWorkload):
    """Figure 14: dozens of distinct traces, each replayed once or twice."""

    setup_code = "from repro.analysis.experiments import figure14\n"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.conv.gradients import data_gradient_spec
        from repro.conv.workloads import TABLE_I
        from repro.gpu.ldst import EliminationMode

        base, duplo = EliminationMode.BASELINE, EliminationMode.DUPLO
        #: (spec, mode) of every simulate_layer call figure14 makes.
        self.calls = []
        for mode in (base, duplo):
            for specs in TABLE_I.values():
                for spec in specs:
                    self.calls += [
                        (spec, mode),
                        (data_gradient_spec(spec), base),
                        (spec, base),
                    ]
        self.answers_per_pass = len(self.calls)

    def timed(self, store_dir: Path):
        from repro.analysis.experiments import figure14

        return figure14()

    def describe(self, output, store_dir: Path):
        reproduced = dict(output.summary)
        digest = _digest({"rows": output.rows, "summary": reproduced})
        return digest, reproduced, output.paper

    def events_per_pass(self) -> int:
        from repro.gpu.kernel import plan_sm_trace

        return sum(plan_sm_trace(spec).event_count() for spec, _ in self.calls)

    def check_points(self):
        from repro.gpu.config import SimulationOptions
        from repro.gpu.kernel import plan_sm_trace
        from repro.gpu.simulator import clear_trace_cache, simulate_layer

        small = [
            (spec, mode) for spec, mode in dict.fromkeys(self.calls)
            if plan_sm_trace(spec).event_count() <= EVENT_CHECK_MAX_EVENTS
        ]
        checks = []
        for spec, mode in self.rng.sample(small, EVENT_CHECKS):
            def answer(engine, spec=spec, mode=mode):
                # Cold, as the layer's first call in a pass is.
                clear_trace_cache()
                return _stats_record(simulate_layer(
                    spec, mode, options=SimulationOptions(engine=engine)
                ))

            checks.append((
                lambda answer=answer: answer("auto"),
                lambda answer=answer: answer("event"),
                f"{spec.qualified_name} {mode.value}",
            ))
        return checks
