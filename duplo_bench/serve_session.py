"""``serve_session``: a what-if script driving ``repro serve``.

The benchmark starts one ``python -m repro serve`` child on a fresh
store and drives it in a closed loop over **one persistent HTTP/1.1
connection**, the way a script that waits for each reply does.  A
pass is a seed-shuffled fixed mix of three query classes:

* ``warm`` and ``analytic``: the repository's own service traffic
  model, ``DEFAULT_QUERIES`` of ``scripts/load_test.py``.  Its
  ``engine="auto"`` half is answered during set-up and repeated as
  ``warm`` (store read plus JSON); its ``engine="analytic"`` half is
  the ``analytic`` class (profile plus predict).  The load harness
  cycles through the list, so the two classes come 1:1.
* ``cold``: the same ``auto`` queries with a ``max_ctas`` never asked
  before (trace synthesis, replay and store writes).  No traffic
  record in the repository covers cold queries; their equal share is
  an assumption that gives each class the same sample count.

Latencies are reported per class, never pooled.  Every answer is
compared with a local ``simulate_point`` payload after a JSON round
trip.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    BENCH_DIR,
    Result,
    child_env,
    child_peak_rss_mb,
    host_ref_ms,
    median,
    percentile,
    report_host_ref,
    stop_process,
    tree_bytes,
)
from sweeps import paper_gap_pts

#: ``DEFAULT_QUERIES`` of ``scripts/load_test.py``, copied so that a
#: change to the load harness does not change this workload.
LOAD_TEST_QUERIES = tuple(
    {
        "network": "yolo", "layer": "C2", "mode": "duplo",
        "lhb_entries": entries, "max_ctas": 2, "engine": engine,
    }
    for engine in ("analytic", "auto")
    for entries in (64, 256, 1024, None)
)
WARM_SET = tuple(q for q in LOAD_TEST_QUERIES if q["engine"] == "auto")
ANALYTIC_SET = tuple(q for q in LOAD_TEST_QUERIES if q["engine"] == "analytic")

#: SM 0 of yolo/C2 runs 10 CTAs, so every ``max_ctas >= 10``
#: synthesises the same 189 440 events under a new cache key: a pool
#: of cold queries of equal cost, larger than any run draws.
COLD_MAX_CTAS = range(10, 2010)

#: The analytic baseline the Figure 9 improvements are taken against;
#: answered during set-up only.
ANALYTIC_BASELINE = dict(ANALYTIC_SET[0], mode="baseline", lhb_entries=1024)

#: Figure 9's published headline (``figure9().paper``): the gmean
#: improvement over Table I at 1024 LHB entries and with an oracle LHB.
FIG9_PAPER = {"gmean_1024-entry": 0.221, "gmean_oracle": 0.259}

#: Servers booted per run; setup_s is the median of their set-up times.
SETUP_REPEATS = 5

#: Each load-test query is sent this often per pass, and as many cold
#: queries: 28 per class.  Each run makes at least four passes, so
#: every class has >= 112 samples and its p90 has >= 11 beyond it.
REPEATS = 7
PER_CLASS = len(WARM_SET) * REPEATS
MIN_PASSES = 4

CLASSES = ("warm", "cold", "analytic")


def _key(query: dict) -> str:
    return json.dumps(query, sort_keys=True)


class _Server:
    """One ``repro serve`` child and a persistent connection to it."""

    def __init__(self, cmd: List[str], store: Path, log: Path) -> None:
        self.store = store
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            cmd + ["--port", "0", "--cache-dir", str(store)],
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(),
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            self.close()
            raise RuntimeError(
                f"server did not start: {line!r}; see {log.read_text()}"
            )
        host, port = line.strip().rsplit("/", 1)[1].rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=120)

    def request(self, method: str, path: str, body: bytes = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def query(self, query: dict) -> Tuple[int, bytes, float]:
        body = json.dumps(query).encode("utf-8")
        start = time.perf_counter()
        status, data = self.request("POST", "/query", body)
        return status, data, time.perf_counter() - start

    def close(self) -> None:
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        stop_process(self.proc)
        self.proc.stdout.close()
        self._log.close()


class ServeSession:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.rng = random.Random(seed)
        # Each cold query gets its own max_ctas, so none reuses another's
        # trace; its LHB size is drawn from the warm set's four.
        ctas = list(COLD_MAX_CTAS)
        self.rng.shuffle(ctas)
        self._cold = iter([
            dict(self.rng.choice(WARM_SET), max_ctas=m) for m in ctas
        ])
        self._servers = 0
        #: Every (query, status, body) the servers returned.
        self.answers: List[Tuple[dict, int, bytes]] = []

    # -- set-up ---------------------------------------------------------------

    def boot(self, traced: bool = False) -> Tuple[_Server, float]:
        """Start a server on a fresh store, warm it; returns set-up time."""
        self._servers += 1
        tag = f"server{self._servers}"
        if traced:
            cmd = [
                sys.executable, str(BENCH_DIR / "serve_child.py"),
                str(self.workdir / f"{tag}.trace.json"),
                str(self.workdir / f"{tag}.reset"),
            ]
        else:
            cmd = [sys.executable, "-m", "repro", "serve"]
        start = time.perf_counter()
        server = _Server(
            cmd, self.workdir / f"{tag}.store", self.workdir / f"{tag}.log"
        )
        try:
            status, _ = server.request("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
            # Every load-test query once, as the load harness warms up,
            # plus the baseline for the paper gap.
            for query in LOAD_TEST_QUERIES + (ANALYTIC_BASELINE,):
                status, data, _ = server.query(query)
                self.answers.append((query, status, data))
        except BaseException:
            server.close()
            raise
        return server, time.perf_counter() - start

    def measure_setup(self) -> Tuple[_Server, float]:
        """Boot ``SETUP_REPEATS`` servers; keep the last one running."""
        times = []
        server = None
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.close()
            server, seconds = self.boot()
            times.append(seconds)
        return server, median(times)

    # -- passes ---------------------------------------------------------------

    def one_pass(self, server: _Server) -> dict:
        items = [("analytic", q) for q in ANALYTIC_SET * REPEATS]
        items += [("warm", q) for q in WARM_SET * REPEATS]
        items += [("cold", next(self._cold)) for _ in range(PER_CLASS)]
        self.rng.shuffle(items)
        ref_before = host_ref_ms()
        latencies: List[Tuple[str, float]] = []
        start = time.perf_counter()
        for cls, query in items:
            status, data, seconds = server.query(query)
            latencies.append((cls, seconds))
            self.answers.append((query, status, data))
        wall = time.perf_counter() - start
        ref_after = host_ref_ms()
        print(
            f"pass wall_s={wall:.3f} host_ref_ms={ref_before:.2f}/{ref_after:.2f}",
            flush=True,
        )
        return {
            "wall_s": wall,
            #: (class, seconds) of every query, in the order sent.
            "latencies": latencies,
            "cold": [q for cls, q in items if cls == "cold"],
            "refs": [ref_before, ref_after],
        }

    def passes(self, server: _Server, seconds: float, minimum: int) -> List[dict]:
        start = time.perf_counter()
        out = []
        while len(out) < minimum or time.perf_counter() - start < seconds:
            out.append(self.one_pass(server))
        return out

    # -- checks and derived numbers ------------------------------------------

    def check_answers(self, result: Result) -> None:
        """Every reply must equal the local payload for its query."""
        from repro.runtime.executor import simulate_point
        from repro.serve.schema import parse_query, query_point, result_payload

        expected: Dict[str, dict] = {}
        for query, status, data in self.answers:
            key = _key(query)
            if key not in expected:
                parsed = parse_query(query)
                local = result_payload(
                    parsed, simulate_point(query_point(parsed))
                )
                expected[key] = json.loads(json.dumps(local))
            ok = status == 200 and json.loads(data) == expected[key]
            result.check(ok, f"served answer differs for {key} (HTTP {status})")

    def paper_gap(self) -> float:
        """Gap between Figure 9's headline and the improvements of the
        session's analytic answers on yolo/C2 (one layer, not a gmean)."""
        cycles = {}
        for query, _, data in self.answers:
            if query["engine"] == "analytic":
                key = (query["mode"], query["lhb_entries"])
                cycles[key] = json.loads(data)["cycles"]
        base = cycles[("baseline", 1024)]
        reproduced = {
            "gmean_1024-entry": base / cycles[("duplo", 1024)] - 1,
            "gmean_oracle": base / cycles[("duplo", None)] - 1,
        }
        return paper_gap_pts(reproduced, FIG9_PAPER)

    @staticmethod
    def cold_events(queries: List[dict]) -> int:
        from repro.conv.workloads import get_layer
        from repro.gpu.config import BASELINE_KERNEL, TITAN_V, SimulationOptions
        from repro.gpu.kernel import plan_sm_trace

        return sum(
            plan_sm_trace(
                get_layer(q["network"], q["layer"]), TITAN_V, BASELINE_KERNEL,
                SimulationOptions(max_ctas=q["max_ctas"]),
            ).event_count()
            for q in queries
        )

    @staticmethod
    def class_latencies(runs: List[dict]) -> Dict[str, float]:
        out = {}
        for cls in CLASSES:
            values = sorted(
                v for p in runs for c, v in p["latencies"] if c == cls
            )
            out[f"serve.{cls}_p50_ms"] = percentile(values, 0.50) * 1e3
            out[f"serve.{cls}_p90_ms"] = percentile(values, 0.90) * 1e3
            print(
                f"serve.{cls}: p50 {out[f'serve.{cls}_p50_ms']:.3f} ms, "
                f"p90 {out[f'serve.{cls}_p90_ms']:.3f} ms (n={len(values)})"
            )
        return out

    # -- runs -------------------------------------------------------------------

    def run(self, seconds: float, result: Result) -> None:
        server, setup_s = self.measure_setup()
        try:
            runs = self.passes(server, seconds, MIN_PASSES)
            rss = child_peak_rss_mb(server.proc.pid)
        finally:
            server.close()
        self.check_answers(result)
        self.class_latencies(runs)
        wall = median([p["wall_s"] for p in runs])
        events = self.cold_events([q for p in runs for q in p["cold"]])
        refs = [r for p in runs for r in p["refs"]]
        result.metric("setup_s", setup_s, f"median of {SETUP_REPEATS}")
        result.metric("wall_s", wall, f"median of {len(runs)} passes")
        result.metric("peak_rss_mb", rss, "server child")
        result.metric(
            "events_per_s", events / sum(p["wall_s"] for p in runs),
            f"{events} cold-query events",
        )
        result.metric("paper_gap_pts", self.paper_gap())
        report_host_ref(refs)

    def run_traced(self, seconds: float, result: Result) -> Dict[str, float]:
        from tracer import layer_metrics

        server, _ = self.boot()
        try:
            # The class latencies come from these untraced passes.
            plain = self.passes(server, seconds / 2, MIN_PASSES)
            status, data = server.request("GET", "/metrics")
            if status != 200:
                raise RuntimeError(f"/metrics answered {status}")
            counters = json.loads(data)["serve"]
        finally:
            server.close()

        server, _ = self.boot(traced=True)
        report = Path(server.proc.args[2])
        marker = Path(server.proc.args[3])
        try:
            # Drop the warm-up from the trace: the child resets its
            # tracer on SIGUSR1 and touches the marker when done.
            server.proc.send_signal(signal.SIGUSR1)
            deadline = time.perf_counter() + 30
            while not marker.exists():
                if time.perf_counter() > deadline:
                    raise RuntimeError("traced server did not reset")
                time.sleep(0.01)
            stored_before = tree_bytes(server.store)
            traced = self.passes(server, seconds / 2, 1)
            stored_after = tree_bytes(server.store)
        finally:
            server.close()
        snap = json.loads(report.read_text())
        self.check_answers(result)

        metrics = layer_metrics(snap, len(traced))
        metrics.update(self.class_latencies(plain))
        traced_wall = median([p["wall_s"] for p in traced])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_ratio"] = traced_wall / median(
            [p["wall_s"] for p in plain]
        )
        served = sum(v for k, v in snap["self_s"].items() if k != "unattributed")
        metrics["trace.unattributed_s"] = (
            sum(p["wall_s"] for p in traced) - served
        ) / len(traced)
        client = [v for p in traced for _, v in p["latencies"]]
        server_side = snap["samples"].get("serve.query_s", [])
        result.check(
            len(client) == len(server_side),
            f"{len(client)} client timings vs {len(server_side)} server timings",
        )
        gaps = sorted(c - s for c, s in zip(client, server_side))
        metrics["serve.transport_ms"] = percentile(gaps, 0.50) * 1e3
        metrics["serve.errors"] = counters["serve.errors"]
        metrics["serve.coalesced"] = counters["serve.coalesced"]
        metrics["store.bytes_written"] = (stored_after - stored_before) / len(
            traced
        )
        refs = [r for p in plain + traced for r in p["refs"]]
        metrics["host.ref_ms"] = median(refs)
        report_host_ref(refs)
        print(
            f"serve.transport_ms median {metrics['serve.transport_ms']:.3f} "
            f"(n={len(gaps)}), server-side query p50 "
            f"{percentile(sorted(server_side), 0.5) * 1e3:.3f} ms"
        )
        return metrics
