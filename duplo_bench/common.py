"""Shared helpers: repo discovery, host reference, percentiles, output.

Nothing here imports ``repro`` at module level, so the host reference
timer measures the machine and not the program.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores and logs, inside the checkout.
WORK_ROOT = ROOT / ".bench_work"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def use_checkout_sources() -> None:
    """Put this checkout's ``src`` first on the import path.

    The program's own ``REPRO_*`` knobs are dropped from the
    environment, so a caller's settings cannot change what is measured.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def child_env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def make_workdir() -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run{os.getpid()}-", dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# ----------------------------------------------------------------------
# Host drift reference
# ----------------------------------------------------------------------

_REF_KEYS = np.random.default_rng(20201017).random(200_000)


def host_ref_ms() -> float:
    """A fixed pure-Python loop plus a NumPy sort, in milliseconds.

    It shares no code with the program, so when it drifts together
    with a pass time, the host got slower rather than the program.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc + i * i) & 0xFFFF
    np.sort(_REF_KEYS, kind="quicksort")
    return (time.perf_counter() - start) * 1e3


def report_host_ref(refs: Sequence[float]) -> None:
    print(
        f"host.ref_ms median {median(refs):.3f} min {min(refs):.3f} "
        f"max {max(refs):.3f} (n={len(refs)})"
    )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p * len(sorted_values)))
    return float(sorted_values[rank - 1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """VmHWM of a live child process, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop_process(proc: subprocess.Popen) -> None:
    """Interrupt a child, wait for it, and kill it if it will not stop."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

class Result:
    """Answer-check tallies and metrics of one benchmark run."""

    def __init__(self, units: Dict[str, str]) -> None:
        #: metric name -> unit, for the metrics this run must report.
        self.units = units
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, dict] = {}
        self.notes: List[str] = []

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        """Count ``weight`` answers; all of them fail when ``ok`` is false."""
        self.attempted += weight
        if not ok:
            self.failed += weight
            print(f"CHECK FAILED: {what}", file=sys.stderr, flush=True)

    def metric(self, name: str, value: float, note: str = "") -> None:
        unit = self.units[name]
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.notes.append(
            f"{name:34s} {value:16.6f} {unit:6s} {note}".rstrip()
        )

    def emit(self) -> None:
        missing = sorted(set(self.units) - set(self.metrics))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        for line in self.notes:
            print(line)
        print(
            json.dumps(
                {
                    "correct": self.failed == 0 and self.attempted > 0,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": self.metrics,
                }
            ),
            flush=True,
        )
