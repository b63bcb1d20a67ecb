"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 duplo_bench/run.py --workload geometry_sweep --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``
measured with no instrumentation; ``--trace 1`` prints its per-layer
metrics from a traced pass.  The last stdout line is the JSON result;
the lines before it repeat each metric with its unit and sample
count.  See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, MissingProgram, Result, make_workdir, remove_workdir
from common import use_checkout_sources

WORKLOADS = ("geometry_sweep", "network_pass", "serve_session")


def _metric_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def _workload(name: str, seed: int, workdir):
    if name == "serve_session":
        from serve_session import ServeSession

        return ServeSession(seed, workdir)
    from sweeps import GeometrySweep, NetworkPass

    cls = GeometrySweep if name == "geometry_sweep" else NetworkPass
    return cls(seed, workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        use_checkout_sources()
    except MissingProgram as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2

    result = Result(_metric_units(bool(args.trace)))
    workdir = make_workdir()
    try:
        workload = _workload(args.workload, args.seed, workdir)
        if args.trace:
            measured = workload.run_traced(args.seconds, result)
            for name in result.units:
                # Layers this workload never enters report zero.
                result.metric(name, measured.get(name, 0.0))
        else:
            workload.run(args.seconds, result)
    finally:
        remove_workdir(workdir)
    result.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
