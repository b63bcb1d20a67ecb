"""Engine-tier routing: analytic vs fast replay vs event replay.

One simulation request can be answered at three price points:

=========  =============  ==========================================
tier       cost           fidelity
=========  =============  ==========================================
analytic   O(1) / query   exact LHB counters, bounded-error traffic
fast       O(trace)       exact (bit-identical to the event path)
event      O(trace),      exact reference (per-event state machines)
           Python loop
=========  =============  ==========================================

:func:`route` is the one place that decides which tier answers a
``(kernel, options, mode, lhb_entries, lhb_assoc)`` request.  The
simulator, the sweep executor (prefilter, cache bypass, streaming,
pricing) and the query service's coalescing key all call it, so they
can never disagree.  ``SimulationOptions.engine`` is the only
selector; ``$REPRO_ENGINE`` overrides it only when the option is left
at ``"auto"`` — an explicit option always wins.  ``"auto"`` answers
on the fast tier; ``"analytic"`` answers on the analytic tier where
covered and falls back to the fast tier elsewhere, with the coverage
gap reported as :attr:`Route.reason`.

The simulator publishes the tier that answered as
``engine.selected.<tier>`` and every analytic → exact downgrade under
``analytic.fallback`` (plus an ``analytic.fallback.<reason>`` label),
so a covered configuration regressing to a slower tier shows up in
metrics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.gpu.config import KernelConfig, SimulationOptions
from repro.gpu.ldst import EliminationMode

#: Environment override consulted when ``options.engine == "auto"``:
#: set ``REPRO_ENGINE=analytic`` / ``fast`` / ``event`` to pin the
#: tier without rebuilding options objects (the CI analytic lane uses
#: exactly this).
ENGINE_ENV = "REPRO_ENGINE"

#: Tiers the environment override may request.
ENGINE_TIERS = ("analytic", "fast", "event")


@dataclass(frozen=True)
class Route:
    """The tier that answers a request.

    ``reason`` names the analytic coverage gap when ``analytic`` was
    requested but the request falls back to an exact tier (``None``
    otherwise).
    """

    tier: str
    reason: Optional[str] = None


def resolve_engine(options: SimulationOptions) -> str:
    """The requested tier: explicit option, else env, else ``"auto"``."""
    if options.engine != "auto":
        return options.engine
    env = os.environ.get(ENGINE_ENV, "").strip().lower()
    if env in ENGINE_TIERS:
        return env
    return "auto"


def analytic_gap(
    kernel: KernelConfig,
    options: SimulationOptions,
    mode: EliminationMode,
    lhb_entries: Optional[int],
    lhb_assoc: int,
) -> Optional[str]:
    """Why the analytic tier cannot answer (``None`` = covered).

    Coverage is the explicit-GEMM fragment-granularity stream with a
    fresh LHB whose set count is a power of two (or the oracle) —
    hashed and modular indexing both covered:

    * ``implicit-kernel`` — the implicit-GEMM stream stages through
      shared memory with cooperative input fetches the closed forms
      do not model;
    * ``instruction-granularity`` — the coarser LHB lookup ablation
      consults once per warp instruction, a different consult stream;
    * ``npo2-sets`` — the per-level reuse tables nest only along
      power-of-two set counts.
    """
    if kernel.implicit:
        return "implicit-kernel"
    if options.lhb_granularity != "fragment":
        return "instruction-granularity"
    if mode is EliminationMode.BASELINE or lhb_entries is None:
        return None
    num_sets = lhb_entries // max(lhb_assoc, 1)
    if num_sets <= 0 or num_sets & (num_sets - 1):
        return "npo2-sets"
    return None


def route(
    kernel: KernelConfig,
    options: SimulationOptions,
    mode: EliminationMode,
    lhb_entries: Optional[int],
    lhb_assoc: int,
) -> Route:
    """The tier that answers this request (pure: touches no metrics)."""
    engine = resolve_engine(options)
    if engine == "event":
        return Route("event")
    if engine == "analytic":
        reason = analytic_gap(kernel, options, mode, lhb_entries, lhb_assoc)
        if reason is None:
            return Route("analytic")
        return Route("fast", reason)
    return Route("fast")


def analytic_resolves(
    kernel: KernelConfig,
    options: SimulationOptions,
    mode: EliminationMode,
    lhb_entries: Optional[int],
    lhb_assoc: int,
) -> bool:
    """Would :func:`~repro.gpu.simulator.simulate_layer` answer this
    request analytically?

    Analytic answers are approximate, so they must neither be
    persisted under a key an exact tier would later read, nor be
    served from exact results cached earlier.
    """
    return route(kernel, options, mode, lhb_entries, lhb_assoc).tier == (
        "analytic"
    )


def count_fallback(reason: str) -> None:
    """Report one analytic → exact downgrade into the metrics registry."""
    obs.add("analytic.fallback")
    obs.add(f"analytic.fallback.{reason}")


def count_selected(tier: str) -> None:
    """Report which tier actually answered a simulation request."""
    obs.add(f"engine.selected.{tier}")
