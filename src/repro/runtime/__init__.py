"""Parallel experiment runtime: executor + persistent artifact cache.

Public surface:

* :class:`SweepExecutor` — fans (layer, configuration) sweep points
  across workers with layer-affine chunking, an adaptive serial/
  parallel cutover, and per-chunk venue selection (:data:`BACKENDS`).
* :class:`SimPoint` / :func:`simulate_point` — the unit of sweep work
  and its get-or-compute entry point.
* :class:`DiskCache` / :func:`open_cache` / :func:`default_cache_dir`
  — the content-addressed on-disk store under ``results/cache/``.
* :func:`trace_key` / :func:`result_key` / :data:`CACHE_SALT` —
  stable content hashes and the code-version salt.
"""

from repro.runtime.cachekey import (
    CACHE_SALT,
    result_key,
    trace_key,
)
from repro.runtime.executor import (
    BACKENDS,
    SimPoint,
    SweepExecutor,
    simulate_point,
)
from repro.runtime.store import (
    CACHE_DIR_ENV,
    CacheStats,
    DiskCache,
    default_cache_dir,
    open_cache,
)

__all__ = [
    "BACKENDS",
    "CACHE_SALT",
    "CACHE_DIR_ENV",
    "CacheStats",
    "DiskCache",
    "SimPoint",
    "SweepExecutor",
    "default_cache_dir",
    "open_cache",
    "result_key",
    "simulate_point",
    "trace_key",
]
