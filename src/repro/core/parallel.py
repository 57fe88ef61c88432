"""Process fan-out helpers and the ``REPRO_WORKERS`` knob.

Criteria learning is embarrassingly parallel across (sku, benchmark, metric)
tasks, and its width is a deployment decision, not a code change.  The
service pool's width is not read from here: its callers set
:attr:`~repro.service.pool.PoolConfig.max_workers`.

* ``resolve_workers(None)`` -> the ``REPRO_WORKERS`` environment
  variable when set, else the caller's default (1 for learning, so the
  single-machine behavior is unchanged unless asked for).
* :func:`process_map` -> an ordered map over a
  :class:`~concurrent.futures.ProcessPoolExecutor`, degrading to an
  inline loop when one worker (or one item) makes processes pure
  overhead.

Workers are *processes* because the kernels hold the GIL for their
whole numpy/C call; threads would serialize right back.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from repro.exceptions import ServiceError

__all__ = ["resolve_workers", "process_map"]

_ENV_VAR = "REPRO_WORKERS"


def resolve_workers(explicit: int | None = None, *, default: int = 1) -> int:
    """Worker count from an explicit value, ``REPRO_WORKERS``, or default.

    Precedence: an explicit argument wins, then the environment
    variable, then ``default``.  The result is always at least 1;
    a malformed environment value raises (silently running serial
    would mask a deployment typo).
    """
    if explicit is not None:
        if explicit < 1:
            raise ServiceError(f"worker count must be at least 1, got {explicit}")
        return int(explicit)
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return max(1, int(default))
    try:
        value = int(raw)
    except ValueError:
        raise ServiceError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ServiceError(f"{_ENV_VAR} must be at least 1, got {value}")
    return value


def process_map(fn, items, *, workers: int | None = None) -> list:
    """``[fn(item) for item in items]`` across worker processes, in order.

    ``fn`` and every item must be picklable.  With one worker, one
    item, or an empty input the map runs inline -- same results, no
    process churn.  Exceptions propagate to the caller exactly as the
    inline loop would raise them.
    """
    items = list(items)
    count = resolve_workers(workers)
    if count <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(count, len(items))) as pool:
        return list(pool.map(fn, items))
