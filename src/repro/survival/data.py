"""Status-sample extraction from incident traces (paper §5.2).

The Cox-Time evaluation turns an incident trace into *node status
samples*: snapshots of a node's observable state (total up time, time
since the last incident, historical incident counts and per-category
MTBI) paired with the observed *time before next incident* (TBNI).
The paper extracts 46,808 such samples from its 4-month 1k-node trace;
this module does the same for ours.

Snapshots are taken at every incident resolution and on a periodic
grid between incidents, so nodes contribute samples across their whole
lifetime, not only immediately after failures.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.components import IncidentCategory
from repro.simulation.traces import IncidentTrace
from repro.survival.base import SurvivalDataset

__all__ = ["extract_status_samples", "STATUS_FEATURES"]

_CATEGORIES = tuple(c.value for c in IncidentCategory)
_CATEGORY_INDEX = {cat: index for index, cat in enumerate(_CATEGORIES)}

#: Feature schema of the extracted covariates, in column order.
STATUS_FEATURES: tuple[str, ...] = (
    "up_time",
    "time_since_last",
    "incident_count",
    *(f"count_{cat}" for cat in _CATEGORIES),
    *(f"mtbi_{cat}" for cat in _CATEGORIES),
)


def extract_status_samples(trace: IncidentTrace, *,
                           snapshot_interval_hours: float = 48.0,
                           include_censored: bool = True,
                           censored_tbni: str = "remaining") -> SurvivalDataset:
    """Build a :class:`SurvivalDataset` of status snapshots from a trace.

    Parameters
    ----------
    trace:
        The incident trace.
    snapshot_interval_hours:
        Spacing of the periodic snapshots taken between incidents (in
        addition to one snapshot right after each resolution).
    include_censored:
        Whether to keep snapshots whose next incident falls beyond the
        trace horizon (kept as right-censored rows).
    censored_tbni:
        How a censored row's TBNI is recorded: ``"remaining"`` stores
        the honest censoring time (observation to horizon; correct for
        model fitting), ``"horizon"`` stores the full trace length --
        the paper's Table 3 convention, where "no incident within the
        trace" counts as the 2,400-hour cap for the accuracy metric.

    Rows come node by node (in ``trace.node_ids`` order), each node's in
    time order.  An instant strictly inside one of the node's incidents
    is skipped (the node is down); so is a censored instant with
    ``include_censored=False`` or no time left before the horizon.  A
    row's ``up_time`` is the instant minus the summed durations of the
    incidents resolved by then (floored at 0), its per-category MTBI
    ``up_time / count`` (``up_time`` for a category never seen), and
    ``time_since_last`` runs from the latest resolution (from 0 before
    the first).  A trace that yields no row gives an empty dataset.

    Each node is one pass of array work over its incidents, grouped
    from ``trace.records`` once: a broadcast mask drops the instants
    inside an incident and ``searchsorted`` finds the next incident.
    Downtime is one ``np.sum`` per distinct resolved set, over that set
    in record order, so the output is bit for bit that of a
    per-snapshot loop.
    """
    if snapshot_interval_hours <= 0:
        raise ValueError("snapshot_interval_hours must be positive")
    if censored_tbni not in ("remaining", "horizon"):
        raise ValueError(f"unknown censored_tbni mode {censored_tbni!r}")

    attribute_names: tuple[str, ...] = ()
    if trace.node_attributes:
        keys = {k for attrs in trace.node_attributes.values() for k in attrs}
        attribute_names = tuple(sorted(keys))

    horizon = trace.horizon_hours
    grid = np.arange(0.0, horizon, snapshot_interval_hours)
    by_node: dict[str, list] = {}
    for record in trace.records:
        by_node.setdefault(record.node_id, []).append(record)

    blocks: list[np.ndarray] = []
    durations: list[np.ndarray] = []
    events: list[np.ndarray] = []
    for node_id in trace.node_ids:
        incidents = by_node.get(node_id, [])
        starts = np.array([r.start_hour for r in incidents], dtype=float)
        ends = np.array([r.end_hour for r in incidents], dtype=float)
        # Observation instants: trace start, periodic grid, and each
        # incident resolution.
        observe = np.union1d(grid, ends[ends < horizon])

        down = ((starts < observe[:, None])
                & (ends > observe[:, None])).any(axis=1)
        next_starts = np.append(np.sort(starts), np.inf)
        upcoming = np.searchsorted(next_starts, observe)
        observed = upcoming < starts.size
        keep = ~down & (observed | (include_censored
                                    & (horizon - observe > 0)))
        observe, upcoming, observed = (observe[keep], upcoming[keep],
                                       observed[keep])

        # Incidents resolved by each instant: a prefix of the
        # resolution order (ties enter together).
        order = np.argsort(ends)
        last_ends = np.append(0.0, ends[order])
        resolved = np.searchsorted(last_ends[1:], observe, side="right")
        lengths = ends - starts
        downtime = np.zeros(starts.size + 1)
        for count in np.unique(resolved[resolved > 0]):
            downtime[count] = np.sum(lengths[ends <= last_ends[count]])
        up_time = np.maximum(observe - downtime[resolved], 0.0)

        categories = np.array([_CATEGORY_INDEX.get(r.category, -1)
                               for r in incidents], dtype=int)
        hits = categories[order][:, None] == np.arange(len(_CATEGORIES))
        counts = np.vstack([np.zeros(len(_CATEGORIES)),
                            np.cumsum(hits, axis=0)])[resolved]
        mtbi = np.divide(up_time[:, None], counts,
                         out=np.repeat(up_time[:, None], len(_CATEGORIES),
                                       axis=1),
                         where=counts > 0)
        attrs = trace.node_attributes.get(node_id, {})
        attribute_row = [float(attrs.get(name, 0.0))
                         for name in attribute_names]
        blocks.append(np.column_stack([
            up_time, observe - last_ends[resolved], resolved.astype(float),
            counts, mtbi,
            np.broadcast_to(attribute_row, (observe.size,
                                            len(attribute_names)))]))

        censored = (horizon if censored_tbni == "horizon"
                    else horizon - observe)
        durations.append(np.where(observed, next_starts[upcoming] - observe,
                                  censored))
        events.append(observed.astype(float))

    width = len(STATUS_FEATURES) + len(attribute_names)
    return SurvivalDataset(
        covariates=np.concatenate(blocks or [np.empty((0, width))]),
        durations=np.concatenate(durations or [np.empty(0)]),
        events=np.concatenate(events or [np.empty(0)]),
        feature_names=STATUS_FEATURES + attribute_names,
    )
