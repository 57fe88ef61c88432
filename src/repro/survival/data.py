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

    The whole trace is one pass of array work.  Incidents are grouped
    by node once into padded (node x incident) matrices in record
    order, and the instants of every node are one ``lexsort`` by (node,
    time).  Each instant's row of its node's matrices then gives, by
    comparison, whether the node is down, the next incident, the
    incidents resolved and their per-category counts.  Downtime is one
    ``np.add.reduce`` per distinct (node, resolved set), over that set
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
    by_node: dict[str, list] = {}
    for record in trace.records:
        by_node.setdefault(record.node_id, []).append(record)
    groups = [by_node.get(node_id, []) for node_id in trace.node_ids]
    incidents = [record for group in groups for record in group]
    sizes = np.array([len(group) for group in groups], dtype=int)
    n_nodes, depth = sizes.size, int(sizes.max(initial=0))
    node = np.repeat(np.arange(n_nodes), sizes)
    column = np.arange(node.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    starts = np.array([r.start_hour for r in incidents], dtype=float)
    ends = np.array([r.end_hour for r in incidents], dtype=float)

    def padded(values, fill):
        matrix = np.full((n_nodes, depth), fill)
        matrix[node, column] = values
        return matrix

    # (node x incident) matrices in record order; a padded cell starts
    # and ends at +inf, so it is never down, upcoming or resolved.
    start_of, end_of = padded(starts, np.inf), padded(ends, np.inf)
    length_of = padded(ends - starts, 0.0)

    # Observation instants, node by node in time order: the periodic
    # grid and each incident resolution, duplicates dropped.
    grid = np.arange(0.0, horizon, snapshot_interval_hours)
    inside = ends < horizon
    at = np.concatenate([np.repeat(np.arange(n_nodes), grid.size),
                         node[inside]])
    observe = np.concatenate([np.tile(grid, n_nodes), ends[inside]])
    order = np.lexsort((observe, at))
    at, observe = at[order], observe[order]
    fresh = np.ones(at.size, dtype=bool)
    fresh[1:] = (at[1:] != at[:-1]) | (observe[1:] != observe[:-1])
    at, observe = at[fresh], observe[fresh]

    instant = observe[:, None]
    begun = start_of[at] < instant
    down = (begun & (end_of[at] > instant)).any(axis=1)
    upcoming = begun.sum(axis=1)
    observed = upcoming < sizes[at]
    keep = ~down & (observed | (include_censored & (horizon - observe > 0)))
    at, observe, upcoming, observed = (at[keep], observe[keep],
                                       upcoming[keep], observed[keep])

    # Incidents resolved by each instant: a prefix of the node's
    # resolution order (ties enter together).
    resolved = (end_of[at] <= observe[:, None]).sum(axis=1)
    by_end = np.argsort(end_of, axis=1)
    last_ends = np.hstack([np.zeros((n_nodes, 1)),
                           np.take_along_axis(end_of, by_end, axis=1)])
    categories = padded([_CATEGORY_INDEX.get(r.category, -1)
                         for r in incidents], -1)
    hits = (np.take_along_axis(categories, by_end, axis=1)[:, :, None]
            == np.arange(len(_CATEGORIES)))
    counts = np.concatenate([np.zeros((n_nodes, 1, len(_CATEGORIES))),
                             np.cumsum(hits, axis=1)], axis=1)[at, resolved]

    # Downtime: one sum per distinct (node, resolved count), over that
    # resolved set in record order.
    pairs, slot = np.unique(at * (depth + 1) + resolved, return_inverse=True)
    downtime = np.zeros(pairs.size)
    for index, pair in enumerate(pairs.tolist()):
        row, count = divmod(pair, depth + 1)
        if count:
            downtime[index] = np.add.reduce(
                length_of[row][end_of[row] <= last_ends[row, count]])
    up_time = np.maximum(observe - downtime[slot], 0.0)

    mtbi = np.divide(up_time[:, None], counts,
                     out=np.repeat(up_time[:, None], len(_CATEGORIES), axis=1),
                     where=counts > 0)
    attribute_rows = np.array(
        [[float(trace.node_attributes.get(node_id, {}).get(name, 0.0))
          for name in attribute_names] for node_id in trace.node_ids],
        dtype=float).reshape(n_nodes, len(attribute_names))
    covariates = np.column_stack([
        up_time, observe - last_ends[at, resolved], resolved.astype(float),
        counts, mtbi, attribute_rows[at]])

    next_starts = np.hstack([np.sort(start_of, axis=1),
                             np.full((n_nodes, 1), np.inf)])
    censored = horizon if censored_tbni == "horizon" else horizon - observe
    return SurvivalDataset(
        covariates=covariates,
        durations=np.where(observed, next_starts[at, upcoming] - observe,
                           censored),
        events=observed.astype(float),
        feature_names=STATUS_FEATURES + attribute_names,
    )
