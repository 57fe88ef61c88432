"""Explicit node state machine for the validation control plane.

The paper's deployment moves nodes through a fixed operational cycle:
healthy nodes are scheduled for validation, validated nodes either
return to the healthy pool or are quarantined, quarantined nodes go
through repair (hot-buffer swap or ticket) and return.  The seed
reproduction kept these states implicit -- scattered across
``simulation.cluster`` bookkeeping and ``core.system`` outcome lists.
:class:`NodeLifecycle` makes them first-class and *enforced*: only the
transitions in :data:`LEGAL_TRANSITIONS` are allowed.  The history is
the journal's, where the control plane records every transition.

Two escape hatches skip the legality check; neither is for live
operation.  :meth:`NodeLifecycle.restore` installs the states a restart
folds out of its journal (:class:`~repro.service.queue.JournalState`),
whatever records a write fault lost.  ``force=True`` applies one
transition whose *old* state is off the legal graph, for a fold that
walks journal transitions one by one across such a gap.

:class:`FlapDamper` adds flap damping on top of the state machine: a
node that keeps oscillating QUARANTINED -> ... -> HEALTHY ->
QUARANTINED is held in quarantine with an exponentially growing
hold-down before the repair pipeline will touch it again, so a
marginal node cannot churn through hot-buffer swaps tick after tick.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.exceptions import LifecycleError, ServiceError

__all__ = ["NodeState", "LEGAL_TRANSITIONS", "Transition", "NodeLifecycle",
           "FlapDamper"]


class NodeState(str, enum.Enum):
    """Where a node sits in the validation/repair cycle."""

    HEALTHY = "healthy"
    SCHEDULED = "scheduled"
    VALIDATING = "validating"
    QUARANTINED = "quarantined"
    IN_REPAIR = "in-repair"
    RETURNING = "returning"


#: The legal edges of the state machine::
#:
#:     HEALTHY -> SCHEDULED -> VALIDATING -> QUARANTINED -> IN_REPAIR
#:        ^           |            |                            |
#:        |           v            v                            v
#:        +------- (skip) ---- (passed) <------------------ RETURNING
#:
#: SCHEDULED -> HEALTHY covers events the Selector decided to skip;
#: RETURNING -> SCHEDULED covers re-validation of repaired nodes
#: before they rejoin the pool.
LEGAL_TRANSITIONS: dict[NodeState, frozenset[NodeState]] = {
    NodeState.HEALTHY: frozenset({NodeState.SCHEDULED}),
    NodeState.SCHEDULED: frozenset({NodeState.VALIDATING, NodeState.HEALTHY}),
    NodeState.VALIDATING: frozenset({NodeState.HEALTHY, NodeState.QUARANTINED}),
    NodeState.QUARANTINED: frozenset({NodeState.IN_REPAIR}),
    NodeState.IN_REPAIR: frozenset({NodeState.RETURNING}),
    NodeState.RETURNING: frozenset({NodeState.HEALTHY, NodeState.SCHEDULED}),
}


@dataclass(frozen=True)
class Transition:
    """One applied state change."""

    node_id: str
    old: NodeState
    new: NodeState
    reason: str = ""
    forced: bool = False


class NodeLifecycle:
    """Tracks and enforces per-node states.

    Nodes never seen before are :attr:`NodeState.HEALTHY`; the class
    therefore needs no up-front fleet registration and works for
    fleets that grow while the service runs.
    """

    def __init__(self):
        self._states: dict[str, NodeState] = {}
        #: Tracked nodes per state, maintained on every transition so
        #: the per-tick questions ("any repairs in flight?", "who is
        #: quarantined?") do not scan the fleet.
        self._counts: dict[NodeState, int] = dict.fromkeys(NodeState, 0)

    def state(self, node_id: str) -> NodeState:
        """Current state of one node (HEALTHY if never seen)."""
        return self._states.get(node_id, NodeState.HEALTHY)

    def transition(self, node_id: str, new: NodeState, *,
                   reason: str = "", force: bool = False) -> Transition:
        """Apply one state change, enforcing legality.

        ``force=True`` skips the legality check; it exists for a fold
        over journal transitions, where a lost record can leave a gap
        between the folded old state and the next journaled transition.
        The applied transition still records the actual old state and
        is marked ``forced``.
        """
        old = self.state(node_id)
        forced = False
        if new not in LEGAL_TRANSITIONS[old]:
            if not force:
                raise LifecycleError(
                    f"illegal transition {old.value} -> {new.value} "
                    f"for node {node_id!r}"
                    + (f" ({reason})" if reason else "")
                )
            forced = True
        applied = Transition(node_id=node_id, old=old, new=new,
                             reason=reason, forced=forced)
        if node_id in self._states:
            self._counts[old] -= 1
        self._counts[new] += 1
        self._states[node_id] = new
        return applied

    def restore(self, states: dict[str, NodeState]) -> None:
        """Install the states a journal fold gives (recovery).

        Nodes not in ``states`` are HEALTHY, as untracked nodes are.
        Replaces all tracked states without legality checks; only
        recovery may call this, before any live transition is applied.
        """
        self._states = {node_id: NodeState(state)
                        for node_id, state in states.items()}
        self._counts = dict.fromkeys(NodeState, 0)
        for state in self._states.values():
            self._counts[state] += 1

    def nodes_in(self, state: NodeState) -> list[str]:
        """Node ids currently in ``state``, in first-transition order.

        HEALTHY only lists nodes that have transitioned at least once
        (untouched nodes are implicitly healthy and unknown here).
        """
        if not self._counts[state]:
            return []
        return [n for n, s in self._states.items() if s is state]

    def any_in(self, states) -> bool:
        """Whether any node is in one of ``states`` (no fleet scan)."""
        return any(self._counts[state] for state in states)

    def counts(self) -> dict[str, int]:
        """State value -> number of known nodes in it."""
        return {state.value: count for state, count in self._counts.items()}

    def states(self) -> dict[str, NodeState]:
        """Snapshot of every explicitly-tracked node's state."""
        return dict(self._states)


class FlapDamper:
    """Exponential hold-down for nodes that flap through quarantine.

    Each time a node is quarantined its flap count rises and it is
    *held* in QUARANTINED for ``base * multiplier**(count - 1)`` ticks
    (capped at ``max_holddown_ticks``) before the repair pipeline may
    advance it.  The count is the node's quarantines on record, so a
    journal fold restores it exactly (:meth:`restore`).

    The damper counts *service ticks*, not wall-clock: the control
    plane calls :meth:`tick` once per service tick, keeping damping
    deterministic and replayable.
    """

    def __init__(self, *, base_holddown_ticks: int = 1,
                 multiplier: float = 2.0, max_holddown_ticks: int = 64):
        if base_holddown_ticks < 1:
            raise ServiceError("base_holddown_ticks must be at least 1")
        if multiplier < 1.0:
            raise ServiceError("flap multiplier must be at least 1")
        if max_holddown_ticks < base_holddown_ticks:
            raise ServiceError(
                "max_holddown_ticks must be at least base_holddown_ticks")
        self.base_holddown_ticks = int(base_holddown_ticks)
        self.multiplier = float(multiplier)
        self.max_holddown_ticks = int(max_holddown_ticks)
        self._flap_counts: dict[str, int] = {}
        self._holddowns: dict[str, int] = {}

    def holddown_for(self, count: int) -> int:
        """Hold-down length (ticks) for a node's ``count``-th flap."""
        raw = self.base_holddown_ticks * self.multiplier ** (count - 1)
        return min(int(math.ceil(raw)), self.max_holddown_ticks)

    def record_quarantine(self, node_id: str) -> int:
        """Register one quarantine; returns the armed hold-down."""
        count = self._flap_counts.get(node_id, 0) + 1
        self._flap_counts[node_id] = count
        holddown = self.holddown_for(count)
        self._holddowns[node_id] = holddown
        return holddown

    def tick(self) -> None:
        """Advance one service tick; hold-downs decay toward ready."""
        for node_id, remaining in list(self._holddowns.items()):
            if remaining > 0:
                self._holddowns[node_id] = remaining - 1

    def ready(self, node_id: str) -> bool:
        """May the repair pipeline advance this node out of quarantine?"""
        return self._holddowns.get(node_id, 0) <= 0

    def holddown_remaining(self, node_id: str) -> int:
        return self._holddowns.get(node_id, 0)

    def flap_count(self, node_id: str) -> int:
        return self._flap_counts.get(node_id, 0)

    def flap_counts(self) -> dict[str, int]:
        """Snapshot of all non-zero flap counts (for journaling)."""
        return {n: c for n, c in self._flap_counts.items() if c > 0}

    def arm(self, node_id: str) -> int:
        """Re-arm the hold-down from the current flap count.

        Recovery calls this for nodes still QUARANTINED after replay:
        the conservative choice is to serve the full hold-down again
        rather than guess how much of it elapsed before the crash.
        """
        holddown = self.holddown_for(max(self._flap_counts.get(node_id, 0), 1))
        self._holddowns[node_id] = holddown
        return holddown

    def release(self, node_id: str) -> None:
        """Clear any pending hold-down (node no longer quarantined)."""
        self._holddowns.pop(node_id, None)

    def restore(self, flap_counts: dict[str, int]) -> None:
        """Install the flap counts a journal fold gives."""
        self._flap_counts = {n: int(c) for n, c in flap_counts.items()}
