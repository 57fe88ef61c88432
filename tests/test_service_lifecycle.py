"""Unit tests: the enforced node lifecycle state machine and the
flap damper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import LifecycleError, ServiceError
from repro.service import (
    LEGAL_TRANSITIONS,
    FlapDamper,
    NodeLifecycle,
    NodeState,
)


class TestNodeLifecycle:
    def test_unseen_nodes_are_healthy(self):
        lifecycle = NodeLifecycle()
        assert lifecycle.state("node-x") is NodeState.HEALTHY
        assert lifecycle.states() == {}

    def test_full_quarantine_cycle(self):
        lifecycle = NodeLifecycle()
        for state in (NodeState.SCHEDULED, NodeState.VALIDATING,
                      NodeState.QUARANTINED, NodeState.IN_REPAIR,
                      NodeState.RETURNING, NodeState.HEALTHY):
            lifecycle.transition("n1", state)
        assert lifecycle.state("n1") is NodeState.HEALTHY

    def test_skip_path(self):
        lifecycle = NodeLifecycle()
        lifecycle.transition("n1", NodeState.SCHEDULED)
        lifecycle.transition("n1", NodeState.HEALTHY, reason="selector-skip")
        assert lifecycle.state("n1") is NodeState.HEALTHY

    def test_returning_can_be_rescheduled(self):
        lifecycle = NodeLifecycle()
        for state in (NodeState.SCHEDULED, NodeState.VALIDATING,
                      NodeState.QUARANTINED, NodeState.IN_REPAIR,
                      NodeState.RETURNING):
            lifecycle.transition("n1", state)
        lifecycle.transition("n1", NodeState.SCHEDULED)
        assert lifecycle.state("n1") is NodeState.SCHEDULED

    @pytest.mark.parametrize("bad", [
        NodeState.VALIDATING,   # healthy cannot jump straight to validating
        NodeState.QUARANTINED,  # nor to quarantine
        NodeState.IN_REPAIR,
        NodeState.RETURNING,
    ])
    def test_illegal_from_healthy(self, bad):
        lifecycle = NodeLifecycle()
        with pytest.raises(LifecycleError):
            lifecycle.transition("n1", bad)

    def test_illegal_transition_does_not_mutate(self):
        lifecycle = NodeLifecycle()
        lifecycle.transition("n1", NodeState.SCHEDULED)
        with pytest.raises(LifecycleError):
            lifecycle.transition("n1", NodeState.IN_REPAIR)
        assert lifecycle.state("n1") is NodeState.SCHEDULED

    def test_counts_and_nodes_in(self):
        lifecycle = NodeLifecycle()
        lifecycle.transition("a", NodeState.SCHEDULED)
        lifecycle.transition("b", NodeState.SCHEDULED)
        lifecycle.transition("b", NodeState.VALIDATING)
        counts = lifecycle.counts()
        assert counts["scheduled"] == 1
        assert counts["validating"] == 1
        assert counts["healthy"] == 0  # untouched nodes are implicit
        assert lifecycle.nodes_in(NodeState.SCHEDULED) == ["a"]
        assert lifecycle.nodes_in(NodeState.VALIDATING) == ["b"]

    def test_legal_transitions_cover_every_state(self):
        assert set(LEGAL_TRANSITIONS) == set(NodeState)
        # Every state can eventually reach HEALTHY again.
        reachable = {NodeState.HEALTHY}
        frontier = [NodeState.HEALTHY]
        while frontier:
            state = frontier.pop()
            for src, targets in LEGAL_TRANSITIONS.items():
                if state in targets and src not in reachable:
                    reachable.add(src)
                    frontier.append(src)
        assert reachable == set(NodeState)

    def test_every_illegal_edge_raises(self):
        """Exhaustive sweep: every (state, state) pair outside the
        legal graph raises and leaves the node untouched."""
        for old in NodeState:
            for new in NodeState:
                if new in LEGAL_TRANSITIONS[old]:
                    continue
                lifecycle = NodeLifecycle()
                if old is not NodeState.HEALTHY:
                    lifecycle.transition("n", old, force=True)
                with pytest.raises(LifecycleError):
                    lifecycle.transition("n", new)
                assert lifecycle.state("n") is old

    def test_illegal_error_names_states_and_reason(self):
        lifecycle = NodeLifecycle()
        with pytest.raises(LifecycleError,
                           match="healthy -> in-repair.*why-not"):
            lifecycle.transition("n1", NodeState.IN_REPAIR, reason="why-not")

    def test_self_transition_is_illegal(self):
        lifecycle = NodeLifecycle()
        with pytest.raises(LifecycleError):
            lifecycle.transition("n1", NodeState.HEALTHY)


class TestForceAndRestore:
    def test_forced_transition_applies_and_is_marked(self):
        lifecycle = NodeLifecycle()
        applied = lifecycle.transition("n1", NodeState.QUARANTINED,
                                       force=True)
        assert applied.forced
        assert applied.old is NodeState.HEALTHY  # the actual old state
        assert lifecycle.state("n1") is NodeState.QUARANTINED

    def test_forced_legal_transition_is_not_marked(self):
        lifecycle = NodeLifecycle()
        applied = lifecycle.transition("n1", NodeState.SCHEDULED, force=True)
        assert not applied.forced

    def test_restore_installs_snapshot_without_transitions(self):
        lifecycle = NodeLifecycle()
        lifecycle.restore({"a": NodeState.QUARANTINED,
                           "b": NodeState.VALIDATING})
        assert lifecycle.state("a") is NodeState.QUARANTINED
        assert lifecycle.state("b") is NodeState.VALIDATING
        # Restored states are live: legality is enforced from them.
        lifecycle.transition("a", NodeState.IN_REPAIR)
        with pytest.raises(LifecycleError):
            lifecycle.transition("b", NodeState.IN_REPAIR)


_NODES = st.sampled_from(["a", "b", "c", "d", "e"])
_STATES = st.sampled_from(list(NodeState))
#: One step of a lifecycle's life: a transition attempt (legal ones
#: apply, illegal ones raise and must change nothing), a forced
#: transition, or a snapshot restore.
_STEPS = st.one_of(
    st.tuples(st.just("transition"), _NODES, _STATES),
    st.tuples(st.just("force"), _NODES, _STATES),
    st.tuples(st.just("restore"),
              st.dictionaries(_NODES, _STATES, max_size=5)),
)


class TestPerStateCounts:
    """The per-state counts answer ``any_in`` / ``nodes_in`` /
    ``counts`` without a fleet scan; a scan is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_STEPS, max_size=40))
    def test_counts_equal_a_recount(self, steps):
        lifecycle = NodeLifecycle()
        for step in steps:
            if step[0] == "restore":
                lifecycle.restore(step[1])
            else:
                try:
                    lifecycle.transition(step[1], step[2],
                                         force=step[0] == "force")
                except LifecycleError:
                    pass
            states = lifecycle.states()
            for state in NodeState:
                members = [n for n, s in states.items() if s is state]
                assert lifecycle.counts()[state.value] == len(members)
                assert lifecycle.nodes_in(state) == members
                assert lifecycle.any_in({state}) == bool(members)
            assert lifecycle.any_in(set()) is False

    def test_empty_states_are_answered_without_a_fleet_scan(self):
        class NoScan(dict):
            def items(self):
                raise AssertionError("scanned the fleet")

            values = items

        lifecycle = NodeLifecycle()
        for index in range(8):
            lifecycle.transition(f"n{index}", NodeState.SCHEDULED)
        lifecycle._states = NoScan(lifecycle._states)
        repair = {NodeState.QUARANTINED, NodeState.IN_REPAIR,
                  NodeState.RETURNING}
        assert not lifecycle.any_in(repair)
        assert lifecycle.any_in({NodeState.SCHEDULED})
        for state in repair:
            assert lifecycle.nodes_in(state) == []
        assert lifecycle.counts()["scheduled"] == 8


class TestFlapDamper:
    def test_holddown_grows_exponentially_and_caps(self):
        damper = FlapDamper(base_holddown_ticks=2, multiplier=2.0,
                            max_holddown_ticks=10)
        assert [damper.holddown_for(k) for k in (1, 2, 3, 4)] == [2, 4, 8, 10]

    def test_quarantines_arm_growing_holddowns(self):
        damper = FlapDamper(base_holddown_ticks=1, multiplier=2.0,
                            max_holddown_ticks=64)
        assert damper.record_quarantine("n") == 1
        assert damper.record_quarantine("n") == 2
        assert damper.record_quarantine("n") == 4
        assert damper.flap_count("n") == 3

    def test_ready_after_holddown_ticks(self):
        damper = FlapDamper(base_holddown_ticks=2, multiplier=2.0)
        damper.record_quarantine("n")
        assert not damper.ready("n")
        damper.tick()
        assert not damper.ready("n")
        damper.tick()
        assert damper.ready("n")

    def test_unknown_node_is_ready(self):
        assert FlapDamper().ready("never-seen")

    def test_arm_and_release(self):
        damper = FlapDamper(base_holddown_ticks=3, multiplier=2.0)
        damper.record_quarantine("n")
        damper.tick()
        damper.tick()
        assert damper.holddown_remaining("n") == 1
        assert damper.arm("n") == 3     # recovery re-arms in full
        assert damper.holddown_remaining("n") == 3
        damper.release("n")
        assert damper.ready("n")

    def test_arm_without_history_uses_first_flap(self):
        damper = FlapDamper(base_holddown_ticks=2, multiplier=2.0)
        assert damper.arm("n") == 2

    def test_snapshot_round_trip(self):
        damper = FlapDamper()
        damper.record_quarantine("a")
        damper.record_quarantine("a")
        damper.record_quarantine("b")
        restored = FlapDamper()
        restored.restore(damper.flap_counts())
        assert restored.flap_count("a") == 2
        assert restored.flap_count("b") == 1
        assert restored.flap_counts() == {"a": 2, "b": 1}

    @pytest.mark.parametrize("kwargs", [
        {"base_holddown_ticks": 0},
        {"multiplier": 0.5},
        {"base_holddown_ticks": 4, "max_holddown_ticks": 2},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            FlapDamper(**kwargs)
