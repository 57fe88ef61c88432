"""Unit tests: the risk-prioritized, coalescing event queue."""

from dataclasses import dataclass

import numpy as np

from repro.core.selector import NodeStatus
from repro.core.system import EventKind, ValidationEvent
from repro.service import EventQueue, QueuedEvent


@dataclass(frozen=True)
class FakeNode:
    node_id: str


def make_event(node_ids, kind=EventKind.JOB_ALLOCATION, duration=24.0,
               node=FakeNode):
    nodes = tuple(node(n) for n in node_ids)
    statuses = tuple(
        NodeStatus(node_id=n, covariates=np.zeros(3)) for n in node_ids)
    return ValidationEvent(kind=kind, nodes=nodes, statuses=statuses,
                           duration_hours=duration)


class TestPriorityOrdering:
    def test_highest_priority_pops_first(self):
        queue = EventQueue()
        queue.push(make_event(["a"]), 0.1)
        queue.push(make_event(["b"]), 0.9)
        queue.push(make_event(["c"]), 0.5)
        order = [queue.pop().event.nodes[0].node_id for _ in range(3)]
        assert order == ["b", "c", "a"]
        assert queue.pop() is None

    def test_fifo_within_equal_priority(self):
        queue = EventQueue()
        for name in ("a", "b", "c"):
            queue.push(make_event([name]), 0.5)
        order = [queue.pop().event.nodes[0].node_id for _ in range(3)]
        assert order == ["a", "b", "c"]

    def test_pending_is_pop_order_without_consuming(self):
        queue = EventQueue()
        queue.push(make_event(["a"]), 0.2)
        queue.push(make_event(["b"]), 0.8)
        assert [e.priority for e in queue.pending()] == [0.8, 0.2]
        assert len(queue) == 2


class TestCoalescing:
    def test_same_kind_and_nodeset_coalesces(self):
        queue = EventQueue()
        first, created = queue.push(make_event(["a", "b"]), 0.3)
        second, created2 = queue.push(make_event(["b", "a"]), 0.2)
        assert created and not created2
        assert second is first
        assert len(queue) == 1
        assert first.coalesced == 1
        assert queue.coalesced_total == 1

    def test_different_kind_does_not_coalesce(self):
        queue = EventQueue()
        queue.push(make_event(["a"]), 0.3)
        queue.push(make_event(["a"], kind=EventKind.PERIODIC), 0.3)
        assert len(queue) == 2

    def test_coalescing_keeps_max_priority_and_duration(self):
        queue = EventQueue()
        entry, _ = queue.push(make_event(["a"], duration=12.0), 0.3)
        queue.push(make_event(["a"], duration=48.0), 0.1)
        assert entry.priority == 0.3
        assert entry.event.duration_hours == 48.0
        queue.push(make_event(["a"], duration=6.0), 0.7)
        assert entry.priority == 0.7
        assert entry.event.duration_hours == 48.0

    def test_priority_raise_reorders_queue(self):
        queue = EventQueue()
        queue.push(make_event(["low"]), 0.2)
        queue.push(make_event(["high"]), 0.5)
        # Coalesced duplicate raises "low" above "high".
        queue.push(make_event(["low"]), 0.9)
        popped = [queue.pop().event.nodes[0].node_id for _ in range(2)]
        assert popped == ["low", "high"]
        # The stale heap tuple for "low" must not pop a second copy.
        assert queue.pop() is None

    def test_popped_entry_no_longer_coalesces(self):
        queue = EventQueue()
        queue.push(make_event(["a"]), 0.3)
        queue.pop()
        _, created = queue.push(make_event(["a"]), 0.3)
        assert created
        assert len(queue) == 1


class TestEventIds:
    def test_ids_are_monotonic(self):
        queue = EventQueue()
        first, _ = queue.push(make_event(["a"]), 0.1)
        second, _ = queue.push(make_event(["b"]), 0.1)
        assert second.event_id > first.event_id

    def test_reserve_ids_skips_past_journaled_ids(self):
        queue = EventQueue()
        queue.push(make_event(["a"]), 0.1, event_id=7)
        queue.reserve_ids(7)
        entry, _ = queue.push(make_event(["b"]), 0.1)
        assert entry.event_id == 8

    def test_last_event_id_tracks_high_water_mark(self):
        queue = EventQueue()
        queue.push(make_event(["a"]), 0.1)
        queue.push(make_event(["b"]), 0.1)
        assert queue.last_event_id == 2
        queue.reserve_ids(9)
        assert queue.last_event_id == 9
        entry, _ = queue.push(make_event(["c"]), 0.1)
        assert entry.event_id == 10 and queue.last_event_id == 10


class TestRequeueAndRemove:
    def test_requeue_keeps_identity_and_attempts(self):
        queue = EventQueue()
        entry, _ = queue.push(make_event(["a"]), 0.6)
        popped = queue.pop()
        popped.attempts = 2
        queue.requeue(popped)
        again = queue.pop()
        assert again is popped
        assert again.event_id == entry.event_id and again.attempts == 2
        assert queue.pop() is None

    def test_requeue_merges_into_fresh_pending_duplicate(self):
        queue = EventQueue()
        queue.push(make_event(["a"]), 0.9)
        popped = queue.pop()
        popped.attempts = 2
        # A fresh duplicate was submitted while the entry was being
        # processed; the pending entry survives the merge.
        fresh, created = queue.push(make_event(["a"]), 0.3)
        assert created
        merged = queue.requeue(popped)
        assert merged is fresh
        assert merged.attempts == 2            # inherits the failures
        assert merged.priority == 0.9          # and the higher priority
        assert len(queue) == 1
        assert queue.pop() is fresh and queue.pop() is None

    def test_remove_withdraws_pending_entry(self):
        queue = EventQueue()
        entry, _ = queue.push(make_event(["a"]), 0.5)
        assert queue.remove(entry)
        assert len(queue) == 0
        assert queue.pop() is None             # stale heap tuple discarded
        assert not queue.remove(entry)         # already gone

    def test_removed_key_accepts_fresh_entry(self):
        queue = EventQueue()
        entry, _ = queue.push(make_event(["a"]), 0.5)
        queue.remove(entry)
        fresh, created = queue.push(make_event(["a"]), 0.5)
        assert created and fresh is not entry
        assert queue.pop() is fresh


class TestDeadLetters:
    def test_dead_letter_parks_popped_entry(self):
        queue = EventQueue()
        queue.push(make_event(["a"]), 0.5)
        entry = queue.pop()
        entry.attempts = 3
        letter = queue.dead_letter(entry, "ChaosError: poison")
        assert queue.dead_letters() == [letter]
        assert letter.event_id == entry.event_id
        assert letter.reason == "ChaosError: poison"
        assert len(queue) == 0 and queue.pop() is None

    def test_dead_letters_accumulate_in_order(self):
        queue = EventQueue()
        for name in ("a", "b"):
            queue.push(make_event([name]), 0.5)
            queue.dead_letter(queue.pop(), f"poison-{name}")
        assert [dl.reason for dl in queue.dead_letters()] == [
            "poison-a", "poison-b"]

    def test_dead_lettered_key_accepts_fresh_entry(self):
        queue = EventQueue()
        queue.push(make_event(["a"]), 0.5)
        queue.dead_letter(queue.pop(), "poison")
        fresh, created = queue.push(make_event(["a"]), 0.5)
        assert created
        assert queue.pop() is fresh


class TestEdgeCases:
    def test_empty_node_set_events_coalesce(self):
        queue = EventQueue()
        first, created = queue.push(make_event([], kind=EventKind.PERIODIC),
                                    0.2)
        second, created2 = queue.push(make_event([], kind=EventKind.PERIODIC),
                                      0.4)
        assert created and not created2
        assert second is first and first.priority == 0.4
        assert len(queue) == 1

    def test_duplicate_submit_pops_exactly_once(self):
        queue = EventQueue()
        queue.push(make_event(["a", "b"]), 0.5)
        _, created = queue.push(make_event(["a", "b"]), 0.5)
        assert not created
        assert queue.pop() is not None
        assert queue.pop() is None


class UnprintableNode:
    """What a real fleet node costs to print, taken to the limit:
    ``str()`` of one is a dataclass repr over its arrays."""

    def __init__(self, node_id: str):
        self.node_id = node_id

    def __repr__(self):
        raise AssertionError("the queue stringified a node")

    __str__ = __repr__


class TestCoalesceKey:
    def unprintable_event(self, node_ids):
        return make_event(node_ids, node=UnprintableNode)

    def test_no_queue_operation_stringifies_a_node(self):
        queue = EventQueue()
        first, _ = queue.push(self.unprintable_event(["a", "b"]), 0.3)
        merged, created = queue.push(self.unprintable_event(["b", "a"]), 0.6)
        assert merged is first and not created
        queue.push(self.unprintable_event(["c"]), 0.1)
        queue.push(self.unprintable_event(["d"]), 0.2)
        assert queue.peek() is first
        assert queue.pop() is first
        assert queue.requeue(first) is first
        assert queue.remove(first) and not queue.remove(first)
        assert queue.shed_lowest().event.nodes[0].node_id == "c"
        assert queue.pop().event.nodes[0].node_id == "d"
        assert queue.pop() is None

    def test_string_nodes_still_coalesce(self):
        queue = EventQueue()
        first, _ = queue.push(make_event(["n1", "n2"], node=str), 0.2)
        merged, created = queue.push(make_event(["n2", "n1"], node=str), 0.4)
        assert merged is first and not created
        other, created = queue.push(make_event(["n3"], node=str), 0.1)
        assert created and other is not first
        assert first.key == ("job-allocation", ("n1", "n2"))

    def test_key_is_set_once_and_survives_a_duration_merge(self):
        queue = EventQueue()
        entry, _ = queue.push(make_event(["b", "a"], duration=24.0), 0.3)
        key = entry.key
        assert key == ("job-allocation", ("a", "b"))
        queue.push(make_event(["a", "b"], duration=96.0), 0.3)
        assert entry.event.duration_hours == 96.0
        assert entry.key is key

    def test_from_payload_round_trips_the_key(self):
        queue = EventQueue()
        entry, _ = queue.push(make_event(["b", "a"]), 0.3, origin=(1, 4))
        payload = entry.to_payload()
        assert "key" not in payload         # journal bytes are unchanged
        index = {"a": FakeNode("a"), "b": FakeNode("b")}
        restored = QueuedEvent.from_payload(payload, index)
        assert restored.key == entry.key
        # ... and the restored entry is the same queue citizen.
        recovered = EventQueue()
        assert recovered.requeue(restored) is restored
        merged, created = recovered.push(make_event(["a", "b"]), 0.1)
        assert merged is restored and not created
