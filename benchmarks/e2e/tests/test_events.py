"""The event generator: seeded, stratified, standard library only."""

from collections import Counter

from workloads import WORKLOADS, events_to_bytes, generate_payloads


def stream(name, seed, count=400, **kwargs):
    return generate_payloads(WORKLOADS[name], seed, count,
                             n_covariates=1000, **kwargs)


def test_the_same_seed_gives_the_same_bytes():
    assert events_to_bytes(stream("steady-thread", 3)) == events_to_bytes(
        stream("steady-thread", 3))


def test_another_seed_gives_other_bytes():
    assert events_to_bytes(stream("steady-thread", 3)) != events_to_bytes(
        stream("steady-thread", 4))


def test_the_steady_pair_is_fed_byte_identical_events():
    thread, process = WORKLOADS["steady-thread"], WORKLOADS["steady-process"]
    assert (thread.events, thread.width, thread.mix, thread.nodes) == (
        process.events, process.width, process.mix, process.nodes)


def test_the_warm_up_stream_is_not_the_measured_one():
    assert events_to_bytes(stream("fleet-learn", 0)) != events_to_bytes(
        stream("fleet-learn", 0, stream="warmup"))


def test_every_seed_holds_exactly_the_mix_and_a_balanced_width_cycle():
    workload = WORKLOADS["fullsuite-thread"]
    for seed in range(3):
        payloads = stream("fullsuite-thread", seed, count=200)
        kinds = Counter(p["kind"] for p in payloads)
        assert kinds == {kind: round(share * 200)
                         for kind, share in workload.mix.items()}
        widths = Counter(len(p["nodes"]) for p in payloads)
        low, high = workload.width
        assert set(widths) == set(range(low, high + 1))
        assert max(widths.values()) - min(widths.values()) <= 1
        for payload in payloads:
            assert len(set(payload["nodes"])) == len(payload["nodes"])
            assert all(0 <= n < workload.nodes for n in payload["nodes"])
