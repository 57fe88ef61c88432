"""Deterministic fault injection for the validation control plane.

The paper's central claim is that proactive validation catches the
failures reactive monitoring misses (§3.4 counts crashes and hangs as
defects in their own right).  That claim obligates the validator to
survive the same failure modes itself -- so this module turns the
control plane's own machinery against it, deterministically:

* **executor faults** -- benchmark executions crash or hang
  (:class:`ChaosRunner` wraps the Validator's runner);
* **journal write faults** -- ``append`` raises
  :class:`~repro.exceptions.JournalError`
  (:class:`ChaosJournalStore` wraps the service's store);
* **simulated process kills** -- ``append`` raises
  :class:`SimulatedKill` *instead of writing*, modelling ``kill -9``
  between any two journal records.  ``SimulatedKill`` subclasses
  ``BaseException`` so no ``except Exception`` handler in the service
  can accidentally "survive" its own death;
* **poison events and tick faults** -- the service's ``tick_hook``
  raises before processing;
* **repair faults** -- the service's ``repair_hook`` raises before a
  lifecycle advance.

Everything is driven by a :class:`ChaosPlan`: a frozen, seeded
description of *what* to inject at *which* rate.  Every probabilistic
draw uses a keyed RNG -- ``SeedSequence((seed, crc32(part), ...))``
over the identity of the decision point (node, benchmark, call index,
append counter, ...) -- the same idiom
:class:`~repro.benchsuite.runner.SuiteRunner` uses for measurement
noise.  Two runs with the same plan therefore inject the *same*
faults at the *same* points regardless of thread scheduling, so a
chaos soak is replayable and its assertions can be exact.

Usage::

    plan = ChaosPlan(seed=7, executor_crash_rate=0.05,
                     journal_error_rate=0.02)
    monkey = install_chaos(service, plan)
    try:
        ...drive the service...
    finally:
        monkey.uninstall()

``monkey.injections`` counts what actually fired, keyed by fault
kind, so tests can assert the storm really happened.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.system import ValidationEvent
from repro.exceptions import ChaosError, JournalError, ServiceError

__all__ = ["SimulatedKill", "ShardCrash", "ChaosPlan", "ChaosRunner",
           "ChaosJournalStore", "ChaosMonkey", "install_chaos", "poison_key",
           "ShardChaosPlan", "ShardChaosJournalStore", "ShardChaosMonkey",
           "install_shard_chaos", "ProcessChaosPlan"]


class SimulatedKill(BaseException):
    """A simulated ``kill -9`` of the service process.

    Deliberately a ``BaseException`` (like ``SystemExit``), *not* a
    :class:`~repro.exceptions.ReproError`: the control plane's
    failure-containment handlers catch ``Exception``, and a process
    kill is precisely the failure no handler gets to contain.  Tests
    catch it at the top level and model the "restart" by building a
    fresh service over the same journal directory.
    """


class ShardCrash(SimulatedKill):
    """A simulated crash of ONE shard's control plane.

    Same semantics as :class:`SimulatedKill` -- no handler inside the
    shard's service may contain it -- but the
    :class:`~repro.service.supervisor.ShardSupervisor` catches it at
    the shard boundary, exactly as a real supervisor observes one
    worker process dying while itself surviving.  A plain
    ``SimulatedKill`` still passes through the supervisor untouched:
    that one models the whole process (supervisor included) dying.
    """


def poison_key(event: ValidationEvent) -> tuple:
    """The identity under which chaos recognises an event.

    Matches the queue's coalescing key -- (kind value, sorted node
    ids) -- rather than the event id, because a submit rolled back by
    an injected journal fault and then retried is assigned a *new* id;
    the logical event is the same.
    """
    return (event.kind.value,
            tuple(sorted(node.node_id for node in event.nodes)))


def _entropy(parts) -> list[int]:
    return [part if isinstance(part, int) else zlib.crc32(str(part).encode())
            for part in parts]


@dataclass(frozen=True)
class ChaosPlan:
    """What to inject, at which rate, under which seed.

    All rates are probabilities in [0, 1] drawn from a keyed RNG, so
    the same plan injects identically across runs.  Deterministic
    (non-probabilistic) faults:

    * ``kill_after_appends=N`` kills the process on the (N+1)-th
      journal append of this incarnation -- drive N over every value
      up to the uninterrupted run's append count and you have tested a
      crash between *every* pair of journal records;
    * ``poison_event_keys`` always fail in the tick hook (until the
      service dead-letters them);
    * ``broken_benchmarks`` crash their first
      ``broken_benchmark_crashes`` executions, then heal -- the exact
      shape circuit breakers exist for (harness regression, then a
      fixed image).
    """

    seed: int
    executor_crash_rate: float = 0.0
    executor_hang_rate: float = 0.0
    hang_seconds: float = 1.0
    journal_error_rate: float = 0.0
    kill_rate: float = 0.0
    kill_after_appends: int | None = None
    repair_failure_rate: float = 0.0
    tick_error_rate: float = 0.0
    poison_event_keys: frozenset = frozenset()
    broken_benchmarks: frozenset = frozenset()
    broken_benchmark_crashes: int = 0
    fault_nodes: frozenset | None = None

    def __post_init__(self):
        for name in ("executor_crash_rate", "executor_hang_rate",
                     "journal_error_rate", "kill_rate",
                     "repair_failure_rate", "tick_error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ServiceError(f"{name} must be in [0, 1], got {rate}")
        if self.hang_seconds < 0:
            raise ServiceError("hang_seconds must be non-negative")
        if self.kill_after_appends is not None and self.kill_after_appends < 0:
            raise ServiceError("kill_after_appends must be non-negative")
        if self.broken_benchmark_crashes < 0:
            raise ServiceError("broken_benchmark_crashes must be non-negative")

    def chance(self, rate: float, *key) -> bool:
        """One keyed Bernoulli draw: does the fault at ``key`` fire?

        ``key`` identifies the decision point (fault kind plus node /
        benchmark / counter parts); equal keys always draw the same
        answer for the same plan.
        """
        if rate <= 0.0:
            return False
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, *_entropy(key))))
        return bool(rng.random() < rate)


class ChaosRunner:
    """Delegating runner wrapper that injects executor faults.

    Crash and hang draws are keyed by (node, benchmark, per-cell call
    index), so retries of the same cell re-draw independently but
    deterministically, and thread scheduling cannot change which calls
    fault.  ``broken_benchmarks`` crash unconditionally for their
    first ``broken_benchmark_crashes`` executions (counted
    per-benchmark across the wrapper's lifetime), then heal.

    Everything except :meth:`run` passes through to the wrapped
    runner, so the Validator's policy helpers keep working.
    """

    def __init__(self, runner, plan: ChaosPlan, monkey: "ChaosMonkey"):
        self._runner = runner
        self.plan = plan
        self._monkey = monkey
        self._lock = threading.Lock()
        self._cell_calls: Counter = Counter()
        self._broken_crashes: Counter = Counter()

    def run(self, spec, node):
        plan = self.plan
        with self._lock:
            if (spec.name in plan.broken_benchmarks
                    and self._broken_crashes[spec.name]
                    < plan.broken_benchmark_crashes):
                self._broken_crashes[spec.name] += 1
                self._monkey.count("broken_benchmark_crash")
                raise ChaosError(
                    f"injected harness regression in benchmark {spec.name!r}")
            call = self._cell_calls[(node.node_id, spec.name)]
            self._cell_calls[(node.node_id, spec.name)] += 1
        if plan.fault_nodes is None or node.node_id in plan.fault_nodes:
            if plan.chance(plan.executor_crash_rate, "executor-crash",
                           node.node_id, spec.name, call):
                self._monkey.count("executor_crash")
                raise ChaosError(
                    f"injected executor crash: {spec.name} on {node.node_id}")
            if plan.chance(plan.executor_hang_rate, "executor-hang",
                           node.node_id, spec.name, call):
                self._monkey.count("executor_hang")
                # A hang is a sleep well past the pool's benchmark
                # timeout; the pool abandons the node's task (Python
                # threads cannot be killed) and this thread finishes
                # late into it, recording nothing.  It must fail rather
                # than run:
                # a late execution through the wrapped runner would
                # race later sweeps of the same cell for its repeat
                # counter and perturb the keyed measurement stream.
                time.sleep(plan.hang_seconds)
                raise ChaosError(
                    f"injected executor hang: {spec.name} on {node.node_id}")
        return self._runner.run(spec, node)

    def __getattr__(self, name):
        return getattr(self._runner, name)


class ChaosJournalStore:
    """Delegating journal wrapper injecting write faults and kills.

    Both are decided *before* the underlying write, per this
    incarnation's append counter: a :class:`SimulatedKill` models the
    process dying between two durable records, an injected
    :class:`~repro.exceptions.JournalError` models a full disk or I/O
    error the process survives.  Replay, rewrite and every attribute
    besides :meth:`append` pass through untouched.
    """

    def __init__(self, store, plan: ChaosPlan, monkey: "ChaosMonkey"):
        self._store = store
        self.plan = plan
        self._monkey = monkey
        self.appends = 0

    def append(self, kind: str, payload: dict, *, fsync=None) -> int:
        self.appends += 1
        count = self.appends
        plan = self.plan
        if (plan.kill_after_appends is not None
                and count > plan.kill_after_appends):
            self._monkey.count("kill")
            raise SimulatedKill(
                f"simulated process kill before journal append #{count}")
        if plan.chance(plan.kill_rate, "kill", count):
            self._monkey.count("kill")
            raise SimulatedKill(
                f"simulated process kill before journal append #{count}")
        if plan.chance(plan.journal_error_rate, "journal-error", count, kind):
            self._monkey.count("journal_error")
            raise JournalError(
                f"injected journal write fault (append #{count}, "
                f"kind {kind!r})")
        return self._store.append(kind, payload, fsync=fsync)

    def __getattr__(self, name):
        return getattr(self._store, name)


class ChaosMonkey:
    """One installed chaos plan: the hooks, wrappers and tally.

    ``injections`` counts every fault that actually fired, keyed by
    kind (``executor_crash``, ``executor_hang``, ``journal_error``,
    ``kill``, ``poison_tick``, ``tick_error``, ``repair_failure``,
    ``broken_benchmark_crash``) -- the evidence a soak test needs that
    its storm was real.
    """

    def __init__(self, service, plan: ChaosPlan):
        self.service = service
        self.plan = plan
        self.injections: Counter = Counter()
        self._lock = threading.Lock()
        self._repair_calls: Counter = Counter()
        self._original_runner = None
        self._original_store = None
        self._installed = False

    def count(self, kind: str) -> None:
        with self._lock:
            self.injections[kind] += 1

    # -- hooks wired into the service ----------------------------------
    def tick_hook(self, entry) -> None:
        key = poison_key(entry.event)
        if key in self.plan.poison_event_keys:
            self.count("poison_tick")
            raise ChaosError(
                f"injected poison event {key[0]} on nodes {list(key[1])}")
        if self.plan.chance(self.plan.tick_error_rate, "tick-error",
                            key[0], *key[1], entry.attempts):
            self.count("tick_error")
            raise ChaosError(
                f"injected tick fault for event {entry.event_id} "
                f"(attempt {entry.attempts + 1})")

    def repair_hook(self, node_id: str, target) -> None:
        with self._lock:
            attempt = self._repair_calls[(node_id, target.value)]
            self._repair_calls[(node_id, target.value)] += 1
        if self.plan.chance(self.plan.repair_failure_rate, "repair",
                            node_id, target.value, attempt):
            self.count("repair_failure")
            raise ChaosError(
                f"injected repair failure: {node_id} -> {target.value}")

    # -- install / uninstall -------------------------------------------
    def install(self) -> "ChaosMonkey":
        if self._installed:
            return self
        validator = self.service.anubis.validator
        self._original_runner = validator.runner
        validator.runner = ChaosRunner(validator.runner, self.plan, self)
        if self.service.store is not None:
            self._original_store = self.service.store
            self.service.store = ChaosJournalStore(
                self.service.store, self.plan, self)
        self.service.tick_hook = self.tick_hook
        self.service.repair_hook = self.repair_hook
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore the service's collaborators (idempotent)."""
        if not self._installed:
            return
        self.service.anubis.validator.runner = self._original_runner
        if self._original_store is not None:
            self.service.store = self._original_store
        self.service.tick_hook = None
        self.service.repair_hook = None
        self._installed = False


def install_chaos(service, plan: ChaosPlan) -> ChaosMonkey:
    """Wrap ``service``'s collaborators per ``plan``; returns the
    installed :class:`ChaosMonkey` (call :meth:`ChaosMonkey.uninstall`
    to restore)."""
    return ChaosMonkey(service, plan).install()


# ----------------------------------------------------------------------
# Shard-level chaos (against the supervised shard fabric)
# ----------------------------------------------------------------------

#: Record kinds whose journal lines shard chaos may corrupt.  All are
#: observability or replay-redundant records: losing one costs at most
#: an at-least-once re-run, never an event -- so a chaos soak can keep
#: its event-accounting assertions *exact* while still proving that
#: recovery skips corrupted lines.  ``event-enqueued`` and the
#: snapshot kinds are deliberately excluded: corrupting those would
#: genuinely lose state, which is a different (and non-assertable)
#: failure class.
_CORRUPTIBLE_KINDS = ("shard-heartbeat", "pipeline-stats",
                      "breaker-transition", "batch-provenance",
                      "event-completed")


@dataclass(frozen=True)
class ShardChaosPlan:
    """Shard-fabric faults, seeded and keyed like :class:`ChaosPlan`.

    All rates are per-decision-point probabilities in [0, 1]:

    * ``crash_rate`` -- a ticked event raises :class:`ShardCrash`
      (the shard process dies mid-tick; the supervisor survives);
    * ``hang_rate`` -- the shard stops responding to ticks *until its
      next restart* (only the watchdog's stall detection recovers it);
    * ``slow_tick_rate`` / ``slow_tick_seconds`` -- a tick stalls for
      ``slow_tick_seconds`` before processing (latency, not failure);
    * ``heartbeat_loss_rate`` -- one heartbeat is dropped on the way
      to the supervisor;
    * ``journal_error_rate`` / ``kill_rate`` -- per-append journal
      write faults / shard kills, like :class:`ChaosJournalStore`
      but raising :class:`ShardCrash` so the blast stops at the shard;
    * ``journal_corrupt_rate`` -- one already-written line of the
      shard's journal is corrupted in place (restricted to
      observability/replay-redundant kinds, see
      ``_CORRUPTIBLE_KINDS``), exercising the CRC skip-and-warn path
      on the next recovery.

    ``target_shards`` limits every fault to the given shard indexes --
    the blast-radius soak targets one shard and asserts the others
    never notice.
    """

    seed: int
    target_shards: frozenset | None = None
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    slow_tick_rate: float = 0.0
    slow_tick_seconds: float = 0.0
    heartbeat_loss_rate: float = 0.0
    journal_error_rate: float = 0.0
    journal_corrupt_rate: float = 0.0
    kill_rate: float = 0.0

    def __post_init__(self):
        for name in ("crash_rate", "hang_rate", "slow_tick_rate",
                     "heartbeat_loss_rate", "journal_error_rate",
                     "journal_corrupt_rate", "kill_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ServiceError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_tick_seconds < 0:
            raise ServiceError("slow_tick_seconds must be non-negative")

    def chance(self, rate: float, *key) -> bool:
        """One keyed Bernoulli draw (same idiom as
        :meth:`ChaosPlan.chance`)."""
        if rate <= 0.0:
            return False
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, *_entropy(key))))
        return bool(rng.random() < rate)

    def pick(self, upper: int, *key) -> int:
        """One keyed uniform draw in ``[0, upper)``."""
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, *_entropy(key))))
        return int(rng.integers(upper))


class ShardChaosJournalStore:
    """Per-shard journal wrapper: write faults and *shard* kills.

    Like :class:`ChaosJournalStore`, but draws are keyed by (shard,
    incarnation, append counter) so every restart re-draws fresh, and
    a kill raises :class:`ShardCrash` -- the shard dies, the
    supervisor lives.
    """

    def __init__(self, store, plan: ShardChaosPlan, monkey,
                 shard_index: int, incarnation: int):
        self._store = store
        self.plan = plan
        self._monkey = monkey
        self.shard_index = shard_index
        self.incarnation = incarnation
        self.appends = 0

    def append(self, kind: str, payload: dict, *, fsync=None) -> int:
        self.appends += 1
        count = self.appends
        plan = self.plan
        kind_name = getattr(kind, "value", kind)
        if plan.chance(plan.kill_rate, "shard-kill", self.shard_index,
                       self.incarnation, count):
            self._monkey.count("shard_kill")
            raise ShardCrash(
                f"injected shard {self.shard_index} kill before journal "
                f"append #{count}")
        if plan.chance(plan.journal_error_rate, "shard-journal-error",
                       self.shard_index, self.incarnation, count, kind_name):
            self._monkey.count("journal_error")
            raise JournalError(
                f"injected journal write fault on shard {self.shard_index} "
                f"(append #{count}, kind {kind_name!r})")
        return self._store.append(kind, payload, fsync=fsync)

    def __getattr__(self, name):
        return getattr(self._store, name)


class ShardChaosMonkey:
    """One installed shard-chaos plan against a supervisor.

    Wires the supervisor's three chaos seams (``tick_filter``,
    ``heartbeat_filter``, ``on_restart``) plus per-shard tick hooks
    and journal wrappers.  ``injections`` tallies what fired
    (``shard_crash``, ``shard_hang``, ``slow_tick``,
    ``heartbeat_loss``, ``journal_error``, ``journal_corruption``,
    ``shard_kill``).
    """

    def __init__(self, supervisor, plan: ShardChaosPlan):
        self.supervisor = supervisor
        self.plan = plan
        self.injections: Counter = Counter()
        self._lock = threading.Lock()
        #: Shard indexes currently hung (cleared by restart).
        self.hung: set[int] = set()
        self._counters: Counter = Counter()
        self._installed = False

    def count(self, kind: str) -> None:
        with self._lock:
            self.injections[kind] += 1

    def _next(self, *key) -> int:
        with self._lock:
            value = self._counters[key]
            self._counters[key] += 1
        return value

    def targets(self, shard) -> bool:
        return (self.plan.target_shards is None
                or shard.index in self.plan.target_shards)

    # -- seams ----------------------------------------------------------
    def _tick_hook_for(self, shard):
        plan = self.plan

        def hook(entry):
            call = self._next("tick", shard.index, shard.restarts)
            if plan.chance(plan.slow_tick_rate, "slow-tick", shard.index,
                           shard.restarts, call):
                self.count("slow_tick")
                time.sleep(plan.slow_tick_seconds)
            if plan.chance(plan.crash_rate, "shard-crash", shard.index,
                           shard.restarts, call):
                self.count("shard_crash")
                raise ShardCrash(
                    f"injected crash of shard {shard.index} while ticking "
                    f"event {entry.event_id}")

        return hook

    def tick_filter(self, shard) -> bool:
        if not self.targets(shard):
            return True
        if shard.index in self.hung:
            return False
        call = self._next("hang", shard.index, shard.restarts)
        if self.plan.chance(self.plan.hang_rate, "shard-hang", shard.index,
                            shard.restarts, call):
            self.count("shard_hang")
            self.hung.add(shard.index)
            return False
        return True

    def heartbeat_filter(self, shard) -> bool:
        if not self.targets(shard):
            return True
        call = self._next("corrupt", shard.index)
        if self.plan.chance(self.plan.journal_corrupt_rate,
                            "journal-corrupt", shard.index, call):
            if self._corrupt_journal(shard, call):
                self.count("journal_corruption")
        beat = self._next("heartbeat", shard.index)
        if self.plan.chance(self.plan.heartbeat_loss_rate, "heartbeat-loss",
                            shard.index, beat):
            self.count("heartbeat_loss")
            return False
        return True

    def _corrupt_journal(self, shard, call: int) -> bool:
        """Corrupt one replay-redundant line of the shard's journal.

        The victim line is truncated mid-JSON, so the next recovery
        hits the undecodable-line path (warn and skip) and the
        analytics reader counts it in ``corrupt_lines``.
        """
        store = shard.service.store
        path = getattr(store, "path", None)
        if path is None or not path.exists():
            return False
        lines = path.read_text().splitlines()
        candidates = [
            index for index, line in enumerate(lines)
            if any(f'"kind": "{kind}"' in line
                   for kind in _CORRUPTIBLE_KINDS)
        ]
        if not candidates:
            return False
        victim = candidates[self.plan.pick(
            len(candidates), "corrupt-line", shard.index, call)]
        lines[victim] = lines[victim][:max(len(lines[victim]) // 2, 1)]
        path.write_text("\n".join(lines) + "\n")
        return True

    def on_restart(self, shard) -> None:
        """Re-arm fault injection on a shard's replacement service."""
        self.hung.discard(shard.index)
        self._arm(shard)

    def _arm(self, shard) -> None:
        if not self.targets(shard):
            return
        service = shard.service
        if service.store is not None:
            service.store = ShardChaosJournalStore(
                service.store, self.plan, self, shard.index, shard.restarts)
        service.tick_hook = self._tick_hook_for(shard)

    # -- install / uninstall -------------------------------------------
    def install(self) -> "ShardChaosMonkey":
        if self._installed:
            return self
        for shard in self.supervisor.shards:
            self._arm(shard)
        self.supervisor.tick_filter = self.tick_filter
        self.supervisor.heartbeat_filter = self.heartbeat_filter
        self.supervisor.on_restart = self.on_restart
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore the supervisor and every shard (idempotent)."""
        if not self._installed:
            return
        for shard in self.supervisor.shards:
            service = shard.service
            if isinstance(service.store, ShardChaosJournalStore):
                service.store = service.store._store
            service.tick_hook = None
        self.supervisor.tick_filter = None
        self.supervisor.heartbeat_filter = None
        self.supervisor.on_restart = None
        self.hung.clear()
        self._installed = False


def install_shard_chaos(supervisor, plan: ShardChaosPlan) -> ShardChaosMonkey:
    """Wrap ``supervisor``'s shards per ``plan``; returns the installed
    :class:`ShardChaosMonkey` (call
    :meth:`ShardChaosMonkey.uninstall` to restore)."""
    return ShardChaosMonkey(supervisor, plan).install()


# ----------------------------------------------------------------------
# Process-level chaos (real signals against worker processes)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessChaosPlan:
    """Real OS-level faults a worker *process* inflicts on itself.

    Unlike :class:`ChaosPlan`/:class:`ShardChaosPlan`, nothing here is
    simulated: the worker built by
    :mod:`repro.service.procfabric` sends itself genuine signals --
    ``SIGKILL`` (uncatchable death between two journal appends, the
    real ``kill -9``) and ``SIGSTOP`` (an uncatchable hang only the
    parent's watchdog can detect).  The plan is **pure JSON data**
    (:meth:`to_payload`/:meth:`from_payload`) because it must cross
    the spawn boundary inside the worker spec; no callables, no
    pickling.

    Deterministic faults (the prefix-sweep drivers):

    * ``kill_after_appends=N`` -- the worker SIGKILLs itself *before*
      journal append N+1, but only while ``incarnation ==
      kill_incarnation`` -- a respawned worker must not die at the
      same append forever;
    * ``stop_before_ticks=N`` -- the worker SIGSTOPs itself before
      handling its (N+1)-th tick command of ``stop_incarnation``.

    Probabilistic faults (``kill_rate`` per append, ``stop_rate`` per
    tick) draw from the same keyed-RNG idiom as every other plan,
    keyed by (shard, incarnation, counter) so each respawn re-draws
    fresh and a soak stays replayable.  ``target_shards`` scopes every
    fault to the given shard indexes.
    """

    seed: int
    target_shards: frozenset | None = None
    kill_after_appends: int | None = None
    kill_incarnation: int = 0
    kill_rate: float = 0.0
    stop_before_ticks: int | None = None
    stop_incarnation: int = 0
    stop_rate: float = 0.0

    def __post_init__(self):
        for name in ("kill_rate", "stop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ServiceError(f"{name} must be in [0, 1], got {rate}")
        for name in ("kill_after_appends", "stop_before_ticks"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ServiceError(f"{name} must be non-negative")

    def targets(self, shard_index: int) -> bool:
        return (self.target_shards is None
                or shard_index in self.target_shards)

    def chance(self, rate: float, *key) -> bool:
        """One keyed Bernoulli draw (same idiom as
        :meth:`ChaosPlan.chance`)."""
        if rate <= 0.0:
            return False
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, *_entropy(key))))
        return bool(rng.random() < rate)

    def should_kill(self, shard: int, incarnation: int, append: int) -> bool:
        """Die (for real) before performing journal append ``append``?"""
        if not self.targets(shard):
            return False
        if (self.kill_after_appends is not None
                and incarnation == self.kill_incarnation
                and append > self.kill_after_appends):
            return True
        return self.chance(self.kill_rate, "proc-kill", shard, incarnation,
                           append)

    def should_stop(self, shard: int, incarnation: int, tick: int) -> bool:
        """Freeze (for real) before handling tick number ``tick``?"""
        if not self.targets(shard):
            return False
        if (self.stop_before_ticks is not None
                and incarnation == self.stop_incarnation
                and tick > self.stop_before_ticks):
            return True
        return self.chance(self.stop_rate, "proc-stop", shard, incarnation,
                           tick)

    def to_payload(self) -> dict:
        """JSON-serializable form for the spawn boundary."""
        return {
            "seed": self.seed,
            "target_shards": (None if self.target_shards is None
                              else sorted(self.target_shards)),
            "kill_after_appends": self.kill_after_appends,
            "kill_incarnation": self.kill_incarnation,
            "kill_rate": self.kill_rate,
            "stop_before_ticks": self.stop_before_ticks,
            "stop_incarnation": self.stop_incarnation,
            "stop_rate": self.stop_rate,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ProcessChaosPlan":
        targets = payload.get("target_shards")
        return cls(
            seed=int(payload["seed"]),
            target_shards=(None if targets is None
                           else frozenset(int(t) for t in targets)),
            kill_after_appends=payload.get("kill_after_appends"),
            kill_incarnation=int(payload.get("kill_incarnation", 0)),
            kill_rate=float(payload.get("kill_rate", 0.0)),
            stop_before_ticks=payload.get("stop_before_ticks"),
            stop_incarnation=int(payload.get("stop_incarnation", 0)),
            stop_rate=float(payload.get("stop_rate", 0.0)),
        )
