"""Deterministic fault injection for the validation control plane.

The paper's central claim is that proactive validation catches the
failures reactive monitoring misses (§3.4 counts crashes and hangs as
defects in their own right).  That claim obligates the validator to
survive the same failure modes itself -- so this module turns the
control plane's own machinery against it, deterministically, on every
execution mode.

**One plan.**  A :class:`ChaosPlan` is a frozen, seeded description of
*what* to inject at *which* rate.  Every probabilistic draw uses a
keyed RNG -- ``SeedSequence((seed, crc32(part), ...))`` over the
identity of the decision point (node, benchmark, shard, incarnation,
call or append counter, ...) -- the same idiom
:class:`~repro.benchsuite.runner.SuiteRunner` uses for measurement
noise.  Two runs with the same plan therefore inject the *same*
faults at the *same* points regardless of thread scheduling, so a
chaos soak is replayable and its assertions can be exact.  The plan
is pure data (:meth:`ChaosPlan.to_payload`), so it also crosses the
process fabric's spawn boundary.

**Per-transport injectors.**  Each execution mode injects the plan's
faults its own way, and dies its own way:

* ``inline`` -- one :class:`~repro.service.controlplane.
  ValidationService` (:func:`install_chaos` returns a
  :class:`ChaosMonkey`): :class:`ChaosRunner` crashes or hangs
  benchmark executions, the ``tick_hook`` fails poison events and
  ticks, the ``repair_hook`` fails lifecycle advances, and the
  journal dies by :class:`SimulatedKill` -- a ``BaseException``, so no
  ``except Exception`` handler in the service can "survive" its own
  death;
* ``thread`` -- a :class:`~repro.service.supervisor.ShardSupervisor`
  (:func:`install_chaos` returns a :class:`ShardChaosMonkey`): shards
  crash mid-tick, stop answering until restarted, lose heartbeats and
  have journal lines corrupted through the supervisor's seams, and a
  shard's journal dies by :class:`ShardCrash` -- the shard dies, the
  supervisor lives;
* ``process`` -- :class:`~repro.service.procfabric.ProcessFabric`
  ``(chaos=plan)``: each worker faults *itself* with real signals,
  ``SIGKILL`` before a journal append and ``SIGSTOP`` before a tick.

All three share one journal wrapper, :class:`ChaosJournalStore`.  It
decides each fault *before* the underlying write, from this
incarnation's append counter: a kill models the process dying between
two durable records, an injected :class:`~repro.exceptions.
JournalError` a full disk or I/O error the process survives.

**What each transport honours** (``seed`` always; the code reads
:data:`TRANSPORT_FIELDS`):

==========  ========================================================
inline      ``executor_crash_rate``, ``executor_hang_rate``,
            ``hang_seconds``, ``fault_nodes``, ``broken_benchmarks``,
            ``broken_benchmark_crashes``, ``poison_event_keys``,
            ``tick_error_rate``, ``repair_failure_rate``,
            ``journal_error_rate``, ``kill_rate``,
            ``kill_after_appends``
thread      ``target_shards``, ``crash_rate``, ``hang_rate``,
            ``heartbeat_loss_rate``, ``journal_error_rate``,
            ``journal_corrupt_rate``, ``kill_rate``
process     ``target_shards``, ``kill_rate``, ``kill_after_appends``,
            ``hang_rate``, ``hang_after_ticks``, ``incarnation``
==========  ========================================================

A plan that sets a field its transport does not honour is refused
with :class:`~repro.exceptions.ServiceError` when it is installed
(``ProcessFabric``: when it is constructed, before any spawn), rather
than silently injecting nothing.

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

import json
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from repro.core.system import ValidationEvent
from repro.exceptions import ChaosError, JournalError, ServiceError

__all__ = ["SimulatedKill", "ShardCrash", "ChaosPlan", "ChaosRunner",
           "ChaosJournalStore", "ChaosMonkey", "ShardChaosMonkey",
           "install_chaos", "poison_key", "TRANSPORT_FIELDS"]


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


def _frozen(value):
    """A JSON list back in its plan form (nested lists become tuples)."""
    return tuple(_frozen(item) for item in value) if isinstance(
        value, list) else value


#: The plan fields each transport honours (``seed`` always is).  See
#: the module docstring for what each transport does with them.
TRANSPORT_FIELDS = {
    "inline": frozenset({
        "executor_crash_rate", "executor_hang_rate", "hang_seconds",
        "fault_nodes", "broken_benchmarks", "broken_benchmark_crashes",
        "poison_event_keys", "tick_error_rate", "repair_failure_rate",
        "journal_error_rate", "kill_rate", "kill_after_appends"}),
    "thread": frozenset({
        "target_shards", "crash_rate", "hang_rate", "heartbeat_loss_rate",
        "journal_error_rate", "journal_corrupt_rate", "kill_rate"}),
    "process": frozenset({
        "target_shards", "kill_rate", "kill_after_appends", "hang_rate",
        "hang_after_ticks", "incarnation"}),
}


@dataclass(frozen=True)
class ChaosPlan:
    """What to inject, at which rate, under which seed.

    Every ``*_rate`` is a per-decision-point probability in [0, 1]
    drawn from a keyed RNG, so the same plan injects identically
    across runs.

    * ``executor_crash_rate`` / ``executor_hang_rate`` -- a benchmark
      execution raises, or sleeps ``hang_seconds`` and then raises,
      on ``fault_nodes`` (``None``: every node);
    * ``broken_benchmarks`` crash their first
      ``broken_benchmark_crashes`` executions, then heal -- the exact
      shape circuit breakers exist for (harness regression, then a
      fixed image);
    * ``poison_event_keys`` always fail in the tick hook (until the
      service dead-letters them); ``tick_error_rate`` and
      ``repair_failure_rate`` fail one tick / lifecycle advance;
    * ``journal_error_rate`` -- one journal append raises
      :class:`~repro.exceptions.JournalError`;
    * ``kill_rate`` -- the process (or shard) dies before one journal
      append;
    * ``kill_after_appends=N`` kills it before append N+1 of
      ``incarnation`` -- drive N over every value up to the
      uninterrupted run's append count and you have tested a crash
      between *every* pair of journal records; a respawned
      incarnation does not die at the same append forever;
    * ``crash_rate`` -- a ticked event crashes its shard;
    * ``hang_rate`` -- a shard stops answering until it is restarted
      (only the watchdog or an RPC deadline recovers it);
      ``hang_after_ticks=N`` does so before tick N+1 of
      ``incarnation``;
    * ``heartbeat_loss_rate`` -- one heartbeat is dropped on the way
      to the supervisor;
    * ``journal_corrupt_rate`` -- one already-written,
      replay-redundant line of a shard's journal is truncated in
      place, exercising the corrupt-line skip-and-warn path.

    ``target_shards`` limits every shard fault to the given shard
    indexes -- the blast-radius soak targets one shard and asserts the
    others never notice.
    """

    seed: int
    target_shards: frozenset | None = None
    executor_crash_rate: float = 0.0
    executor_hang_rate: float = 0.0
    hang_seconds: float = 1.0
    fault_nodes: frozenset | None = None
    broken_benchmarks: frozenset = frozenset()
    broken_benchmark_crashes: int = 0
    poison_event_keys: frozenset = frozenset()
    tick_error_rate: float = 0.0
    repair_failure_rate: float = 0.0
    journal_error_rate: float = 0.0
    journal_corrupt_rate: float = 0.0
    kill_rate: float = 0.0
    kill_after_appends: int | None = None
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    hang_after_ticks: int | None = None
    heartbeat_loss_rate: float = 0.0
    incarnation: int = 0

    def __post_init__(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name.endswith("_rate"):
                if not 0.0 <= value <= 1.0:
                    raise ServiceError(
                        f"{spec.name} must be in [0, 1], got {value}")
            elif isinstance(value, (int, float)) and value < 0:
                raise ServiceError(f"{spec.name} must be non-negative")
        if self.target_shards is not None:
            object.__setattr__(self, "target_shards",
                               frozenset(self.target_shards))

    # -- fit to a transport -------------------------------------------
    def check_transport(self, transport: str) -> None:
        """Refuse a plan that sets a fault ``transport`` cannot inject."""
        honoured = TRANSPORT_FIELDS[transport]
        unsupported = [spec.name for spec in fields(self)
                       if spec.name != "seed"
                       and spec.name not in honoured
                       and getattr(self, spec.name) != spec.default]
        if unsupported:
            raise ServiceError(
                f"the {transport} transport cannot inject "
                f"{', '.join(unsupported)}")

    def to_payload(self) -> dict:
        """JSON form for the spawn boundary: the fields that differ
        from their defaults."""
        payload = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "seed" or value != spec.default:
                payload[spec.name] = (sorted(value)
                                      if isinstance(value, frozenset)
                                      else value)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ChaosPlan":
        return cls(**{name: (frozenset(_frozen(item) for item in value)
                             if isinstance(value, list) else value)
                      for name, value in payload.items()})

    # -- keyed draws ----------------------------------------------------
    def chance(self, rate: float, *key) -> bool:
        """One keyed Bernoulli draw: does the fault at ``key`` fire?

        ``key`` identifies the decision point (fault kind plus node /
        benchmark / shard / counter parts); equal keys always draw the
        same answer for the same plan.
        """
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

    def targets(self, shard_index: int) -> bool:
        return (self.target_shards is None
                or shard_index in self.target_shards)

    def kills(self, append: int, *key, incarnation: int = 0) -> bool:
        """Die before journal append ``append``?  Either the
        deterministic prefix kill (in ``incarnation`` only) or one
        keyed draw at ``(*key, append)``."""
        if (self.kill_after_appends is not None
                and incarnation == self.incarnation
                and append > self.kill_after_appends):
            return True
        return self.chance(self.kill_rate, *key, append)

    def should_kill(self, shard: int, incarnation: int, append: int) -> bool:
        """A worker process: ``SIGKILL`` itself before journal append
        ``append``?"""
        return self.targets(shard) and self.kills(
            append, "proc-kill", shard, incarnation, incarnation=incarnation)

    def should_stop(self, shard: int, incarnation: int, tick: int) -> bool:
        """A worker process: ``SIGSTOP`` itself before handling tick
        number ``tick``?"""
        if not self.targets(shard):
            return False
        if (self.hang_after_ticks is not None
                and incarnation == self.incarnation
                and tick > self.hang_after_ticks):
            return True
        return self.chance(self.hang_rate, "proc-stop", shard, incarnation,
                           tick)


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
    """Delegating journal wrapper: kills and write faults, every transport.

    Each fault is decided *before* the underlying write, from this
    incarnation's append counter.  A kill calls ``die(append)``, which
    must not return: the inline service raises :class:`SimulatedKill`,
    an in-thread shard :class:`ShardCrash`, a worker process sends
    itself ``SIGKILL``.  An injected
    :class:`~repro.exceptions.JournalError` is counted through
    ``tally`` and raised.  Replay, rewrite and every attribute besides
    :meth:`append` pass through untouched.

    Each transport keeps its own draw keys, so its seeded soaks keep
    their fault points: inline draws (``shard is None``) key on the
    append counter and ``str(kind)``; shard draws prefix ``tag``
    (``"shard-"``, ``"proc-"``), add (shard, incarnation) and key on
    ``kind.value``.
    """

    def __init__(self, store, plan: ChaosPlan, die, *, tally=None,
                 tag: str = "", shard: int | None = None,
                 incarnation: int = 0):
        self._store = store
        self.plan = plan
        self._die = die
        self._tally = tally
        self._tag = tag
        self._scope = () if shard is None else (shard, incarnation)
        self._incarnation = incarnation
        self.appends = 0

    def append(self, kind: str, payload: dict, *, fsync=None) -> int:
        self.appends += 1
        count = self.appends
        plan = self.plan
        if plan.kills(count, f"{self._tag}kill", *self._scope,
                      incarnation=self._incarnation):
            self._die(count)
        kind_key = kind if not self._scope else getattr(kind, "value", kind)
        if plan.chance(plan.journal_error_rate, f"{self._tag}journal-error",
                       *self._scope, count, kind_key):
            if self._tally is not None:
                self._tally("journal_error")
            where = f" on shard {self._scope[0]}" if self._scope else ""
            raise JournalError(
                f"injected journal write fault{where} (append #{count}, "
                f"kind {kind_key!r})")
        return self._store.append(kind, payload, fsync=fsync)

    def __getattr__(self, name):
        return getattr(self._store, name)


class ChaosMonkey:
    """The inline injector: one plan installed on one service.

    ``injections`` counts every fault that actually fired, keyed by
    kind (``executor_crash``, ``executor_hang``, ``journal_error``,
    ``kill``, ``poison_tick``, ``tick_error``, ``repair_failure``,
    ``broken_benchmark_crash``) -- the evidence a soak test needs that
    its storm was real.
    """

    def __init__(self, service, plan: ChaosPlan):
        plan.check_transport("inline")
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

    def _die(self, append: int) -> None:
        self.count("kill")
        raise SimulatedKill(
            f"simulated process kill before journal append #{append}")

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
                self.service.store, self.plan, self._die, tally=self.count)
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


#: Record kinds whose journal lines shard chaos may corrupt.  All are
#: observability or replay-redundant records: losing one costs at most
#: an at-least-once re-run, never an event -- so a chaos soak can keep
#: its event-accounting assertions *exact* while still proving that
#: recovery skips corrupted lines.  That holds while no checkpoint
#: follows the line: recovery does not re-read what a checkpoint
#: covers, so an ``event-completed`` lost there is not re-run.
#: ``event-enqueued``, ``criteria-snapshot`` and ``checkpoint`` are
#: deliberately excluded: corrupting those would genuinely lose state,
#: which is a different (and non-assertable) failure class.
_CORRUPTIBLE_KINDS = ("shard-heartbeat", "pipeline-stats",
                      "breaker-transition", "batch-provenance",
                      "event-completed")


def _line_kind(line: str) -> str | None:
    """The ``kind`` of one journal line, whatever its formatting."""
    try:
        return json.loads(line).get("kind")
    except (ValueError, AttributeError):
        return None


class ShardChaosMonkey:
    """The thread injector: one plan installed on a shard supervisor.

    Wires the supervisor's three chaos seams (``tick_filter``,
    ``heartbeat_filter``, ``on_restart``) plus per-shard tick hooks
    and journal wrappers.  Draws are keyed by (shard, incarnation,
    counter), so every restart re-draws fresh.  ``injections`` tallies
    what fired (``shard_crash``, ``shard_hang``, ``heartbeat_loss``,
    ``journal_error``, ``journal_corruption``, ``shard_kill``).
    """

    def __init__(self, supervisor, plan: ChaosPlan):
        plan.check_transport("thread")
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

    # -- seams ----------------------------------------------------------
    def _tick_hook_for(self, shard):
        plan = self.plan

        def hook(entry):
            call = self._next("tick", shard.index, shard.restarts)
            if plan.chance(plan.crash_rate, "shard-crash", shard.index,
                           shard.restarts, call):
                self.count("shard_crash")
                raise ShardCrash(
                    f"injected crash of shard {shard.index} while ticking "
                    f"event {entry.event_id}")

        return hook

    def _die_for(self, shard):
        def die(append: int) -> None:
            self.count("shard_kill")
            raise ShardCrash(
                f"injected shard {shard.index} kill before journal "
                f"append #{append}")

        return die

    def tick_filter(self, shard) -> bool:
        if not self.plan.targets(shard.index):
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
        if not self.plan.targets(shard.index):
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
        candidates = [index for index, line in enumerate(lines)
                      if _line_kind(line) in _CORRUPTIBLE_KINDS]
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
        if not self.plan.targets(shard.index):
            return
        service = shard.service
        if service.store is not None:
            service.store = ChaosJournalStore(
                service.store, self.plan, self._die_for(shard),
                tally=self.count, tag="shard-", shard=shard.index,
                incarnation=shard.restarts)
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
            if isinstance(service.store, ChaosJournalStore):
                service.store = service.store._store
            service.tick_hook = None
        self.supervisor.tick_filter = None
        self.supervisor.heartbeat_filter = None
        self.supervisor.on_restart = None
        self.hung.clear()
        self._installed = False


def install_chaos(target, plan: ChaosPlan) -> ChaosMonkey | ShardChaosMonkey:
    """Install ``plan`` on ``target`` with its transport's injector.

    ``target`` is a :class:`~repro.service.controlplane.
    ValidationService` (returns a :class:`ChaosMonkey`) or a
    :class:`~repro.service.supervisor.ShardSupervisor` (returns a
    :class:`ShardChaosMonkey`); call ``uninstall()`` on the result to
    restore.  A :class:`~repro.service.procfabric.ProcessFabric` takes
    its plan at construction instead (``chaos=plan``): its workers
    fault themselves.  Raises :class:`~repro.exceptions.ServiceError`
    if the plan sets a fault the transport cannot inject.
    """
    if hasattr(target, "shards"):
        return ShardChaosMonkey(target, plan).install()
    if hasattr(target, "anubis"):
        return ChaosMonkey(target, plan).install()
    raise ServiceError(
        f"cannot install chaos on a {type(target).__name__}; a process "
        f"fabric takes its plan as ProcessFabric(chaos=plan)")
