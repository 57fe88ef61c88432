"""The subprocess shard transport: one OS process per failure domain.

In-thread shards (:class:`~repro.service.shard.Shard`) contain
*simulated* shard deaths; this module contains **real** ones.  Each
shard's full control plane -- journal, queue, pool, lifecycle -- runs
in its own worker process, and :class:`ProcessFabric` is the
supervision state machine of :mod:`repro.service.supervisor` run as a
true OS parent: a worker that takes a genuine ``SIGKILL`` between two
journal appends, or freezes under ``SIGSTOP``, surfaces as a transport
fault, is killed off, and is respawned over its own journal.  What
supervision *does* about a death -- backoff, budget, degradation,
journaled handoff, parked and deduped delivery -- is the shared
machine's business; this module supplies how a worker is reached,
killed and replaced.

**Protocol.**  Parent and worker speak length-prefixed JSON frames
over the worker's stdin/stdout pipes: a 4-byte big-endian length
followed by one UTF-8 JSON object.  The worker re-points file
descriptor 1 at stderr before anything else runs, so stray prints
from library code can never corrupt the protocol stream.  Commands
are strictly request/response (one frame each way, in order), which
keeps the channel state trivial: any deadline miss desynchronizes the
channel, and the parent's only remedy -- kill and respawn -- is also
the correct supervision response.  Every ``submit``, ``tick`` and
``advance_repairs`` reply that succeeded also carries the shard's
sample as it stands after the command (``"sample"``: the fields of
:class:`~repro.service.shard.ShardStatus`, in order).  A worker's
queue, progress and repair state change only in response to parent
commands, so that is exactly what a ``status`` RPC sent next would
answer, and the parent's per-round sample of a worker it has just
spoken to costs no frame.

**Liveness signal.**  Any reply.  Each supervision round samples every
RUNNING worker once: a worker that answered a command since its last
sample is sampled from that reply; a worker nobody spoke to is sent
the ``status`` RPC under ``status_deadline`` (and journals a
``proc-heartbeat`` for answering it), as is every incarnation for its
first sample.  A worker whose PID is gone (``SIGKILL``, crash, OOM)
raises :class:`WorkerDied`; one whose RPC deadline lapses (a
``SIGSTOP`` freeze, a wedged C extension -- the cases PID liveness
cannot see) raises :class:`WorkerUnresponsive` -- on that idle probe,
or on the next command sent to it.  A pipe can lose an ACK, so every
delivery carries an ``origin`` the worker dedupes on.

**Start-up.**  A *zygote* -- one process per parent and environment,
which has only imported this module and the builder's -- forks each
worker onto the pipes, cwd and fd 2 the parent sends it, and reports
its exit status; builder and journal recovery run after the fork.
:class:`ProcessFabric` starts every worker (fork plus
:class:`WorkerSpec` frame) before it awaits any ready frame, so the
boots overlap; each spawn deadline counts from that worker's start.
The zygote outlives a fabric dropped without a shutdown and stops with
the last one shut down; if it dies, live workers keep their pipes and
pidfds, a lost exit status reads :data:`STATUS_LOST`, and the next
start starts a new zygote.

**Single-writer discipline.**  The parent touches a shard's journal
*only* after :meth:`_WorkerHandle.ensure_dead` has SIGKILLed whatever
remained of its process and seen it exit on its pidfd, through one
:class:`~repro.service.store.JournalStore` it holds from then until
:meth:`_WorkerHandle.restart` closes it, just before the replacement
starts.

**Graceful drain.**  Workers install ``SIGTERM``/``SIGINT`` handlers
that break out of the blocking protocol read, journal a
``fabric-drain`` record, fsync the journal tail and exit 0; the
parent's :meth:`ProcessFabric.shutdown` seals every live worker (RPC
first, signal as fallback) so ``repro report`` can tell a clean
shutdown from a crash for every shard.

Real fault *injection* is the worker's own job: the
:class:`~repro.service.chaos.ChaosPlan` crosses the process boundary as
JSON and the worker sends **itself** ``SIGKILL`` before a
chosen journal append or ``SIGSTOP`` before a chosen tick -- the
deterministic drivers of the kill-at-every-prefix property test.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import JournalError, ServiceError
from repro.service.chaos import ChaosJournalStore, ChaosPlan
from repro.service.controlplane import ServiceConfig, ValidationService
from repro.service.queue import JournalState, as_origin
from repro.service.shard import (
    ShardState,
    ShardStatus,
    ShardTransport,
    TransportFault,
    deliver_part,
    sample,
)
from repro.service.store import JournalStore, RecordKind
from repro.service.supervisor import Supervisor, SupervisorConfig

__all__ = ["WorkerSpec", "WorkerFault", "WorkerDied", "WorkerUnresponsive",
           "ProcessFabric", "default_builder", "worker_main",
           "read_frame", "write_frame"]

_FRAME_HEADER = 4
_MAX_FRAME = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# Frame protocol (shared by both sides)
# ----------------------------------------------------------------------

class WorkerFault(TransportFault):
    """A worker process failed its side of the protocol contract."""


class WorkerDied(WorkerFault):
    """The worker's PID is gone or its pipe closed mid-conversation."""


class WorkerUnresponsive(WorkerFault):
    """The worker missed an RPC deadline (hang, ``SIGSTOP``, overload)."""

    timed_out = True


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _encode_frame(message: dict) -> bytes:
    body = json.dumps(message, separators=(",", ":")).encode()
    return len(body).to_bytes(_FRAME_HEADER, "big") + body


def write_frame(fd: int, message: dict) -> None:
    """Write one length-prefixed JSON frame to ``fd``.

    Raises :class:`WorkerDied` when the peer has closed its end.
    """
    try:
        _write_all(fd, _encode_frame(message))
    except (BrokenPipeError, OSError) as error:
        raise WorkerDied(f"peer pipe closed while writing: {error}") from error


def _read_exact(fd: int, count: int) -> bytes | None:
    """Blocking exact read; ``None`` on EOF before ``count`` bytes."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = os.read(fd, remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(fd: int) -> dict | None:
    """Blocking read of one frame from ``fd``; ``None`` on clean EOF."""
    header = _read_exact(fd, _FRAME_HEADER)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > _MAX_FRAME:
        raise WorkerFault(f"oversized frame: {length} bytes")
    body = _read_exact(fd, length)
    if body is None:
        return None
    return json.loads(body.decode())


# ----------------------------------------------------------------------
# Worker spec (JSON across the process boundary -- never pickled)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs to build its shard.

    ``builder`` is a ``"module:function"`` reference resolved *inside*
    the worker; called with ``builder_args`` (a JSON dict) it must
    return ``(anubis, nodes, service_config)``.  Keeping the spec pure
    JSON -- dotted refs instead of callables -- is what makes the
    process boundary honest: nothing crosses it that a config file could
    not carry.
    """

    shard_index: int
    journal_dir: str
    builder: str
    builder_args: dict = field(default_factory=dict)
    incarnation: int = 0
    heartbeat_every: int = 1
    chaos: dict | None = None

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "WorkerSpec":
        return cls(**payload)


def _resolve_builder(ref: str):
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ServiceError(
            f"builder must be 'module:function', got {ref!r}")
    module = importlib.import_module(module_name)
    target = module
    for part in attr.split("."):
        target = getattr(target, part)
    return target


#: The keys :func:`default_builder` reads.
_BUILDER_KEYS = frozenset({
    "fleet_size", "fleet_seed", "sku_mix", "suite", "runner_seed",
    "criteria_path", "learn_on", "trace_nodes", "trace_hours", "trace_seed",
    "p0", "pool", "service"})


def default_builder(args: dict):
    """Build ``(anubis, nodes, service_config)`` from plain JSON knobs.

    The stock builder the CLI, benchmarks and tests parameterize
    instead of shipping code across the process boundary.  Recognized
    keys (all optional): ``fleet_size``/``fleet_seed``/``sku_mix`` (as
    :func:`~repro.hardware.fleet.build_fleet` takes them), ``suite`` (a
    list of benchmark names; ``None`` means the full suite),
    ``runner_seed``, ``criteria_path`` (pre-learned criteria JSON --
    loading beats re-learning in every worker) or ``learn_on``,
    ``trace_nodes``/``trace_hours``/``trace_seed``, ``p0``, ``pool``
    (a :class:`~repro.service.pool.PoolConfig` kwargs dict) and
    ``service`` (extra :class:`ServiceConfig` kwargs).  Any other key
    raises :class:`ServiceError`: a knob the workers ignored would
    build another fleet than the parent's.
    """
    unknown = sorted(set(args) - _BUILDER_KEYS)
    if unknown:
        raise ServiceError(f"default_builder: unknown keys {unknown}")
    from repro.benchsuite.runner import SuiteRunner
    from repro.benchsuite.suite import full_suite, suite_by_name
    from repro.core.persistence import load_criteria
    from repro.core.selector import Selector
    from repro.core.system import Anubis
    from repro.core.validator import Validator
    from repro.hardware.fleet import build_fleet
    from repro.service.pool import PoolConfig
    from repro.simulation import analytic_coverage_table, suite_durations
    from repro.simulation.generator import generate_incident_trace
    from repro.survival import extract_status_samples
    from repro.survival.exponential import ExponentialModel

    fleet = build_fleet(int(args.get("fleet_size", 12)),
                        seed=int(args.get("fleet_seed", 5)),
                        sku_mix=args.get("sku_mix"))
    names = args.get("suite")
    suite = (full_suite() if names is None
             else tuple(suite_by_name(name) for name in names))
    validator = Validator(suite,
                          runner=SuiteRunner(seed=int(args.get("runner_seed",
                                                               9))))
    criteria_path = args.get("criteria_path")
    if criteria_path:
        load_criteria(validator, criteria_path)
    else:
        validator.learn_criteria(fleet.nodes[:int(args.get("learn_on", 6))])
    trace = generate_incident_trace(
        int(args.get("trace_nodes", 50)),
        float(args.get("trace_hours", 800.0)),
        seed=int(args.get("trace_seed", 11)))
    dataset = extract_status_samples(trace)
    model = ExponentialModel().fit(dataset)
    selector = Selector(model, analytic_coverage_table(suite),
                        suite_durations(suite),
                        p0=float(args.get("p0", 0.05)))
    pool = PoolConfig(**dict(args.get("pool", {})))
    service_config = ServiceConfig(pool=pool, **dict(args.get("service", {})))
    return Anubis(validator, selector), fleet.nodes, service_config


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------

class _DrainRequested(BaseException):
    """Raised by the worker's signal handler to break the blocking
    protocol read (PEP 475 would otherwise auto-retry ``os.read``
    after the handler returns).  A ``BaseException`` so no containment
    handler in the control plane can swallow a shutdown request."""

    def __init__(self, signum: int):
        super().__init__(f"signal {signum}")
        self.signum = signum


class ShardWorker:
    """One shard's control plane, spoken to over the frame protocol."""

    def __init__(self, spec: WorkerSpec, proto_in: int, proto_out: int):
        self.spec = spec
        self.proto_in = proto_in
        self.proto_out = proto_out
        self.chaos = (None if spec.chaos is None
                      else ChaosPlan.from_payload(spec.chaos))
        self.service: ValidationService | None = None
        self.ticks = 0
        self.statuses = 0

    # -- lifecycle ------------------------------------------------------
    def build(self) -> None:
        builder = _resolve_builder(self.spec.builder)
        anubis, nodes, config = builder(self.spec.builder_args)
        shard = self.spec.shard_index
        if self.chaos is None or not self.chaos.targets(shard):
            self.service = ValidationService(
                anubis, nodes, journal_dir=self.spec.journal_dir,
                config=config)
            return
        # Arm the kill wrapper from the very first journal append --
        # the service's own startup appends (criteria snapshot,
        # recovery bookkeeping) are kill points too, so the wrapper
        # must be in place before construction, not bolted on after.
        # Patching the constructor controlplane resolves is safe here:
        # this is a dedicated worker process.  A kill is real: the
        # worker sends itself ``SIGKILL`` before the write, the exact
        # semantics of ``kill -9`` landing between two durable records.
        from repro.service import controlplane as _controlplane
        original = _controlplane.JournalStore
        chaos, incarnation = self.chaos, self.spec.incarnation

        def armed(directory, **kwargs):
            return ChaosJournalStore(
                original(directory, **kwargs), chaos,
                lambda _append: os.kill(os.getpid(), signal.SIGKILL),
                tag="proc-", shard=shard, incarnation=incarnation)

        _controlplane.JournalStore = armed
        try:
            self.service = ValidationService(
                anubis, nodes, journal_dir=self.spec.journal_dir,
                config=config)
        finally:
            _controlplane.JournalStore = original

    def run(self) -> int:
        try:
            self.build()
            # The ready frame is also how the parent learns the fleet's
            # hardware classes (its routing key under sku_affinity).
            self._reply({"ok": True, "ready": True, **self._status(),
                         "skus": {node_id: getattr(node, "sku", "unknown")
                                  for node_id, node
                                  in self.service.fleet_index.items()}})
            while True:
                message = read_frame(self.proto_in)
                if message is None:
                    # Parent gone (pipe closed): seal and leave -- an
                    # orphaned worker must not keep writing a journal
                    # its next owner believes quiet.
                    self._seal("parent-eof")
                    return 0
                if not self._dispatch(message):
                    return 0
        except _DrainRequested as request:
            self._seal(f"signal-{request.signum}")
            return 0

    def _seal(self, reason: str) -> None:
        if self.service is None:
            return
        try:
            self.service.seal(reason=reason,
                              extra={"shard": self.spec.shard_index,
                                     "incarnation": self.spec.incarnation})
        except Exception:
            pass

    def _reply(self, message: dict) -> None:
        write_frame(self.proto_out, message)

    # -- command dispatch ----------------------------------------------
    def _dispatch(self, message: dict) -> bool:
        """Handle one command; returns False when the worker should
        exit (after a ``seal``)."""
        command = message.get("cmd")
        try:
            if command == "status":
                self._reply({"ok": True, **self._status()})
            elif command == "state":
                # The heavy reply: everything reconciliation needs.
                self._reply({"ok": True, **self._status(), "state":
                             self.service.journal_state().to_payload()})
            elif command == "submit":
                self._reply(self._sampled(self._submit(message)))
            elif command == "tick":
                self._reply(self._sampled(self._tick()))
            elif command == "advance_repairs":
                self.service.advance_repairs()
                self._reply(self._sampled({"ok": True}))
            elif command == "seal":
                self._seal(str(message.get("reason", "drain")))
                self._reply({"ok": True, "sealed": True})
                return False
            else:
                self._reply({"ok": False,
                             "error": f"unknown command {command!r}"})
        except _DrainRequested:
            raise
        except Exception as error:
            self._reply({"ok": False,
                         "error": f"{type(error).__name__}: {error}"})
        return True

    def _sampled(self, reply: dict) -> dict:
        """``reply`` plus the shard's sample after the command it
        answers -- what a ``status`` RPC sent next would return."""
        reply["sample"] = list(sample(self.service))
        return reply

    def _status(self) -> dict:
        service = self.service
        self.statuses += 1
        status = sample(service)
        if (self.spec.heartbeat_every > 0
                and self.statuses % self.spec.heartbeat_every == 0):
            payload = {
                "shard": self.spec.shard_index,
                "incarnation": self.spec.incarnation,
                "beat": self.statuses,
                "progress": status.progress,
                "queue_depth": status.queue_depth,
            }
            try:
                service._journal_best_effort(RecordKind.PROC_HEARTBEAT,
                                             payload)
            except Exception:
                pass
        return {
            "shard": self.spec.shard_index,
            "incarnation": self.spec.incarnation,
            "pid": os.getpid(),
            **status._asdict(),
            "events_processed": service.metrics.events_processed,
            "dead_letters": len(service.dead_letters()),
        }

    def _submit(self, message: dict) -> dict:
        entry = deliver_part(self.service, message["event"],
                             as_origin(message["origin"]))
        if entry is None:
            # Redelivery of something durably accepted before a crash:
            # ACK without touching the queue.
            return {"ok": True, "event_id": None, "deduped": True}
        return {"ok": True, "event_id": entry.event_id,
                "shed": bool(getattr(entry, "shed", False)),
                "deduped": False}

    def _tick(self) -> dict:
        self.ticks += 1
        if (self.chaos is not None
                and self.chaos.should_stop(self.spec.shard_index,
                                           self.spec.incarnation,
                                           self.ticks)):
            # A real hang: uncatchable, undetectable from inside.
            # Only the parent's RPC deadline can see this.
            os.kill(os.getpid(), signal.SIGSTOP)
        result = self.service.tick()
        if result is None:
            return {"ok": True, "result": None}
        return {"ok": True, "result": {
            "event_id": result.event_id,
            "failed": result.failed,
            "error": result.error,
            "quarantined": list(result.quarantined),
            "skipped_nodes": list(result.skipped_nodes),
        }}


def worker_main() -> int:
    """Body of a worker, run in the child the zygote forked once the
    protocol pipes are its fds 0 and 1; returns its exit status.

    Claims the protocol fds, re-points stdout at stderr (stray prints
    must never corrupt frames), installs the graceful-drain signal
    handlers, then reads the :class:`WorkerSpec` as the first frame
    and serves commands until sealed, signalled, or orphaned.
    """
    proto_in = os.dup(0)
    proto_out = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def _on_signal(signum, _frame):
        raise _DrainRequested(signum)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        payload = read_frame(proto_in)
        if payload is None:
            return 1
        spec = WorkerSpec.from_payload(payload)
        return ShardWorker(spec, proto_in, proto_out).run()
    except _DrainRequested:
        return 0


# ----------------------------------------------------------------------
# The zygote: one import-only process per parent that forks the workers
# ----------------------------------------------------------------------

#: The exit status of a worker whose zygote died before reporting it.
STATUS_LOST = 255
#: How long an exited worker's status may take to come from the zygote.
_REPORT_SECONDS = 10.0


def _zygote_main() -> int:
    """The zygote (socket on fd 0, module to preload in ``argv[1]``):
    fork a child per request, answer with its pid and a pidfd, report
    each exit status once reaped; leave on EOF or ``SIGPIPE``.  A child
    returns :func:`worker_main`'s status, so it exits through normal
    interpreter shutdown and its ``atexit`` handlers run."""
    fresh_handlers = {signum: signal.signal(signum, handler)
                      for signum, handler in ((signal.SIGINT, signal.SIG_IGN),
                                              (signal.SIGTERM, signal.SIG_IGN),
                                              (signal.SIGPIPE, signal.SIG_DFL))}
    try:
        importlib.import_module(sys.argv[1])
    except Exception:
        pass    # the worker imports it again, and reports the failure
    server = socket.socket(fileno=0)
    children: dict[int, int] = {}       # pidfd -> pid
    while True:
        ready, _, _ = select.select([server, *children], [], [])
        for pidfd in children.keys() & set(ready):
            pid = children.pop(pidfd)
            os.close(pidfd)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            server.send(json.dumps({"exited": pid, "status": status}).encode())
        if server not in ready:
            continue
        request, fds, _, _ = socket.recv_fds(server, 4096, 3)
        if not request:
            return 0
        if threading.active_count() != 1:
            raise RuntimeError("the zygote must fork with one thread, not "
                               f"{threading.active_count()}")
        pid = os.fork()
        if pid == 0:
            server.close()
            for pidfd in children:
                os.close(pidfd)
            for signum, handler in fresh_handlers.items():
                signal.signal(signum, handler)
            os.chdir(json.loads(request)["cwd"])
            for target, fd in enumerate(fds):
                os.dup2(fd, target)
                os.close(fd)
            return worker_main()
        for fd in fds:
            os.close(fd)
        pidfd = os.pidfd_open(pid)
        children[pidfd] = pid
        socket.send_fds(server, [json.dumps({"forked": pid}).encode()],
                        [pidfd])


class _Zygote:
    """The parent's end of one zygote, started for one environment."""

    def __init__(self, env: dict, preload: str):
        ours, theirs = socket.socketpair(socket.AF_UNIX,
                                         socket.SOCK_SEQPACKET)
        with theirs:
            self.process = subprocess.Popen(
                [sys.executable, "-c",
                 "import sys; from repro.service.procfabric import "
                 "_zygote_main; sys.exit(_zygote_main())", preload],
                stdin=theirs, stdout=subprocess.DEVNULL, env=env)
        self.sock: socket.socket | None = ours
        self.env = env
        #: Exit statuses reported and not yet collected, by pid.
        self.exits: dict[int, int] = {}

    def fork(self, cwd: str, timeout: float) -> "_Worker":
        """A new worker on fresh pipes, its stderr the parent's fd 2."""
        stdin_r, stdin_w = os.pipe()
        stdout_r, stdout_w = os.pipe()
        try:
            socket.send_fds(self.sock, [json.dumps({"cwd": cwd}).encode()],
                            [stdin_r, stdout_w, 2])
            reply, fds = self._await(lambda message: "forked" in message,
                                     timeout)
        except BaseException as error:
            os.close(stdin_w)
            os.close(stdout_r)
            if isinstance(error, OSError):
                raise WorkerDied(f"the zygote is gone: {error}") from error
            raise
        finally:
            os.close(stdin_r)
            os.close(stdout_w)
        return _Worker(self, reply["forked"], fds[0], stdin_w, stdout_r)

    def exit_status(self, pid: int) -> int:
        """``pid``'s exit status, or :data:`STATUS_LOST` if unreported."""
        if pid not in self.exits:
            try:
                self._await(lambda message: message.get("exited") == pid,
                            _REPORT_SECONDS)
            except WorkerFault:
                return STATUS_LOST
        return self.exits.pop(pid)

    def _await(self, wanted, timeout: float) -> tuple[dict, list[int]]:
        """Read messages, filing exit reports, until one is ``wanted``."""
        end = time.monotonic() + timeout
        while self.sock is not None:
            remaining = end - time.monotonic()
            if remaining <= 0:
                self.close()    # its late answer would answer the next ask
                raise WorkerUnresponsive(
                    f"the zygote did not answer within {timeout:.1f}s")
            self.sock.settimeout(remaining)
            try:
                data, fds, _, _ = socket.recv_fds(self.sock, 4096, 1,
                                                  socket.MSG_CMSG_CLOEXEC)
            except TimeoutError:
                continue
            if not data:
                self.close()
                break
            message = json.loads(data)
            if "exited" in message:
                self.exits[message["exited"]] = message["status"]
            if wanted(message):
                return message, fds
        raise WorkerDied("the zygote is gone")

    def close(self) -> None:
        """Stop the zygote, if it is still running, and reap it."""
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.process.kill()
        self.process.wait()


#: The zygotes this process started, and the fabrics not yet shut down.
_zygotes: list[_Zygote] = []
_live_fabrics: weakref.WeakSet = weakref.WeakSet()


def _fork_worker(env: dict, preload: str, timeout: float) -> "_Worker":
    """Fork a worker from ``env``'s zygote, started if none runs."""
    _zygotes[:] = [zygote for zygote in _zygotes if zygote.sock is not None
                   and zygote.process.poll() is None]
    zygote = next((z for z in _zygotes if z.env == env), None)
    if zygote is None:
        zygote = _Zygote(env, preload)
        _zygotes.append(zygote)
    return zygote.fork(os.getcwd(), timeout)


class _Worker:
    """A forked worker as its handle drives it: poll, wait and signal
    it over the child's pid, a pidfd and the parent's pipe ends."""

    def __init__(self, zygote: _Zygote, pid: int, pidfd: int,
                 stdin: int, stdout: int):
        self.pid = pid
        self.stdin = open(stdin, "wb", buffering=0)
        self.stdout = open(stdout, "rb", buffering=0)
        self.returncode: int | None = None
        self._zygote = zygote
        self._pidfd = pidfd
        self._close_pidfd = weakref.finalize(self, os.close, pidfd)

    def poll(self) -> int | None:
        return self._settle(0.0)

    def wait(self, timeout: float | None = None) -> int:
        if self._settle(timeout) is None:
            raise subprocess.TimeoutExpired(f"worker {self.pid}", timeout)
        return self.returncode

    def _settle(self, timeout: float | None) -> int | None:
        """The exit status, if the pidfd shows one within ``timeout``."""
        if (self.returncode is None
                and select.select([self._pidfd], [], [], timeout)[0]):
            self.returncode = self._zygote.exit_status(self.pid)
            self._close_pidfd()
        return self.returncode

    def kill(self, signum: int = signal.SIGKILL) -> None:
        if self.returncode is None:
            signal.pidfd_send_signal(self._pidfd, signum)

    def terminate(self) -> None:
        self.kill(signal.SIGTERM)


# ----------------------------------------------------------------------
# The parent side: the subprocess transport and its fabric
# ----------------------------------------------------------------------

class _WorkerHandle(ShardTransport):
    """The subprocess shard transport: one worker process, its pipe
    channel, and the supervisor's bookkeeping for the shard.

    Every RPC goes through :meth:`request`, looked up on the instance
    at call time, so a caller may wrap one handle's channel.
    """

    ack_can_be_lost = True

    def __init__(self, spec: WorkerSpec, sku_index: dict[str, str], *,
                 status_deadline: float, tick_deadline: float,
                 spawn_deadline: float, drain_timeout: float):
        super().__init__(spec.shard_index)
        self.shard_index = spec.shard_index
        self.journal_dir = Path(spec.journal_dir)
        self.spec = spec
        #: The fabric's node -> SKU index, refreshed from every ready
        #: frame (each worker indexes the whole fleet).
        self.sku_index = sku_index
        self.status_deadline = status_deadline
        self.tick_deadline = tick_deadline
        self.spawn_deadline = spawn_deadline
        self.drain_timeout = drain_timeout
        self.proc: _Worker | None = None
        #: Between :meth:`start` and the ready frame: the process's next
        #: frame is that ready frame, never the reply to a request.
        self._booting = False
        self._started_at = 0.0
        #: Processes started for this shard so far, minus one; unlike
        #: ``restarts`` it is never forgiven.
        self.incarnation = 0
        self._buf = b""
        #: The sample the most recent command reply carried, until a
        #: round's ``status(tick)`` consumes it.
        self._carried: ShardStatus | None = None
        #: The parent's own store on the shard's journal, open only
        #: while no worker process can be writing it.
        self._dead_journal: JournalStore | None = None

    # -- channel --------------------------------------------------------
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def request(self, message: dict, deadline_seconds: float) -> dict:
        if not self.alive():
            raise WorkerDied(
                f"worker {self.shard_index} has no live process")
        self._send(message, deadline_seconds)
        return self._recv(deadline_seconds)

    def _send(self, message: dict, deadline_seconds: float) -> None:
        """Deadline-bounded frame write to the worker's stdin.

        The fd is non-blocking (set at start): a ``SIGSTOP``-frozen
        worker whose stdin pipe is full must surface as
        :class:`WorkerUnresponsive`, never wedge the parent inside a
        blocking ``os.write`` where no watchdog can run.
        """
        fd = self.proc.stdin.fileno()
        data = memoryview(_encode_frame(message))
        end = time.monotonic() + deadline_seconds
        while data:
            remaining = end - time.monotonic()
            if remaining <= 0:
                raise WorkerUnresponsive(
                    f"worker {self.shard_index} did not accept a frame "
                    f"within its {deadline_seconds:.1f}s deadline")
            _, writable, _ = select.select([], [fd], [],
                                           min(remaining, 0.25))
            if not writable:
                continue
            try:
                written = os.write(fd, data)
            except BlockingIOError:
                continue
            except (BrokenPipeError, OSError) as error:
                raise WorkerDied(
                    f"worker {self.shard_index} pipe closed while "
                    f"writing: {error}") from error
            data = data[written:]

    def _recv(self, deadline_seconds: float, *,
              since: float | None = None) -> dict:
        """Read one frame within ``deadline_seconds`` of ``since`` (a
        ``time.monotonic()`` reading; default now).  What is already in
        the pipe is read even once the deadline has passed: a worker
        that answered in time is not failed for being read late."""
        fd = self.proc.stdout.fileno()
        end = (time.monotonic() if since is None else since) + deadline_seconds
        while True:
            frame = self._try_decode()
            if frame is not None:
                return frame
            remaining = end - time.monotonic()
            ready, _, _ = select.select([fd], [], [],
                                        min(max(remaining, 0.0), 0.25))
            if not ready:
                if remaining <= 0:
                    raise WorkerUnresponsive(
                        f"worker {self.shard_index} missed its "
                        f"{deadline_seconds:.1f}s deadline")
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerDied(
                    f"worker {self.shard_index} closed its pipe")
            self._buf += chunk

    def _try_decode(self) -> dict | None:
        if len(self._buf) < _FRAME_HEADER:
            return None
        length = int.from_bytes(self._buf[:_FRAME_HEADER], "big")
        if length > _MAX_FRAME:
            raise WorkerFault(f"oversized frame from worker "
                              f"{self.shard_index}: {length} bytes")
        if len(self._buf) < _FRAME_HEADER + length:
            return None
        body = self._buf[_FRAME_HEADER:_FRAME_HEADER + length]
        self._buf = self._buf[_FRAME_HEADER + length:]
        return json.loads(body.decode())

    # -- process lifecycle ---------------------------------------------
    def start(self) -> None:
        """Fork the process and ship it the spec; its spawn deadline
        runs from here."""
        env = os.environ.copy()
        import repro
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (src_root + os.pathsep + existing
                                 if existing else src_root)
        self._buf = b""
        self._carried = None    # never a dead incarnation's sample
        self._started_at = time.monotonic()
        self.proc = _fork_worker(env, self.spec.builder.partition(":")[0],
                                 self.spawn_deadline)
        self._booting = True
        os.set_blocking(self.proc.stdin.fileno(), False)
        spec = dataclasses.replace(self.spec, incarnation=self.incarnation)
        self._send(spec.to_payload(), self.spawn_deadline)

    def await_ready(self) -> None:
        """Read the ready frame of the worker :meth:`start` launched,
        by the end of its spawn deadline."""
        ready = self._recv(self.spawn_deadline, since=self._started_at)
        if not ready.get("ok") or not ready.get("ready"):
            raise WorkerFault(
                f"worker {self.shard_index} failed to start: {ready}")
        self._booting = False
        self.sku_index.update(ready.get("skus", {}))

    def ensure_dead(self, *, reap_seconds: float = 10.0) -> None:
        """SIGKILL whatever remains and see it exit on its pidfd.

        ``SIGKILL`` terminates even a ``SIGSTOP``-frozen process, so
        this is the one true precondition for the parent touching the
        shard's journal.
        """
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.proc.kill()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=reap_seconds)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
            pass
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass
        self._buf = b""

    def restart(self, tick: int) -> None:
        self.ensure_dead()
        self.incarnation += 1
        try:
            self.append(RecordKind.PROC_RESTART, {
                "shard": self.shard_index,
                "incarnation": self.incarnation,
                "tick": tick,
            })
        except JournalError:
            pass  # observability only
        self.close_journal()    # the replacement is its writer now
        try:
            self.start()
            self.await_ready()
        except WorkerFault:
            self.ensure_dead()
            raise

    # -- the transport calls --------------------------------------------
    def _command(self, message: dict, deadline_seconds: float) -> dict:
        """One state-changing RPC; remembers the sample its reply
        carries (an error reply carries none, so the next round asks)."""
        reply = self.request(message, deadline_seconds)
        carried = reply.get("sample")
        self._carried = None if carried is None else ShardStatus(*carried)
        return reply

    def deliver(self, part: dict, origin: tuple[int, int]):
        reply = self._command({"cmd": "submit", "event": part,
                               "origin": list(origin)}, self.status_deadline)
        if not reply.get("ok"):
            raise JournalError(
                f"worker {self.shard_index} refused the enqueue: "
                f"{reply.get('error')}")
        return None if reply.get("deduped") else reply

    def status(self, tick: int | None = None) -> ShardStatus:
        """The shard's sample.  With ``tick`` (the round's heartbeat)
        it is the one the worker's latest command reply carried, if
        one arrived since the previous round's; otherwise one
        ``status`` RPC (the worker journals its own ``proc-heartbeat``
        on every one it answers)."""
        if tick is not None and self._carried is not None:
            carried, self._carried = self._carried, None
            return carried
        reply = self.request({"cmd": "status"}, self.status_deadline)
        return ShardStatus(reply["queue_depth"], reply["head_priority"],
                           reply["progress"], reply["repairs_in_flight"])

    def tick(self) -> dict | None:
        reply = self._command({"cmd": "tick"}, self.tick_deadline)
        return reply.get("result") if reply.get("ok") else None

    def advance_repairs(self) -> None:
        self._command({"cmd": "advance_repairs"}, self.status_deadline)

    def queue_state(self) -> JournalState:
        """Over RPC from a live worker; straight from the journal once
        the process is gone (the only time the parent may read it)."""
        if not self.alive():
            return JournalState.read(self._journal())
        reply = self.request({"cmd": "state"}, self.status_deadline)
        return JournalState.from_payload(reply["state"])

    def append(self, kind, payload: dict) -> None:
        self._journal().append(kind, payload)

    def _journal(self) -> JournalStore:
        """The dead shard's journal, opened on first use and then held:
        the store reads the journal once (for :meth:`queue_state`, or
        to number its first append), a failover appends one record
        per pending entry, and a store per record would read it for
        each."""
        if self._dead_journal is None:
            self._dead_journal = JournalStore(self.journal_dir)
        return self._dead_journal

    def close_journal(self) -> None:
        """Give the journal up: a worker is about to own it again, or
        the fabric is shutting down."""
        if self._dead_journal is not None:
            self._dead_journal.close()
            self._dead_journal = None

    def seal(self, reason: str, tick: int) -> bool:
        """Ask for a ``seal`` over RPC (journal the ``fabric-drain``
        record, fsync, exit 0); if the worker cannot be spoken to,
        fall back to ``SIGTERM`` (its signal handler runs the same
        seal).  A worker still booting is signalled without an RPC: its
        next frame is the ready frame, which would be read as the reply.
        True when the worker exited within its drain window; the caller
        escalates to ``SIGKILL`` via :meth:`ensure_dead`."""
        if not self.alive():
            return False
        clean = False
        if not self._booting:
            try:
                reply = self.request({"cmd": "seal", "reason": reason},
                                     self.drain_timeout)
                clean = bool(reply.get("sealed"))
            except WorkerFault:
                pass
        if not clean:
            try:
                self.proc.terminate()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=self.drain_timeout)
        except subprocess.TimeoutExpired:
            return False
        return clean or self.proc.returncode == 0

    def describe(self) -> dict:
        entry = {**super().describe(),
                 "incarnation": self.incarnation,
                 "pid": self.proc.pid if self.alive() else None}
        if self.alive():
            try:
                reply = self.request({"cmd": "status"}, self.status_deadline)
            except WorkerFault:
                reply = {}
            entry["queue_depth"] = reply.get("queue_depth")
            entry["events_processed"] = reply.get("events_processed")
        return entry


class ProcessFabric(Supervisor):
    """The fabric with one OS worker process per shard, supervised as
    a true parent.

    Construction starts every worker, then awaits each one's ready
    frame, so the workers boot side by side and the fabric is up about
    one boot after it began, not one per shard.  A worker missing its
    ready frame ``spawn_deadline_seconds`` after its own start has
    failed to start.  Without ``chaos`` that fails construction: every
    worker is put away (one still booting is signalled, not sent a
    ``seal``) and the fault is raised.  With ``chaos`` it is a death
    to contain, restarted like any other.

    Parameters
    ----------
    builder / builder_args:
        ``"module:function"`` reference (plus its JSON args) each
        worker resolves to build ``(anubis, nodes, service_config)``
        -- see :func:`default_builder`.
    journal_root:
        Parent directory; shard N journals under
        ``journal_root/shard-NN``.  Required: a process fabric without
        journals could not recover anything from a dead child.
    config:
        :class:`~repro.service.supervisor.SupervisorConfig`.
    chaos:
        Optional :class:`~repro.service.chaos.ChaosPlan` shipped to
        every worker (workers fault *themselves*).  A plan setting a
        fault the process transport cannot inject is refused here,
        before any worker spawns.
    status_deadline_seconds / tick_deadline_seconds /
    spawn_deadline_seconds / drain_timeout_seconds:
        RPC deadlines: liveness probe, one tick (bounded by real
        validation work), process start (the fork -- plus the
        zygote's imports when it starts one -- builder and journal
        recovery, from that worker's start), and graceful drain before
        escalation to ``SIGKILL``.  All must be positive.
    """

    def __init__(self, *, builder: str, builder_args: dict | None = None,
                 journal_root, config: SupervisorConfig | None = None,
                 chaos: ChaosPlan | None = None,
                 heartbeat_every: int = 1,
                 status_deadline_seconds: float = 10.0,
                 tick_deadline_seconds: float = 120.0,
                 spawn_deadline_seconds: float = 120.0,
                 drain_timeout_seconds: float = 10.0):
        if journal_root is None:
            raise ServiceError(
                "ProcessFabric requires a journal_root: dead workers are "
                "recovered from their journals")
        for name, value in (
                ("status_deadline_seconds", status_deadline_seconds),
                ("tick_deadline_seconds", tick_deadline_seconds),
                ("spawn_deadline_seconds", spawn_deadline_seconds),
                ("drain_timeout_seconds", drain_timeout_seconds)):
            if value <= 0:
                raise ServiceError(f"{name} must be positive, got {value}")
        if heartbeat_every < 0:
            raise ServiceError("heartbeat_every must be non-negative")
        if chaos is not None:
            chaos.check_transport("process")
        super().__init__(config or SupervisorConfig(), {})
        _live_fabrics.add(self)
        self.journal_root = Path(journal_root)
        self.chaos = chaos
        self.workers = self.transports = [
            _WorkerHandle(
                WorkerSpec(
                    shard_index=index,
                    journal_dir=str(self.journal_root / f"shard-{index:02d}"),
                    builder=builder,
                    builder_args=dict(builder_args or {}),
                    heartbeat_every=int(heartbeat_every),
                    chaos=None if chaos is None else chaos.to_payload()),
                self._sku_index,
                status_deadline=float(status_deadline_seconds),
                tick_deadline=float(tick_deadline_seconds),
                spawn_deadline=float(spawn_deadline_seconds),
                drain_timeout=float(drain_timeout_seconds))
            for index in range(self.config.shard_count)
        ]
        self._sealed = False
        try:
            # Every worker is started before any is awaited, so the
            # boots overlap; each one's spawn deadline runs from its
            # own start.
            for step in (_WorkerHandle.start, _WorkerHandle.await_ready):
                for handle in self.workers:
                    if handle.state is not ShardState.RUNNING:
                        continue    # its fault is already contained
                    try:
                        step(handle)
                    except WorkerFault as fault:
                        # A worker can die during its very first journal
                        # appends (a chaos kill at prefix 1 lands here).
                        # With fault injection armed that is a death to
                        # contain, not a construction error; without
                        # it, fail fast -- a spawn that dies with no
                        # fault injected is a bad builder, and a restart
                        # loop would only obscure it.
                        if self.chaos is None:
                            raise
                        self._note_fault(handle, fault)
        except BaseException:
            self.shutdown(reason="startup-failure")
            raise
        self.reconcile_handoffs()

    def shutdown(self, *, reason: str = "shutdown") -> dict[int, bool]:
        """Graceful end-to-end drain of every worker process.

        :meth:`~repro.service.supervisor.Supervisor.seal` every live
        worker, then SIGKILL and reap whatever did not leave within
        ``drain_timeout_seconds``.  The last fabric of this process to
        shut down also stops the zygotes.  Returns per-shard ``True``
        when the worker exited within its drain window.  Idempotent.
        """
        if self._sealed:
            return {}
        self._sealed = True
        sealed = self.seal(reason=reason)
        for handle in self.workers:
            handle.ensure_dead()
            handle.close_journal()
        _live_fabrics.discard(self)
        if not _live_fabrics:
            while _zygotes:
                _zygotes.pop().close()
        return sealed

    def __enter__(self) -> "ProcessFabric":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

