"""Reference-speed normalisation for timings taken on a shared machine.

The box this benchmark runs on changes speed under it (1 s slices of a
fixed kernel: CV 16 %; 60 s means differ by up to 18 %), so raw wall
times from two runs of the same code disagree by more than any bound
worth gating on.  Every timed phase therefore interleaves slices of a
fixed *calibrator* kernel with its work and reports

    normalised time = wall time x speed_index
    speed_index     = calibrator rate in this phase / REFERENCE_RATE

i.e. the time the phase would have taken on the reference machine.
The calibrator is interpreter-bound on purpose (dict/list churn,
``json`` round trips, ``crc32`` over small buffers): that is the mix
the control plane itself runs, and it tracked the workload's slowdowns
where a cache-bound calibrator (a 30k-element sort) made the spread
worse.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import zlib

__all__ = ["REFERENCE_RATE", "REFERENCE_BOOT_S", "calibrator_slice",
           "boot_probe", "SpeedMeter", "UntimedMeter", "normalise_time",
           "spin"]

#: Calibrator operations per second on the machine the bounds were
#: sized on, in its sustained (not post-idle) regime.  A constant, not
#: a measurement: changing it rescales every normalised metric.
REFERENCE_RATE = 2.5e6

#: :func:`boot_probe` seconds on the same machine; likewise a constant.
REFERENCE_BOOT_S = 0.12

#: Operations per calibration slice (8 ms at reference speed).
SLICE_OPS = 20_000


def calibrator_slice(ops: int = SLICE_OPS) -> float:
    """Run ``ops`` calibrator operations; returns the seconds taken."""
    start = time.perf_counter()
    table: dict[int, list[int]] = {}
    acc = 0
    for i in range(ops):
        key = i & 63
        row = table.get(key)
        if row is None:
            row = table[key] = []
        row.append(i)
        if len(row) > 8:
            del row[:4]
        if not i & 15:
            blob = json.dumps({"k": key, "v": row})
            acc ^= zlib.crc32(blob.encode())
            acc += len(json.loads(blob)["v"])
    return time.perf_counter() - start


def boot_probe() -> float:
    """Seconds to start an interpreter and import numpy in it.

    The calibrator for time spent blocked on booting worker processes.
    A boot is process creation, page cache and imports on whichever
    core the child lands on, and follows the slices above poorly (the
    two cores' speeds correlate at 0.33); it follows this probe well:
    over 14 recovery cycles of the process fabric, correlation 0.88, and
    cycle / probe varied by 8 % where the cycles alone varied by 19 %.
    """
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - started


def spin(seconds: float) -> None:
    """Run the calibrator for ``seconds``: leaves the post-idle burst
    (the first run after idle is ~35 % faster) before anything is timed."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        calibrator_slice()


class SpeedMeter:
    """One phase's clock and its interleaved calibration slices.

    The machine's speed shifts by up to 2x within a tenth of a second
    (ten 30 ms repetitions between tight brackets repeat within 2 %;
    two 450 ms ones, same total work, within 16 %), so work is
    normalised *chunk by chunk*: between :meth:`begin` and :meth:`end`
    every call to :meth:`checkpoint` that finds a chunk's worth of
    work done closes the chunk with a slice, and the chunk's time is
    scaled by the slices on either side of it.  Loops call
    :meth:`checkpoint` themselves; a single long call into the program
    is chunked by the hooks in :mod:`pacing`.  :meth:`clock` stands
    still during slices, so calibration is never counted as work.
    """

    #: Work between two slices; with 8 ms slices a sixth of a phase
    #: goes to calibration (rule 1 asks for a tenth or more).
    CHUNK_SECONDS = 0.04

    def __init__(self, *, slice_fn=calibrator_slice,
                 slice_ops: int = SLICE_OPS):
        self._slice_fn = slice_fn
        self._slice_ops = slice_ops
        self.calibration_s = 0.0
        self.calibration_ops = 0
        self._origin = time.perf_counter()
        self._rate_before = self.slice()
        self._chunk_started = self.clock()
        self._raw_s = 0.0
        self._normalised_s = 0.0
        #: Chunks closed since :meth:`begin`, the last one included.
        self.chunks = 0

    def slice(self) -> float:
        """Run one slice; returns its rate in operations per second."""
        seconds = self._slice_fn(self._slice_ops)
        self.calibration_s += seconds
        self.calibration_ops += self._slice_ops
        return self._slice_ops / seconds

    def clock(self) -> float:
        """Seconds of phase time so far, calibration excluded."""
        return time.perf_counter() - self._origin - self.calibration_s

    def begin(self) -> None:
        """Start timing work.  The last slice taken (at construction, or
        closing the previous piece of work) is the bracket before it."""
        self._chunk_started = self.clock()
        self._raw_s = 0.0
        self._normalised_s = 0.0
        self.chunks = 0

    def _close_chunk(self, now: float) -> float:
        rate_after = self.slice()
        index = (self._rate_before + rate_after) / 2.0 / REFERENCE_RATE
        self._rate_before = rate_after
        self._raw_s += now - self._chunk_started
        self._normalised_s += (now - self._chunk_started) * index
        self._chunk_started = self.clock()
        self.chunks += 1
        return index

    def checkpoint(self) -> float | None:
        """Close the current chunk if it is long enough; returns the
        closed chunk's speed index, else ``None``."""
        now = self.clock()
        if now - self._chunk_started < self.CHUNK_SECONDS:
            return None
        return self._close_chunk(now)

    def end(self) -> tuple[float, float, float]:
        """Close the last chunk; returns ``(raw seconds, normalised
        seconds, the last chunk's index)`` since :meth:`begin`."""
        index = self._close_chunk(self.clock())
        return self._raw_s, self._normalised_s, index

    @property
    def speed_index(self) -> float:
        """Mean index over every slice of the phase."""
        return (self.calibration_ops / self.calibration_s) / REFERENCE_RATE


class UntimedMeter:
    """Stands in for a :class:`SpeedMeter` where a loop is run for its
    outputs, not its timings: no slices, the plain clock."""

    clock = staticmethod(time.perf_counter)

    def begin(self) -> None:
        pass

    def checkpoint(self) -> None:
        return None

    def end(self) -> tuple[float, float, float]:
        return 0.0, 0.0, 1.0


def normalise_time(raw: float, speed_index: float) -> float:
    """A duration as it would read at reference speed."""
    return raw * speed_index
