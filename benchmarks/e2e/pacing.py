"""Calibration checkpoints inside the program's long calls.

A recovery, a report or a fleet learn is one call into the program
lasting 0.3-3 s, and this machine's speed shifts within a tenth of
that, so bracketing the call with slices before and after leaves most
of the shifts unseen.  :class:`Pacer` wraps a handful of the program's
frequently called public functions -- from outside, the way
:mod:`spans` does -- with a hook that calls
:meth:`~calibrate.SpeedMeter.checkpoint` on the meter currently timing
work, so every long call is normalised chunk by chunk like the drive
loop is.  The hook costs one clock read per call and is installed in
traced and untraced passes alike.

A hooked name the program no longer has is skipped with a note
(:func:`hooks.replace`).  A long call inside which no hook fired any
more is *not* passed over: :meth:`Pacer.timed` raises
:class:`Unpaced`, because a timing that has quietly fallen back to its
two brackets has another noise profile than the one the bounds were
set from.
"""

from __future__ import annotations

import threading

import hooks
from calibrate import SpeedMeter

__all__ = ["Pacer", "Unpaced", "HOOKED"]

#: Public names of the program that are called often inside its long
#: calls, by where they are defined.
HOOKED = (
    "repro.service.store:decode_journal_line",       # replay, report read: per line
    "repro.analytics.slo:ServiceCountersReducer.consume",   # report: per record
    "repro.benchsuite.runner:SuiteRunner.run",       # learn: per execution
    "repro.core.criteria:learn_criteria",            # learn: per key
    "repro.core.incremental:learn_criteria_incremental",
    "repro.quality.rollout:evaluate_rollout",        # rollout gate: per key
)

#: A call this many chunks long in which no chunk was closed has lost
#: its hooks.
UNPACED_CHUNKS = 10


class Unpaced(RuntimeError):
    """A long call ran from bracket to bracket with no checkpoint."""


class Pacer:
    """Owns the hooks; ``meter`` is whoever is timing work right now."""

    def __init__(self):
        self.meter = None
        self.notes: list[str] = []
        self._main = threading.get_ident()
        for path in HOOKED:
            hooks.replace(path, self._hooked, self.notes)

    def _hooked(self, fn):
        def hooked(*args, **kwargs):
            # Pool threads run benchmarks too; only the thread that owns
            # the meter's clock may stop it.
            if (self.meter is not None
                    and threading.get_ident() == self._main):
                self.meter.checkpoint()
            return fn(*args, **kwargs)

        return hooked

    def timed(self, meter, fn, *, blocked: bool = False) -> tuple[float, float]:
        """Run ``fn`` once under ``meter``; returns ``(raw seconds,
        speed index)`` with the index weighted chunk by chunk.
        ``blocked`` says the call waits on other processes, where no
        hook of this process can fire."""
        meter.begin()
        self.meter = meter
        try:
            fn()
        finally:
            self.meter = None
        raw, normalised, _last = meter.end()
        if (not blocked and meter.chunks == 1
                and raw > UNPACED_CHUNKS * SpeedMeter.CHUNK_SECONDS):
            raise Unpaced(
                f"{raw:.2f} s of timed work closed no calibration chunk: "
                f"none of {', '.join(HOOKED)} was called inside it")
        return raw, normalised / raw
