"""Host-speed probe: a fixed pure-Python kernel timed beside every op.

On a shared host the same code and inputs can run 1.5-2x slower for
stretches of seconds to minutes, with CPU time equal to wall time, so the
slowdown is in the host, not in the program. The probe's kernel is
``Fraction`` matrix arithmetic of the kind schemelab spends its time in and
never calls schemelab, so its time moves with the host and not with the
program. ``scale`` turns a wall time into reference seconds: the time it
would take on a host where the kernel takes ``REFERENCE_S``.
"""
from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.006
_N = 6
_ROUNDS = 4


def _kernel():
    a = [[Fraction(i + 1, j + 2) for j in range(_N)] for i in range(_N)]
    for _ in range(_ROUNDS):
        a = [[sum((a[i][k] * a[k][j] for k in range(_N)), Fraction(0)) / (i + j + 1)
              for j in range(_N)] for i in range(_N)]
    return a


def probe() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, measured between two probes, in reference seconds."""
    return seconds * 2 * REFERENCE_S / (before + after)


class ScaledClock:
    """Wall time since its creation, cut at checkpoints.

    Each piece is scaled by the probes at its two ends, and the probes' own
    time is left out, so a long stretch such as a set-up of several seconds
    follows the host's speed as it changes.
    """

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0
        self._probe = probe()
        self.start = self._last = time.perf_counter()

    def checkpoint(self) -> None:
        piece = time.perf_counter() - self._last
        now = probe()
        self.wall += piece
        self.scaled += scale(piece, self._probe, now)
        self._probe, self._last = now, time.perf_counter()
