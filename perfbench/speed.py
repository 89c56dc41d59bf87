"""The benchmark's clock, corrected for the speed of the host.

Program calls are timed in the CPU time of this process. With one package
worker and one BLAS thread the program runs on one thread at a time, so on
an idle core this equals wall time; unlike wall time it leaves out the time
the (virtual) CPU was given to other work.

That alone does not make runs comparable on a shared host: the speed of the
CPU itself drifts by 0.7x to 1.3x over tens of seconds, often for whole
runs, and every call's time moves with it. So each call is bracketed by a
fixed probe (``probe_s``), and its time is scaled by
``PROBE_NOMINAL_S / probe time``: it is reported in seconds of the
reference box at its nominal speed. On that box, over 150-330 s of program
calls alternating with probes, the scaling cut the log standard deviation
of ~10 s medians from 0.07-0.20 raw to 0.04-0.09.
"""

from __future__ import annotations

import gc
import time

clock = time.process_time

# The median probe time on the reference box (2-vCPU Intel Xeon, Python
# 3.11, numpy 2, one BLAS thread). Only the scale of the reported times
# depends on it, not how two runs compare.
PROBE_NOMINAL_S = 0.004


def probe_s() -> float:
    """CPU seconds of a fixed piece of work (3-4 ms on the reference box):
    an interpreter loop, a chain of small elementwise numpy calls, a
    sliding-window einsum like the encoder's convolutions and a recurrent
    chain of small matrix-vector products like its GRU, about 1 ms each."""
    import numpy as np  # here, so that numpy loads inside the program's timed import

    rng = np.random.default_rng(0)
    small = rng.standard_normal((32, 100))
    windows = np.lib.stride_tricks.sliding_window_view(rng.standard_normal((16, 64)), 5, axis=1)
    filters = rng.standard_normal((32, 16, 5))
    gates = rng.standard_normal((384, 128)) * 0.1
    start = clock()
    total = 0
    for i in range(15000):
        total += i * i
    x = small
    for _ in range(80):
        x = np.tanh(x * 0.5 + small)
    for _ in range(3):
        np.einsum("cok,dck->do", windows, filters)
    h = np.zeros(128)
    for _ in range(80):
        h = np.tanh((gates @ h)[:128] + 0.5)
    return clock() - start


class Stopwatch:
    """Times a call in CPU seconds, raw and scaled to the nominal speed."""

    def __init__(self):
        self.speeds: list[float] = []  # the host's speed around each call, 1.0 = nominal

    def time(self, call):
        """(result, scaled seconds, raw seconds) of `call()`. Garbage left
        by earlier calls is collected first, so that a call pays only for
        collections of its own garbage."""
        gc.collect()
        before = probe_s()
        start = clock()
        result = call()
        raw = clock() - start
        speed = PROBE_NOMINAL_S / ((before + probe_s()) / 2)
        self.speeds.append(speed)
        return result, raw * speed, raw

    def scale(self, raw: float) -> float:
        """`raw` seconds, just spent, at nominal speed (for calls that must
        run before numpy is loaded, such as the program's import)."""
        speed = PROBE_NOMINAL_S / probe_s()
        self.speeds.append(speed)
        return raw * speed
