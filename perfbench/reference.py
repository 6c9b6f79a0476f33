"""A fixed reference kernel, interleaved with the program it measures.

On a shared virtual machine the same instructions take more or less CPU
time from second to second: neighbours contend for caches and memory
bandwidth, and the host changes clock speed. Such a slow spell stretches
the program and this kernel alike, so the ratio of their CPU times tracks
the program's own cost far more steadily than either time does, provided
the kernel runs in the same spells. So while :func:`start` is in effect, a
profiling timer interrupts the program after every ``PERIOD_S`` of its CPU
time and runs one pass of the kernel; :func:`wall_clock` and
:func:`cpu_clock` stop while a pass runs, so every timing taken with them
is the program's alone.

The kernel mixes the three kinds of work the workloads do, in roughly equal
shares: interpreted Python over lists and dicts (per-clip dispatch),
streaming NumPy over arrays larger than the caches (decode, normalisation,
MFCC), and BLAS matrix products (convolutions, baselines). It depends on
nothing in the program, so no change to the program moves it. Its arrays
are allocated once, so it adds a constant to the resident set and nothing
to its peaks.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.25  # program CPU seconds between passes
# Times scaled by the reference are given in seconds of a machine on which
# one pass takes this long, about what a 2-core x86-64 VM took. The factor
# is fixed, so it cancels from every comparison of two runs.
NOMINAL_PASS_S = 0.02

_MATRIX = np.random.default_rng(12345).standard_normal((192, 192))
_STREAM = np.linspace(-3.0, 3.0, 1 << 20)  # 8 MB of float64
_SCRATCH = np.empty_like(_STREAM)

passes = []          # CPU seconds of every pass run so far
_paused = [0.0, 0.0]  # wall and CPU seconds spent in passes so far
_previous_handler = None


def _python_part() -> int:
    table = {}
    total = 0
    for i in range(15000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total += len([key, i, total & 7])
    return total + sum(table.values())


def _stream_part() -> float:
    np.multiply(_STREAM, 0.5, out=_SCRATCH)
    np.add(_SCRATCH, 1.0, out=_SCRATCH)
    np.abs(_SCRATCH, out=_SCRATCH)
    np.sqrt(_SCRATCH, out=_SCRATCH)
    return float(_SCRATCH.sum() + np.abs(np.fft.rfft(_SCRATCH[: 1 << 16])).sum())


def _blas_part() -> float:
    m = _MATRIX
    for _ in range(12):
        m = np.tanh(m @ _MATRIX * 0.05)
    return float(m.sum())


def reference_cpu_s() -> float:
    """CPU seconds of one pass of the reference kernel."""
    start = time.process_time()
    _python_part()
    _stream_part()
    _blas_part()
    return time.process_time() - start


def wall_clock() -> float:
    """``time.perf_counter``, stopped while a pass runs."""
    return time.perf_counter() - _paused[0]


def cpu_clock() -> float:
    """``time.process_time``, stopped while a pass runs."""
    return time.process_time() - _paused[1]


def _on_timer(signum, frame) -> None:
    wall, cpu = time.perf_counter(), time.process_time()
    passes.append(reference_cpu_s())
    _paused[0] += time.perf_counter() - wall
    _paused[1] += time.process_time() - cpu
    if _previous_handler is not None:  # not stopped meanwhile
        # re-armed only now, so the period counts the program's CPU alone
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S)


def start() -> None:
    """Interleave passes with this process's work until :func:`stop`."""
    global _previous_handler
    _previous_handler = signal.signal(signal.SIGPROF, _on_timer)
    signal.siginterrupt(signal.SIGPROF, False)  # restart system calls it interrupts
    signal.setitimer(signal.ITIMER_PROF, PERIOD_S)


def stop() -> None:
    global _previous_handler
    if _previous_handler is None:
        return
    signal.setitimer(signal.ITIMER_PROF, 0)
    signal.signal(signal.SIGPROF, _previous_handler)
    _previous_handler = None
