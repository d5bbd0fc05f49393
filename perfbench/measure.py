"""Sample bookkeeping and the statistics the benchmark reports."""

from __future__ import annotations

import bisect
import gc
import math
import resource
import statistics
import threading
import time
from array import array

#: Percentiles a tail latency is chosen from, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n, p):
    """1-based nearest rank of percentile ``p`` among ``n`` samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def percentile(values, p):
    """Nearest-rank percentile of ``values`` (0 < p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n, p):
    """How many of ``n`` samples lie beyond the nearest-rank ``p``."""
    return n - _rank(n, p)


def tail(values, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """``(p, value, samples beyond)`` at the highest percentile of
    ``ladder`` that has at least ``min_beyond`` samples beyond it; falls
    back to the median when even that has fewer. This rule, applied to
    half a calm run's op count, fixes each workload's
    ``tail_percentile`` in ``metrics.json``."""
    n = len(values)
    chosen = ladder[0]
    for p in ladder:
        if beyond(n, p) >= min_beyond:
            chosen = p
    return chosen, percentile(values, chosen), beyond(n, chosen)


# -- host speed ----------------------------------------------------------------
#
# The benchmark shares a host whose speed drifts by tens of percent within
# minutes (other tenants, frequency scaling). Every time it reports is
# therefore scaled to a reference host speed: a fixed calibration kernel,
# which runs none of the program, is timed between ops throughout the run,
# and each sample is multiplied by REFERENCE_CAL_S over the kernel's time
# around that sample. A change to the program moves the scaled times as it
# moves the raw ones; a change in the host's speed moves both the kernel
# and the samples and cancels. The raw wall-clock figures are printed too.

#: Seconds the calibration kernel takes on the reference host, so a scaled
#: time is the wall-clock time a run on that host would have measured.
REFERENCE_CAL_S = 1.5e-3

#: Seconds between two host-speed samples taken at op boundaries.
CALIBRATE_EVERY = 0.1

#: Host-speed samples whose median scales one sample (nearest in time).
SCALE_WINDOW = 9


#: Source text the calibration kernel compiles: fixed, and unrelated to
#: the program.
CALIBRATION_SOURCE = "\n".join(
    "def f%d(x, y):\n"
    "    z = [x * %d + y for __ in range(3)]\n"
    "    if x > y:\n"
    "        return {'a': z, 'b': (x, y)}\n"
    "    return sum(z) + %d\n" % (i, i, i) for i in range(20))


def calibration_kernel():
    """Fixed work that runs none of the program: CPython compiling
    :data:`CALIBRATION_SOURCE`. Its many code paths and allocations slow
    down with the host much as the program's ops do, which a tight loop
    over a few objects was measured not to."""
    return compile(CALIBRATION_SOURCE, "<calibration>", "exec")


def peak_rss_mb():
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Samples:
    """``(t, seconds)`` pairs kept in two flat arrays of doubles, 16 bytes
    a pair, so a long run's samples hardly move the process's peak
    memory."""

    def __init__(self, pairs=()):
        self.t = array("d")
        self.s = array("d")
        for pair in pairs:
            self.append(pair)

    def append(self, pair):
        self.t.append(pair[0])
        self.s.append(pair[1])

    def __len__(self):
        return len(self.s)

    def __iter__(self):
        return zip(self.t, self.s)

    def __getitem__(self, i):
        return self.t[i], self.s[i]


class Recorder:
    """One run's samples: op latencies, set-up and cold-start times, the
    measured cycles and host-speed samples, each as ``(t, seconds)`` with
    ``t`` the midpoint on the ``perf_counter`` clock; and the
    attempted/failed op counts. Thread-safe for the fleet's clients,
    which turn ``auto_calibrate`` off: it takes a host-speed sample at an
    op boundary every :data:`CALIBRATE_EVERY` seconds, which is only
    sound while a single thread runs; the clients instead all run the
    kernel at once between :meth:`open_sample` and :meth:`close_sample`,
    so the sample meets the same contention as their ops."""

    def __init__(self, auto_calibrate=True):
        self.forget()
        self.calib = Samples()
        self.aside = 0.0        # seconds spent calibrating
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.auto_calibrate = auto_calibrate
        self._last_cal = -math.inf
        self._collector_was_on = True
        self._lock = threading.Lock()

    def forget(self):
        """Drop the time samples taken so far; host-speed samples and the
        attempted/failed counts stay."""
        self.latencies = Samples()
        self.setup = Samples()
        self.cold = Samples()
        self.cycles = Samples()
        self.cycle_ops = array("d")     # ops completed in each cycle

    def tick(self):
        """A point where no op runs: take a host-speed sample if
        ``auto_calibrate`` is on and one is due."""
        if (self.auto_calibrate
                and time.perf_counter() - self._last_cal >= CALIBRATE_EVERY):
            self.calibrate()

    def calibrate(self):
        """Take one host-speed sample in this thread; its time is set
        aside."""
        t0 = self.open_sample()
        calibration_kernel()
        self.close_sample(t0)

    def open_sample(self):
        """Start a host-speed sample and return its start. The collector
        is off until :meth:`close_sample`, so that the program's own
        collector settings cannot move the sample."""
        self._collector_was_on = gc.isenabled()
        gc.disable()
        return time.perf_counter()

    def close_sample(self, t0, threads=1):
        """End the sample started at ``t0``, in which each of ``threads``
        threads ran the kernel once; its time is set aside."""
        t1 = time.perf_counter()
        if self._collector_was_on:
            gc.enable()
        self.calib.append(((t0 + t1) / 2, (t1 - t0) / threads))
        self.aside += t1 - t0
        self._last_cal = t1

    def stamp(self):
        """A start mark for :meth:`since`."""
        return time.perf_counter(), self.aside

    def since(self, mark, into):
        """Append the time since ``mark`` (calibration left out) to the
        sample list ``into``."""
        t1 = time.perf_counter()
        t0, aside0 = mark
        with self._lock:
            into.append(((t0 + t1) / 2, t1 - t0 - (self.aside - aside0)))

    def fail(self, message, attempt=False):
        """Count a failure; ``attempt`` also counts the attempt, for a
        check made outside :meth:`op`."""
        with self._lock:
            self.attempted += attempt
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(message)

    def op(self, tracer, op_id, fn, expected, same=None):
        """Time ``fn()`` as one op inside the tracer's op span and check
        its output against ``expected`` (``same(out, expected)``, default
        equality). Returns whether the op succeeded."""
        self.tick()
        with self._lock:
            self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.op(op_id):
                out = fn()
        except Exception as exc:
            self.fail("op %s raised %s: %s" % (op_id, type(exc).__name__,
                                               exc))
            return False
        t1 = time.perf_counter()
        with self._lock:
            self.latencies.append(((t0 + t1) / 2, t1 - t0))
        ok = same(out, expected) if same is not None else out == expected
        if not ok:
            self.fail("op %s: got %r, expected %r" % (op_id, out, expected))
        return ok

    def scale(self):
        """``t -> factor`` that scales a sample taken at ``t`` to the
        reference host: :data:`REFERENCE_CAL_S` over the median of the
        :data:`SCALE_WINDOW` host-speed samples nearest in time (1 when
        there are none)."""
        cal = sorted(self.calib)
        if not cal:
            return lambda t: 1.0
        times = [t for t, __ in cal]
        width = min(SCALE_WINDOW, len(cal))

        def factor(t):
            i = bisect.bisect_left(times, t)
            lo = max(0, min(i - width // 2, len(cal) - width))
            return REFERENCE_CAL_S / statistics.median(
                s for __, s in cal[lo:lo + width])
        return factor

    def end_to_end(self, tail_p, factor=None):
        """The end-to-end metrics, ``({name: (value, unit)}, extra)``,
        with the tail latency taken at percentile ``tail_p``. Times are
        scaled by ``factor`` (default :meth:`scale`; pass
        ``lambda t: 1.0`` for raw wall-clock figures)."""
        factor = factor or self.scale()

        def scaled(samples):
            return [s * factor(t) for t, s in samples]

        lat_ms = [x * 1e3 for x in scaled(self.latencies)]
        completed = len(lat_ms)
        # The median cycle's rate: one cycle slowed by a burst of load on
        # the host cannot move it.
        rates = [n / s for n, s in zip(self.cycle_ops, scaled(self.cycles))]
        return {
            "setup_s": (statistics.median(scaled(self.setup)), "s"),
            "throughput_ops_s": (statistics.median(rates), "1/s"),
            "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
            "latency_tail_ms": (percentile(lat_ms, tail_p), "ms"),
            "cold_start_p50_ms": (statistics.median(scaled(self.cold)) * 1e3,
                                  "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }, {"tail_percentile": tail_p, "tail_beyond": beyond(completed,
                                                             tail_p),
            "ops": completed, "setup_samples": len(self.setup),
            "cold_samples": len(self.cold),
            "host_samples": len(self.calib),
            "host_speed": (REFERENCE_CAL_S / statistics.median(
                s for __, s in self.calib) if self.calib else 1.0),
            "error_rate": (self.failed / self.attempted
                           if self.attempted else 0.0)}


def close_enough(a, b, rel=1e-9, abs_tol=1e-9):
    """Deep numeric comparison for float results (lists, tuples,
    numpy arrays)."""
    if hasattr(a, "tolist"):
        a = a.tolist()
    if hasattr(b, "tolist"):
        b = b.tolist()
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        if not isinstance(a, (list, tuple)) or not isinstance(b, (list,
                                                                  tuple)):
            return False
        return len(a) == len(b) and all(close_enough(x, y, rel, abs_tol)
                                        for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        try:
            return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)
        except TypeError:
            return False
    return a == b
