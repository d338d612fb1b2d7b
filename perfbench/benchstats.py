"""Statistics and host-speed calibration for the benchmark.

Everything here is pure arithmetic on lists of floats, kept apart from the
workloads so ``test_perfbench_stats.py`` can pin it without running the
planner.

Host normalisation: the benchmark's host shares its CPU with other tenants
and its clock speed drifts by tens of percent within minutes.  A fixed
pure-Python reference loop slows down by the same factor as the planner's
own pure-Python work, so an in-process timing is reported as::

    normalised = wall × NOMINAL_REF_MS / median(reference-loop ms)

i.e. "what the operation would have taken on a host that runs the loop in
exactly ``NOMINAL_REF_MS``".
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: The reference loop's nominal duration; normalised times are quoted on a
#: host that runs :func:`reference_loop_ms` in exactly this long.
NOMINAL_REF_MS = 10.0

#: Iterations of the reference loop's two halves (about 10 ms together on a
#: 2-core x86 VM, Python 3.11).
REF_INT_ITERATIONS = 60_000
REF_OBJECT_ITERATIONS = 4_500

#: The tail is the mean of the slowest tenth of samples, but never of fewer
#: than this many (a single slow sample must not decide the metric).
TAIL_MIN_SAMPLES = 10


def reference_loop_ms() -> float:
    """Run the fixed pure-Python reference loop once; returns its wall ms.

    One half is integer arithmetic, the other builds ``Fraction``, tuple and
    dict objects the way the planner's analysis does.  Measured against cold
    ``plan()`` calls on a shared host, the two halves together tracked the
    host's speed better than either alone (inter-quartile spread of
    plan time / loop time: 8-11 % for both, 12-18 % for either, 45-48 % raw).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_INT_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    counts: Dict[Tuple[int, int], int] = {}
    total = Fraction(0)
    for i in range(REF_OBJECT_ITERATIONS):
        f = Fraction(i % 97 + 1, i % 13 + 1)
        key = (i % 31, i % 7)
        counts[key] = counts.get(key, 0) + f.numerator
        if i % 50 == 0:
            total += f
    elapsed = time.perf_counter() - t0
    if acc < 0 or total < 0:  # consumes the results so no work is dead
        raise AssertionError("unreachable")
    return elapsed * 1e3


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of an empty sample")
    if min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def tail_mean(values: Sequence[float], share: float = 0.1,
              min_samples: int = TAIL_MIN_SAMPLES) -> float:
    """Mean of the slowest ``share`` of ``values``, over at least
    ``min_samples`` of them (all of them when there are fewer)."""
    if not values:
        raise ValueError("tail mean of an empty sample")
    k = max(min_samples, math.ceil(share * len(values)))
    slowest = sorted(values)[-min(k, len(values)):]
    return math.fsum(slowest) / len(slowest)


def host_factor(ref_samples_ms: Iterable[float],
                nominal_ms: float = NOMINAL_REF_MS) -> float:
    """Multiplier that maps this run's wall times onto the nominal host."""
    samples = list(ref_samples_ms)
    if not samples:
        raise ValueError("no reference-loop samples")
    return nominal_ms / statistics.median(samples)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the steadiness
    measure the benchmark's bounds are checked against)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class HostClock:
    """Reference-loop samples taken between operations of one run.

    ``due()`` says whether enough operation time has passed since the last
    sample; the caller runs :meth:`sample` only while no operation is in
    flight, so the loop never competes with the work it calibrates.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples_ms: List[float] = []
        self._since = 0.0

    def account(self, op_seconds: float) -> None:
        self._since += op_seconds

    def due(self) -> bool:
        return self._since >= self.every_s or not self.samples_ms

    def sample(self) -> None:
        self.samples_ms.append(reference_loop_ms())
        self._since = 0.0

    @property
    def ref_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def factor(self) -> float:
        return host_factor(self.samples_ms)


def summarise_ops(latencies_s: Sequence[float], window_s: float,
                  factor: float = 1.0) -> dict:
    """The per-operation end-to-end figures of one run, scaled by ``factor``
    (1.0 = raw wall clock)."""
    ms = [s * 1e3 * factor for s in latencies_s]
    return {
        "op_geomean_ms": geomean(ms),
        "op_tail_ms": tail_mean(ms),
        "ops_per_s": len(ms) / (window_s * factor),
    }


class Run:
    """Latencies, failures and host-loop samples of one measured window.

    ``window_s`` is the time operations were on the clock; checking outputs
    and sampling the reference loop happen off it.
    """

    def __init__(self, sample_every_s: float = 0.25):
        self.latencies: List[float] = []
        self.ref_index: List[int] = []
        self.window_s = 0.0
        self.failures: List[str] = []
        self.clock = HostClock(sample_every_s)
        self.attempted = 0

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run one operation on the clock, sampling the host loop first when
        a sample is due."""
        if self.clock.due():
            self.clock.sample()
        self.attempted += 1
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        self.record(dt)
        return out, dt

    def record(self, dt: float, window: bool = True) -> None:
        """Add one latency (and, unless the caller times the window itself,
        add it to the window)."""
        self.latencies.append(dt)
        self.ref_index.append(len(self.clock.samples_ms))
        if window:
            self.clock.account(dt)
            self.window_s += dt

    def local_factors(self) -> List[float]:
        """Per-operation host factor from the reference samples on either
        side of it (the last one before, the first one after)."""
        refs = self.clock.samples_ms
        return [NOMINAL_REF_MS / statistics.mean(refs[max(i - 1, 0):i + 1])
                for i in self.ref_index]

    def figures(self) -> Dict[str, Dict[str, float]]:
        """``{"normalised", "global", "raw"}`` :func:`summarise_ops` figures:
        normalised per operation by its neighbouring reference samples, by
        the run's median reference sample, and not at all."""
        local = self.local_factors()
        scaled = [dt * f for dt, f in zip(self.latencies, local)]
        factor = sum(scaled) / sum(self.latencies)
        return {
            "normalised": summarise_ops(scaled, self.window_s * factor),
            "global": summarise_ops(self.latencies, self.window_s, self.clock.factor),
            "raw": summarise_ops(self.latencies, self.window_s),
        }


def run_passes(seconds: float, one_pass: Callable[[Run], None]) -> Run:
    """Repeat whole passes until ``seconds`` of wall time have gone by."""
    run = Run()
    deadline = time.perf_counter() + seconds
    while True:
        one_pass(run)
        if time.perf_counter() >= deadline:
            return run
