"""Executable statement semantics used by the runtime validators.

The partitioning schemes are *semantics preserving* transformations: any
schedule they produce must compute exactly the same array contents as the
original sequential loop.  To test that, every statement needs an executable
meaning.  Two standard semantics are provided:

* :func:`order_sensitive_semantics` (the default) — the written value is a
  non-commutative, order-sensitive integer function of the values read and of
  the iteration vector.  If a schedule executes two dependent iterations in
  the wrong order, or misses/duplicates an iteration, the final array contents
  differ from the sequential run with overwhelming probability, so the
  validator catches the bug.
* :func:`sum_semantics` — a simple accumulating semantics for benchmarks where
  raw arithmetic throughput matters more than detection strength.
* :func:`compute_heavy_semantics` — the order-sensitive mixing iterated for a
  fixed number of rounds, giving each statement instance a realistic amount of
  per-point compute.  The interpreter's per-instance dispatch is a few
  microseconds — far below the paper's real loop bodies — which makes runtime
  *overheads* dominate any executor measurement; the process-backend
  benchmarks use this kernel so the measured speedup reflects the schedule's
  parallelism rather than dispatch cost.  Module-level (and deliberately
  closure-free) so it pickles under every multiprocessing start method.

Both are pure functions of their arguments; all arithmetic is integer so the
comparison against the sequential reference is exact (no floating point
tolerance games).

Each of the three has a NumPy twin (:func:`order_sensitive_vector`,
:func:`sum_vector`, :func:`compute_heavy_vector`, found by
:func:`vectorized`) that computes the same values for whole arrays of
instances at once.  The ``compiled`` backend's lockstep executor
(:mod:`repro.runtime.lockstep`) calls the twins, so the argument that int64
arithmetic gives the interpreter's arbitrary-precision values is made here,
once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "order_sensitive_semantics",
    "sum_semantics",
    "compute_heavy_semantics",
    "COMPUTE_HEAVY_ROUNDS",
    "DEFAULT_SEMANTICS",
    "iteration_weights",
    "order_sensitive_vector",
    "sum_vector",
    "compute_heavy_vector",
    "vectorized",
]

# A large prime keeps the mixed values bounded while preserving the
# "different order => different value" property with high probability.
_MODULUS = 2_147_483_647  # 2^31 - 1 (Mersenne prime)


def order_sensitive_semantics(
    arrays: Mapping[str, object],
    env: Mapping[str, int],
    read_values: Sequence[int],
) -> int:
    """Order-sensitive integer mixing of the read values and iteration vector.

    The value depends on the *sequence* of updates that produced the read
    values (multiplication by 31 chains them non-commutatively with the
    iteration contribution), which is what makes ordering violations visible.
    """
    acc = 17
    for v in read_values:
        # Multiply the read value into the accumulator (coefficient != 1) so
        # that chaining two updates in different orders cannot cancel out.
        acc = (31 * (acc + int(v))) % _MODULUS
    for k, name in enumerate(sorted(env)):
        acc = (acc + (k + 2) * int(env[name])) % _MODULUS
    return acc


def sum_semantics(
    arrays: Mapping[str, object],
    env: Mapping[str, int],
    read_values: Sequence[int],
) -> int:
    """Accumulating semantics: written value = sum of reads + 1."""
    return int(sum(int(v) for v in read_values) + 1)


#: Mixing rounds of :func:`compute_heavy_semantics` — sized so one instance
#: costs tens of microseconds of pure-Python integer arithmetic (roughly the
#: work of a small real loop body under the interpreter).
COMPUTE_HEAVY_ROUNDS = 250


def compute_heavy_semantics(
    arrays: Mapping[str, object],
    env: Mapping[str, int],
    read_values: Sequence[int],
) -> int:
    """Order-sensitive mixing iterated :data:`COMPUTE_HEAVY_ROUNDS` times.

    Same detection property as :func:`order_sensitive_semantics` (the first
    round *is* that function's chain), then keeps mixing the accumulator so
    each statement instance performs a fixed, compute-bound amount of work.
    Deterministic, integer-exact, and picklable (module-level, no closure):
    the exact-equality validation story is unchanged, only the per-instance
    cost grows.
    """
    acc = 17
    for v in read_values:
        acc = (31 * (acc + int(v))) % _MODULUS
    for k, name in enumerate(sorted(env)):
        acc = (acc + (k + 2) * int(env[name])) % _MODULUS
    for _ in range(COMPUTE_HEAVY_ROUNDS):
        acc = (31 * acc + 7) % _MODULUS
    return acc


DEFAULT_SEMANTICS = order_sensitive_semantics


# ---------------------------------------------------------------------------
# the vectorised twins
# ---------------------------------------------------------------------------


def iteration_weights(index_names: Sequence[str]) -> Tuple[Tuple[str, int], ...]:
    """``(name, weight)`` of each loop index in the iteration term.

    The order-sensitive semantics add ``weight * env[name]`` for the
    environment's names in sorted order, weights from 2 up; the kernels add
    the whole term ``sum(weight * index)`` at once, which is congruent.  A
    name that occurs twice counts once, as in the ``dict`` environment the
    interpreter builds.
    """
    return tuple((name, k + 2) for k, name in enumerate(sorted(set(index_names))))


@lru_cache(maxsize=None)
def _chain_weights(k: int) -> Tuple[int, np.ndarray]:
    """``(17 * 31**k, [31**k, ..., 31**1])`` mod M: the order-sensitive
    chain over ``k`` reads, ``acc <- 31 * (acc + v)`` from 17, unrolled
    into one linear form of the reads."""
    weights = np.array([pow(31, k - j, _MODULUS) for j in range(k)], dtype=np.int64)
    return 17 * pow(31, k, _MODULUS) % _MODULUS, weights


def order_sensitive_vector(read_values, iteration_term) -> np.ndarray:
    """:func:`order_sensitive_semantics` of many instances at once.

    ``read_values`` holds the reads of every instance: an array whose first
    axis enumerates the reads (read ``j`` in row ``j``), or a sequence of
    arrays that broadcast together.  ``iteration_term`` is their
    :func:`iteration_weights` term.  The chain is unrolled into
    ``17 * 31**k + sum(31**(k - j) * v_j) + term`` mod M.  Each value is
    cast to int64 and reduced mod M first and each weight is below M, so
    every product stays below 2**62 and is reduced before the sum, which
    stays far from 2**63 for any term a loop of addressable size yields: the
    result is congruent to the interpreter's arbitrary-precision chain, and
    both are reduced into ``[0, M)``, so they are equal.
    """
    start, weights = _chain_weights(len(read_values))
    acc = start + iteration_term
    if isinstance(read_values, np.ndarray):
        if len(read_values):
            reads = read_values.astype(np.int64, copy=False) % _MODULUS
            weights = weights.reshape((-1,) + (1,) * (reads.ndim - 1))
            acc = acc + np.add.reduce(weights * reads % _MODULUS, axis=0)
    else:
        for weight, v in zip(weights.tolist(), read_values):
            acc = acc + weight * (np.asarray(v, dtype=np.int64) % _MODULUS) % _MODULUS
    return acc % _MODULUS


def sum_vector(read_values, iteration_term) -> np.ndarray:
    """:func:`sum_semantics` of many instances at once (reads as in
    :func:`order_sensitive_vector`; exact while the sums fit int64, which
    is where the interpreter can store them)."""
    if isinstance(read_values, np.ndarray):
        return 1 + np.add.reduce(read_values.astype(np.int64, copy=False), axis=0)
    acc = 1
    for v in read_values:
        acc = acc + np.asarray(v, dtype=np.int64)
    return acc


def _heavy_rounds() -> Tuple[int, int]:
    """``(a, b)`` with ``a * x + b`` congruent to the
    :data:`COMPUTE_HEAVY_ROUNDS` mixing rounds ``x <- 31 * x + 7``."""
    a, b = 1, 0
    for _ in range(COMPUTE_HEAVY_ROUNDS):
        a, b = (31 * a) % _MODULUS, (31 * b + 7) % _MODULUS
    return a, b


_HEAVY_A, _HEAVY_B = _heavy_rounds()


def compute_heavy_vector(read_values, iteration_term) -> np.ndarray:
    """:func:`compute_heavy_semantics` of many instances at once.

    The mixing rounds compose into one affine map mod M; ``a * acc`` stays
    below 2**62 because both factors are below M.
    """
    acc = order_sensitive_vector(read_values, iteration_term)
    return (_HEAVY_A * acc + _HEAVY_B) % _MODULUS


#: Each built-in semantics with its vectorised twin (``None`` is the default).
_TWINS = (
    (None, order_sensitive_vector),
    (order_sensitive_semantics, order_sensitive_vector),
    (sum_semantics, sum_vector),
    (compute_heavy_semantics, compute_heavy_vector),
)


def vectorized(semantics) -> Optional[Callable]:
    """The NumPy twin of a statement's ``semantics`` (``None`` = the
    default), or ``None`` for a user callable, which no kernel can run."""
    for scalar, twin in _TWINS:
        if semantics is scalar:
            return twin
    return None
