"""Executing a plan builds no ``Fraction``.

Subscripts and loop bounds are evaluated on the IR's integer rows, so the
per-instance interpreter, the compiled backend's kernels and the sequential
reference run on Python ints only.  Every ``Fraction`` constructed while the
small corpus executes is counted here.
"""

from fractions import Fraction

import pytest

from repro.core.strategy import plan
from repro.runtime.backends import execute
from repro.runtime.executor import execute_sequential, make_store
from repro.workloads.corpus import selection_corpus


@pytest.fixture(scope="module")
def planned():
    return [(e, plan(e.program, e.params)) for e in selection_corpus(size="small")]


@pytest.fixture
def fraction_count(monkeypatch):
    """A one-element list counting the ``Fraction``s built from now on."""
    count = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    # Python 3.12+ builds arithmetic results without calling __new__.
    coprime = Fraction.__dict__.get("_from_coprime_ints")
    if coprime is not None:
        def counting_coprime(cls, numerator, denominator):
            count[0] += 1
            return coprime.__func__(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return count


@pytest.mark.parametrize("backend", ["serial", "compiled"])
def test_backends_build_no_fraction(planned, backend, fraction_count):
    for e, p in planned:
        result = execute(e.program, p.schedule, e.params, store=make_store(e.program),
                         backend=backend)
        assert result.instances_executed > 0
    assert fraction_count[0] == 0


def test_execute_sequential_builds_no_fraction(planned, fraction_count):
    for e, _ in planned:
        execute_sequential(e.program, e.params)
    assert fraction_count[0] == 0


def test_the_counter_sees_fractions(fraction_count):
    Fraction(1, 2) + Fraction(1, 3)
    assert fraction_count[0] >= 2
