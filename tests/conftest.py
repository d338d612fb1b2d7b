"""Shared test configuration: helper-module path and Hypothesis profiles.

``tests/strategies.py`` (the shared Hypothesis strategies for random loop
programs) is a plain helper module, not a test file; the tests directory is
not a package, so it is put on ``sys.path`` here for ``from strategies
import ...`` to work from any test subdirectory.

Two Hypothesis profiles are registered:

* ``ci`` — the reproducible profile CI pins with ``--hypothesis-profile=ci``:
  derandomized (fixed seed derived from each test, so every run generates the
  same programs), a fixed example budget, and no per-example deadline (the
  exact analyser's first call pays numpy warm-up that would trip the default
  200 ms deadline on shared runners).
* ``dev`` — the default everywhere else: fewer examples so the tier-1 suite
  stays fast, still no deadline.

A leak guard fails the session at :func:`pytest_sessionfinish` when a
multiprocessing child is still alive, or a ``/dev/shm/psm_*`` shared-memory
segment created during the session is still there: every pool and segment a
test starts must be reclaimed by the test itself.
"""

import glob
import multiprocessing
import os
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


#: Segments that existed before this session; only new ones count as leaks.
_SHM_BEFORE = _shm_segments()


def pytest_sessionfinish(session, exitstatus):
    children = multiprocessing.active_children()
    segments = sorted(_shm_segments() - _SHM_BEFORE)
    if not children and not segments:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_sep("=", "leak guard", red=True)
        for child in children:
            reporter.write_line(f"live multiprocessing child: {child!r}")
        for segment in segments:
            reporter.write_line(f"leaked shared-memory segment: {segment}")
    session.exitstatus = pytest.ExitCode.TESTS_FAILED

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "dev",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
