"""Path setup for the benchmark harness.

Every benchmark file reproduces one table or figure of the paper (see the
per-experiment index in DESIGN.md).  The brute-force oracle the scaling
gates compare against lives with the tests (``tests/oracle.py``) and is put
on ``sys.path`` here.  The helpers the benches import (``emit``,
``run_once``, the row stamping) live in ``benchrows.py``: a module named
``conftest`` would clash with ``tests/conftest.py`` when one pytest run
collects both directories.
"""

import os
import sys

import pytest
from benchrows import emit

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests"))


@pytest.fixture
def report():
    return emit
