"""API-surface guard: every module imports and every ``__all__`` name exists.

With the planning facade in place the historical entry points live on as
shims, and the top-level package re-exports the facade — this test walks
every ``repro`` module and verifies that (a) it imports cleanly and (b)
every name it advertises in ``__all__`` actually resolves, so a refactor
can never silently break an advertised import.
"""

import importlib
import pkgutil

import pytest

import repro


def _iter_module_names():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


MODULES = sorted(set(_iter_module_names()))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(exported) == len(set(exported)), f"duplicate names in {name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ advertises missing names: {missing}"


def test_facade_is_exported_top_level():
    for attr in ("plan", "Plan", "PlanConfig", "PlanCache", "strategy_names"):
        assert attr in repro.__all__
        assert hasattr(repro, attr)


def test_one_materialised_phase_form():
    """A schedule phase is one :class:`Phase` of arrays (or a symbolic phase
    that lowers to one): the retired tuple and per-kind array phase classes
    are gone from ``repro.core``."""
    import repro.core as core
    import repro.core.schedule as schedule

    for name in ("ExecutionUnit", "ParallelPhase", "ArrayPhase", "UnifiedArrayPhase"):
        assert name not in core.__all__
        assert not hasattr(core, name)
        assert not hasattr(schedule, name)
    assert "Phase" in core.__all__


def test_names_the_steady_benchmark_wraps_exist():
    """perfbench wraps these attributes by name to time its layers; a
    rename must be a deliberate change to the benchmark, not a silent miss."""
    from repro.analysis import features
    from repro.codegen import python_source
    from repro.core import strategy
    from repro.runtime import backends

    for module, name in (
        (backends, "_serial_runner"),
        (backends, "execute"),
        (strategy, "plan"),
        (strategy, "program_fingerprint"),
        (strategy, "DependenceAnalysis"),
        (strategy, "get_strategy"),
        (features, "program_features"),
        (python_source, "ensure_symbolic_kernel"),
    ):
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"
