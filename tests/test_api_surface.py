"""API-surface guard: every module imports and every ``__all__`` name exists.

With the planning facade in place the historical entry points live on as
shims, and the top-level package re-exports the facade — this test walks
every ``repro`` module and verifies that (a) it imports cleanly and (b)
every name it advertises in ``__all__`` actually resolves, so a refactor
can never silently break an advertised import.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(module_name, name):
    """``from module_name import name``: an attribute, or a submodule."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")


def _perfbench_uses():
    """``(file, owner, name)`` for every ``from repro… import name``, every
    ``tracer.wrap`` / ``tracer.patch(owner, "name", …)`` and every
    ``owner.name`` read in ``perfbench/*.py``, where ``owner`` is a name such
    an import bound."""
    uses = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                for alias in node.names:
                    uses.append((path.name, node.module, alias.name))
                    bound[alias.asname or alias.name] = (node.module, alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("wrap", "patch")
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in bound
                and isinstance(node.args[1], ast.Constant)
            ):
                uses.append((path.name, bound[node.args[0].id], node.args[1].value))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
            ):
                uses.append((path.name, bound[node.value.id], node.attr))
    return uses


PERFBENCH_USES = list(dict.fromkeys(_perfbench_uses()))


def _use_id(use):
    """``file:module:name`` for an import, ``file:module.owner.name`` for
    an attribute of an imported name."""
    path, owner, name = use
    if isinstance(owner, str):
        return f"{path}:{owner}:{name}"
    return f"{path}:{'.'.join(owner)}.{name}"


def test_names_the_steady_benchmark_wraps_exist():
    """perfbench imports these names and wraps or reads these attributes to
    time its layers, so a rename must be a deliberate change to the
    benchmark, not a miss that only a perfbench run would show.  The list is
    read from perfbench's own source; this checks the scan finds the layers
    the traced runs wrap, and :func:`test_perfbench_use_resolves` resolves
    every use it finds."""
    names = {name for _, _, name in PERFBENCH_USES}
    assert {"ensure_symbolic_kernel", "kernel_cache_stats", "_serial_runner"} <= names


@pytest.mark.parametrize("use", PERFBENCH_USES, ids=_use_id)
def test_perfbench_use_resolves(use):
    path, owner, name = use
    if isinstance(owner, str):
        _resolve(owner, name)
    else:
        assert hasattr(_resolve(*owner), name), f"{path}: {'.'.join(owner)}.{name}"
