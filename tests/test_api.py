"""Guards on the package's public surface.

Every name a module lists in `__all__`, and every name the package
re-exports, exists and is public; no module reaches into another module's
`_`-prefixed names; the modules import each other only in the allowed layers;
the benchmark under `perfbench/` finds and traces what it calls.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import afsched
from afsched import ExperimentConfig, runner

SRC = Path(afsched.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def test_every_module_lists_existing_names_in_all() -> None:
    for name in MODULES:
        module = importlib.import_module(f"afsched.{name}")
        exported = getattr(module, "__all__", None)
        assert exported, f"afsched.{name} has no __all__"
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, f"afsched.{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_only_public_names() -> None:
    for node in ast.walk(_tree("__init__")):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"afsched.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, f"afsched re-exports {node.module}.{alias.name}, not in its __all__"
                assert getattr(afsched, alias.asname or alias.name) is getattr(module, alias.name)


def test_no_module_imports_private_names() -> None:
    offenders = []
    for name in ["__init__", *MODULES]:
        tree = _tree(name)
        module_aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{name}: from {node.module} import {a.name}" for a in node.names if a.name.startswith("_")]
                if node.module is None:  # `from . import x` binds a module
                    module_aliases.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                module_aliases.update(a.asname or a.name.partition(".")[0] for a in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                offenders.append(f"{name}: {node.value.id}.{node.attr}")
    assert not offenders, offenders


def _afsched_imports(name: str) -> set[str]:
    """The afsched modules that afsched.<name> imports, relatively or absolutely."""
    found = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("afsched." if node.level else "") + (node.module or "")
            if module.rstrip(".") == "afsched":  # `from . import x` binds a module
                found.update(f"afsched.{a.name}" for a in node.names)
            else:
                found.add(module)
    return {m.split(".")[1] for m in found if m.startswith("afsched.")}


def test_module_layering() -> None:
    # The search box is benchfn's alone, and the optimizer knows no landscape or grid.
    assert _afsched_imports("benchfn") <= {"rng"}, _afsched_imports("benchfn")
    assert not _afsched_imports("afopt") & {"benchfn", "runner"}, _afsched_imports("afopt")


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's spans and run modules, imported as its scripts import each other."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("run")


def test_the_benchmark_finds_traces_and_round_trips_what_it_calls(perfbench, tmp_path) -> None:
    spans, run = perfbench
    targets = [(module, attr) for _, module, attr, _ in spans._targets()]
    missing = [f"{module.__name__}.{attr}" for module, attr in targets if not callable(getattr(module, attr, None))]
    assert not missing, missing

    config = ExperimentConfig(dim=2, seeds=(0,), functions=("f1",), schedules=("ei",), bo_evals=2, gp_restarts=1)
    path = tmp_path / "trajectories.jsonl"
    tracer = spans.Tracer()
    with spans.traced(tracer):
        runner.write_records([runner.run_trial("f1", "ei", 0, config)], path)
        runner.read_records(path)
    layers = ("runner.run_trial", "gp.fit", "gp.lbfgs", "afopt.maximize_af")
    layers += ("runner.write_records", "runner.read_records")
    assert set(layers) <= tracer.totals().keys()

    study = run.synthetic_study(ExperimentConfig(dim=2, seeds=(0, 1), functions=("f1", "f5"), bo_evals=3), seed=0)
    runner.write_records(study, path)
    assert run.check_roundtrip(study, runner.read_records(path)) == []
