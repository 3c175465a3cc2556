"""Guards on the package's public surface.

Every name a module lists in `__all__`, and every name the package
re-exports, exists and is public; no module reaches into another module's
`_`-prefixed names; the modules import each other only in the allowed layers.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import afsched

SRC = Path(afsched.__file__).parent
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
