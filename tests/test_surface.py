"""Every public function and class a passivenet module defines has a reason
to be there: a caller elsewhere in the library, an export from the package,
a mention in README, or a use in the benchmark under ``perfbench/``.  A name
with none of these is a test oracle kept inside the code under test, or dead
code.  perfbench is read as text: importing its ``oracles`` module would clash
with ``tests/oracles.py``."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import passivenet

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(passivenet.__file__).resolve().parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(passivenet.__path__))


def _defined(module_name: str) -> list[str]:
    module = importlib.import_module(f"passivenet.{module_name}")
    return [name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__]


def _library_references() -> set[str]:
    """Names and attributes that the package's modules read, outside __init__."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


DEFINED = [(module, name) for module in MODULES for name in _defined(module)]
REFERENCED = _library_references()
EXPORTED = {name for name in vars(passivenet) if not name.startswith("_")}
TEXTS = [(ROOT / "README.md").read_text(encoding="utf-8"),
         *(path.read_text(encoding="utf-8") for path in (ROOT / "perfbench").glob("*.py"))]


def test_modules_define_public_names():
    assert len(DEFINED) >= 50


@pytest.mark.parametrize("module, name", DEFINED, ids=[".".join(d) for d in DEFINED])
def test_public_name_has_a_user(module, name):
    word = re.compile(rf"\b{name}\b")
    assert (name in REFERENCED or name in EXPORTED
            or any(word.search(text) for text in TEXTS)), \
        f"{module}.{name} has no caller in the library, no export, no README entry " \
        f"and no use in perfbench"
