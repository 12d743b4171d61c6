"""README references: every backticked ``<module>.<name>`` of a passivenet
module resolves, and every backticked ``passivenet.<module>`` imports, so a
rename fails here instead of leaving the documentation stale."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import passivenet

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = {info.name for info in pkgutil.iter_modules(passivenet.__path__)}
SPANS = re.findall(r"`([^`\n]+)`", README)
# `core._gated_solve(M, ...)`, `pipelines._CHANNEL_RESISTANCE`: the name
# after a module is its attribute
REFERENCES = sorted({(module, name) for span in SPANS
                     for module, name in re.findall(r"^(?:passivenet\.)?(\w+)\.(\w+)", span)
                     if module in MODULES})
IMPORTS = sorted(set(re.findall(r"^passivenet\.(\w+)$", "\n".join(SPANS), re.M)))


def test_readme_names_modules_and_their_attributes():
    assert len(REFERENCES) >= 12 and len(IMPORTS) == len(MODULES)


@pytest.mark.parametrize("module, name", REFERENCES, ids=[".".join(r) for r in REFERENCES])
def test_reference_resolves(module, name):
    assert hasattr(importlib.import_module(f"passivenet.{module}"), name)


@pytest.mark.parametrize("module", IMPORTS)
def test_module_imports(module):
    importlib.import_module(f"passivenet.{module}")
