import importlib
import pkgutil

import pytest

import cvteleport

MODULES = sorted(
    f"cvteleport.{info.name}"
    for info in pkgutil.iter_modules(cvteleport.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
