"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest

MODULES = ["maskdetect", "maskdetect.data", "maskdetect.metrics", "maskdetect.training"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)
    # `from module import *` fails on the first undefined name
    exec(f"from {module} import *", {})
