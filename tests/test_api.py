import importlib
import pkgutil

import pytest

import slopepath

MODULES = sorted(info.name for info in pkgutil.iter_modules(slopepath.__path__))


@pytest.mark.parametrize("name", ["slopepath"] + [f"slopepath.{m}" for m in MODULES])
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


def test_top_level_exports_unique():
    seen = set()
    duplicates = {name for name in slopepath.__all__ if name in seen or seen.add(name)}
    assert not duplicates
