import importlib
import pkgutil

import twinflow


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # ``from twinflow.x import *``
    modules = [twinflow] + [
        importlib.import_module(f"twinflow.{info.name}")
        for info in pkgutil.iter_modules(twinflow.__path__)
    ]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
            checked += 1
    assert checked > 0
