"""Every name a module lists in ``__all__`` resolves.

The benchmark's tracer (``perfbench/tracing.py``) looks each listed name up
with ``getattr``, so a name left in ``__all__`` after its definition is
removed makes every traced run fail with ``AttributeError``.
"""

import importlib
import pkgutil

import pytest

import adaptive_mc

MODULES = ["adaptive_mc"] + [
    f"adaptive_mc.{info.name}"
    for info in pkgutil.iter_modules(adaptive_mc.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []
