"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import blochsums

_MODULES = ("bounds", "cli", "families", "numerics", "series", "verify")


def test_every_exported_name_resolves():
    modules = [blochsums] + [
        importlib.import_module(f"blochsums.{name}") for name in _MODULES
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []
