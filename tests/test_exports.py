"""Every exported name resolves, and each module's ``__all__`` names exactly
the public functions and classes it defines, so a deletion cannot leave a
stale export and a public helper cannot sit outside the export list."""

import importlib
import inspect

import blochsums

_MODULES = ("bounds", "cli", "families", "numerics", "series", "verify")


def _modules():
    return [importlib.import_module(f"blochsums.{name}") for name in _MODULES]


def test_every_exported_name_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in [blochsums] + _modules()
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def _is_callable_api(obj):
    return inspect.isfunction(obj) or inspect.isclass(obj)


def test_all_names_exactly_the_public_functions_and_classes():
    for module in _modules():
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and _is_callable_api(obj)
            and obj.__module__ == module.__name__
        }
        exported = {
            name
            for name in module.__all__
            if _is_callable_api(getattr(module, name, None))
        }
        assert exported == defined, module.__name__

