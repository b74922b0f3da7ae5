"""Batch gender inference for mixed Chinese/English name lists."""

__version__ = "0.1.0"

# Each re-exported name -> the module that defines it. The module is imported
# on first access, so `import namecensus`, which every CLI call does first,
# loads no submodule.
_EXPORTS = {
    "ClassifierConfig": "classifier",
    "CountModel": "corpus",
    "GenderLabel": "classifier",
    "Posterior": "classifier",
    "Script": "scriptdetect",
    "detect_script": "scriptdetect",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
