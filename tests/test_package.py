"""The package surface: `__all__` names every public name, and each one is bound."""

import types

import vandersolve


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from vandersolve import *", namespace)  # a stale export raises here
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(set(vandersolve.__all__))
    public = {name for name, value in vars(vandersolve).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(vandersolve.__all__)
