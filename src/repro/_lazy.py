"""Package export tables, resolved on first use (PEP 562).

Each package ``__init__`` in :mod:`repro` is one call to :func:`exports`
with a table from each of the package's modules to the public names the
package re-exports from it. Importing a package imports nothing more, so a
process compiles only the modules it reaches (DESIGN §15). The first access
to an exported name imports the module that defines it and caches the value
in the package namespace; the first access to a submodule's name imports
the submodule, which the import system then binds on the package.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Mapping


def exports(
    package: str, table: Mapping[str, Iterable[str]], public: Iterable[str] = ()
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for *package*.

    *table* maps each of the package's modules and subpackages (all but
    the private ones) to the names the package re-exports from it; one with
    nothing to re-export maps to ``()`` and still resolves by name.
    *public* lists the names ``__all__`` carries beyond the table's: a
    subpackage that is public itself, or a value the ``__init__`` binds.
    An unknown or dunder name raises :class:`AttributeError` and imports
    nothing.
    """
    namespace = sys.modules[package].__dict__
    origin = {name: module for module, names in table.items() for name in names}

    def load(module: str):
        # __import__, not importlib.import_module: only the former is
        # timed by ``python -X importtime``.
        __import__(f"{package}.{module}")
        return sys.modules[f"{package}.{module}"]

    def __getattr__(name: str) -> object:
        if name in table:
            return load(name)
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(load(origin[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin, *table})

    return sorted({*origin, *public}), __getattr__, __dir__
