"""Numerical laboratory for the field concentration between two nearly
touching perfect conductors: closed-form rates and constants with a
quadrature oracle, a thin-gap finite element solver, and sweep-based
verification of the blow-up asymptotics."""

import importlib
import sys

__version__ = "0.1.0"


class _Keyed(Exception):
    """Names, in ``keys``, the fields that the failed check reads, the one
    at fault first."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


class InputError(_Keyed, ValueError):
    """An input outside its admitted range."""


class _Deferred:
    """Stands in for numpy or a scipy module, so that importing the package
    loads neither.  The first attribute access imports the module and
    rebinds to it every global of the package that is a stand-in for it;
    a global replaced since, such as a wrapper, is left as it is."""

    def __init__(self, name: str):
        self._name = name
        self._module = None

    def __getattr__(self, attr: str):
        if self._module is None:
            self._module = importlib.import_module(self._name)
            for name, owner in list(sys.modules.items()):
                if name.startswith(f"{__name__}.") and owner is not None:
                    space = vars(owner)
                    for key, value in list(space.items()):
                        if isinstance(value, _Deferred) and value._name == self._name:
                            space[key] = self._module
        return getattr(self._module, attr)
