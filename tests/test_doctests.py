import doctest
import importlib
import pkgutil

import pytest

import frobcoord

# ``frobcoord.__main__`` runs the CLI on import, so it is left out.
MODULES = ["frobcoord"] + sorted(
    info.name for info in pkgutil.iter_modules(frobcoord.__path__,
                                               "frobcoord.")
    if info.name != "frobcoord.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
