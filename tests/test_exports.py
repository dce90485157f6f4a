"""Every exported name resolves, in the package and in each module."""

import importlib

import pytest

MODULES = (
    "sasakigeo",
    "sasakigeo.core",
    "sasakigeo.dhomothety",
    "sasakigeo.functionals",
    "sasakigeo.models",
    "sasakigeo.numdiff",
    "sasakigeo.quotient",
    "sasakigeo.subriemannian",
    "sasakigeo.variations",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
