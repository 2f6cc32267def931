"""The package's export lists name only what the modules define."""

import importlib

import pytest

import factexp


@pytest.mark.parametrize(
    "module",
    ["factexp", "factexp.experiments", "factexp.construction", "factexp.reports"],
)
def test_star_import_resolves_every_exported_name(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert [name for name in exported if name not in namespace] == []


def test_package_exports_have_no_duplicates():
    assert len(factexp.__all__) == len(set(factexp.__all__))
