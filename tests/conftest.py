"""Warnings are errors in every test module except the acceptance criteria,
whose file is fixed with the criteria themselves."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name != "test_acceptance.py":
            item.add_marker(pytest.mark.filterwarnings("error"))
