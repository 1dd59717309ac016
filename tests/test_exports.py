"""Every name a module exports resolves on it."""
import importlib

import pytest

MODULES = ["rfmpc", "rfmpc.lifting", "rfmpc.solver", "rfmpc.sim", "rfmpc.beam",
           "rfmpc.problem", "rfmpc.oracle", "rfmpc.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
