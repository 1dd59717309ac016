"""Every name a module exports resolves on it, and the test references are not in the product."""
import importlib
import importlib.util

import pytest

from rfmpc import beam, lifting, problem, solver

MODULES = ["rfmpc", "rfmpc.lifting", "rfmpc.solver", "rfmpc.sim", "rfmpc.beam",
           "rfmpc.problem", "rfmpc.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_test_references_are_not_in_the_product():
    # Moved to tests/reference.py, or deleted.
    assert importlib.util.find_spec("rfmpc.oracle") is None
    gone = {problem: ["predict_trajectory", "evaluate_cost", "check_admissible", "_u_matrix"],
            problem.StageWeights: ["constant"], problem.StageConstraints: ["unconstrained"],
            lifting: ["to_z", "eval_constraints", "check_easy_slater"], beam: ["fd_energy"],
            solver: ["kkt_solve"], solver.ActiveSet: ["add", "__iter__"]}
    assert [(owner.__name__, name) for owner, names in gone.items() for name in names
            if hasattr(owner, name)] == []
