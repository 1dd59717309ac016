"""Every name a module exports resolves on it, the package exports only its
version, and the test references, the beam's coefficient settings, its dense
fd generator, the package's re-exports and the fields nothing read are not in
the product."""
import importlib
import importlib.util
import inspect
from dataclasses import fields

import pytest

import rfmpc
from rfmpc import beam, lifting, problem, solver

MODULES = ["rfmpc", "rfmpc.lifting", "rfmpc.solver", "rfmpc.sim", "rfmpc.beam",
           "rfmpc.problem", "rfmpc.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_only_its_version():
    # The submodules are the API: each name has one import path.
    assert rfmpc.__all__ == ["__version__"]


def test_test_references_are_not_in_the_product():
    # Moved to tests/reference.py, or deleted.
    assert importlib.util.find_spec("rfmpc.oracle") is None
    gone = {rfmpc: ["LiftedQP", "build", "evaluate_lifted_cost",
                    "Parameter", "PlantModel", "ProblemDefinition", "StageConstraints", "StageWeights",
                    "load_problem", "save_problem", "validate",
                    "ActiveSet", "SolveResult", "SolveStatus", "Tolerances", "kkt_residuals",
                    "reduce_to_licq", "solve"],
            problem: ["predict_trajectory", "evaluate_cost", "check_admissible", "_u_matrix"],
            problem.StageWeights: ["constant", "horizon"], problem.StageConstraints: ["unconstrained"],
            lifting: ["to_z", "eval_constraints", "check_easy_slater", "from_z"],
            beam: ["fd_energy", "BeamParams", "_zoh_rotation"], beam.BeamBenchmark: ["params"],
            beam.FDPlant: ["_zoh"],
            solver: ["kkt_solve", "_child_rows", "_worst_first"],
            solver.ActiveSet: ["add", "__iter__", "mask", "from_hex"]}
    assert [(owner.__name__, name) for owner, names in gone.items() for name in names
            if hasattr(owner, name)] == []
    # The beam's coefficients are all 1; the basis size is its only setting.
    assert [cls.__name__ for cls in (beam.GalerkinSystem, beam.FDPlant)
            if "params" in {f.name for f in fields(cls)}] == []
    # The fd plant holds no dense generator; it reads its modal form off the
    # difference matrix.
    assert {"A_sys", "B_sys"} & {f.name for f in fields(beam.FDPlant)} == set()
    # Nothing read the lifted QP's state dimension.
    assert "n_x" not in {f.name for f in fields(lifting.LiftedQP)}
    assert "n_x" not in inspect.signature(lifting.LiftedQP.from_matrices).parameters
