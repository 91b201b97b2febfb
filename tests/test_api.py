"""The public API: the package's names and what each module's __all__ holds."""

import ast
import importlib
import inspect

import covertgame

MODULES = ("specfun", "detection", "rate", "model", "matrixgame", "lpsolve",
           "experiments", "simkit", "cli")

PACKAGE_API = {
    "__version__",
    "MixedStrategy", "error_rates",
    "BaselineResult", "TradeoffPoint", "beta_sweep", "constant_baseline",
    "default_beta_grid", "desk_scenario", "frontier_rate", "max_guaranteed_dep",
    "uniform_baseline",
    "EquilibriumSolution", "PayoffMatrix", "build_payoff", "solve_game",
    "verify_equilibrium",
    "PrunedScenario", "Scenario", "ScenarioError", "default_scenario",
    "joint_actions", "load_scenario", "parse_scenario_text", "prune_negative_rate",
    "normal_approx_rate",
    "EmpiricalDetection", "estimate_detection",
}

# Each module's __all__, so that any change to the public surface is explicit.
MODULE_API = {
    "specfun": {"reg_gamma_q_grid", "gaussian_q_inv"},
    "detection": {"MixedStrategy", "error_grids", "error_rates", "pfa", "pm", "pfa_grid",
                  "pm_grid", "dep_grid"},
    "rate": {"action_snr", "normal_approx_rate"},
    "model": {"Scenario", "PrunedScenario", "ScenarioError", "default_scenario",
              "desk_scenario", "decimal_range", "joint_actions", "prune_negative_rate", "parse_scenario_text",
              "load_scenario", "serialize_scenario", "apply_overrides"},
    "matrixgame": {"PayoffMatrix", "EquilibriumSolution", "GameSolveError", "build_payoff",
                   "solve_game", "verify_equilibrium"},
    "lpsolve": {"LinearProgram", "LpSolution", "LpError", "InfeasibleError", "UnboundedError",
                "OPTIMAL", "NUMERICAL_FAILURE", "ITERATION_CAP", "solve"},
    "experiments": {"TradeoffPoint", "BaselineResult", "default_beta_grid", "beta_sweep",
                    "uniform_baseline", "constant_baseline", "frontier_rate",
                    "max_guaranteed_dep"},
    "simkit": {"EmpiricalDetection", "estimate_detection", "CHUNK_BLOCKS"},
    "cli": {"main"},
}

# The functions perfbench's tracer wraps to count each layer's work
# (perfbench/tracer.py, REQUIRED); a layer missing one is reported unmeasured.
TRACER_WRAP_POINTS = {
    "specfun": {"reg_gamma_q_grid"},
    "detection": {"pfa", "pm", "pfa_grid", "pm_grid"},
    "model": {"prune_negative_rate"},
    "matrixgame": {"build_payoff", "solve_game"},
    "lpsolve": {"solve"},
    "experiments": {"beta_sweep", "uniform_baseline", "constant_baseline", "frontier_rate"},
    "simkit": {"estimate_detection"},
    "cli": {"main"},
}


def _module(name):
    return importlib.import_module(f"covertgame.{name}")


def test_package_api_is_pinned():
    assert len(covertgame.__all__) == len(set(covertgame.__all__))
    assert set(covertgame.__all__) == PACKAGE_API


def test_module_apis_are_pinned():
    assert set(MODULE_API) == set(MODULES)
    for module_name, names in MODULE_API.items():
        assert set(_module(module_name).__all__) == names, module_name


def test_package_names_are_module_exports():
    assert isinstance(covertgame.__version__, str)
    for name in set(covertgame.__all__) - {"__version__"}:
        obj = getattr(covertgame, name)
        home = obj.__module__
        assert home.startswith("covertgame."), name
        assert name in importlib.import_module(home).__all__, name
        assert getattr(importlib.import_module(home), name) is obj, name


def test_module_exports_are_defined_there():
    for module_name in MODULES:
        module = _module(module_name)
        assert len(module.__all__) == len(set(module.__all__)), module_name
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, f"{module_name}.{name}"


def test_tracer_wrap_points_stay_exported_functions():
    for module_name, names in TRACER_WRAP_POINTS.items():
        module = _module(module_name)
        assert names <= set(module.__all__), module_name
        for name in names:
            assert inspect.isfunction(getattr(module, name)), f"{module_name}.{name}"
    # The benchmark's own tests also wrap dep_grid.
    assert "dep_grid" in _module("detection").__all__


def test_test_only_conveniences_are_gone():
    strategy = _module("detection").MixedStrategy
    assert not hasattr(strategy, "point_mass")
    assert not hasattr(_module("matrixgame").PayoffMatrix, "thresholds")
    assert list(inspect.signature(strategy.support).parameters) == ["self"]


def test_cli_imports_no_private_names():
    # The CLI reads each rule (z-scores, tradeoff points) from its home's
    # public names; __version__ is the one dunder it takes.
    tree = ast.parse(inspect.getsource(_module("cli")))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            private = [a.name for a in node.names
                       if a.name.startswith("_") and not a.name.startswith("__")]
            assert not private, node.module
