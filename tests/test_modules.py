"""The module layout: the RK4 oracle shares no code with the closed form it checks.

``djcm.model`` holds what both routes use, ``djcm.dynamics`` the closed
form and ``djcm.oracle`` the RK4 reference. The oracle and the model are
read as source (``ast``), so an import hidden in a function counts too,
and an import cycle fails those tests rather than their collection.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "djcm"
# what the oracle may import: the model, the modules below it, numpy and the stdlib it uses
ORACLE_MAY_IMPORT = {
    "__future__", "dataclasses", "math", "numpy",
    "djcm.errors", "djcm.field_states", "djcm.model", "djcm.nonlinearity",
}
ORACLE_PUBLIC = (
    "AmplitudeState", "evolve_ode_oracle", "max_amplitude_deviation", "ode_oracle_blocks",
)


def _imports(module: str) -> set:
    """Every module ``src/djcm/<module>.py`` imports, by absolute name.

    ``from . import x`` and ``from djcm import x`` name the module djcm.x
    when x is one, and the package djcm, whose ``__init__`` imports every
    module, when x is any other name.
    """
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:  # relative: within the package
                base = "djcm" + (f".{node.module}" if node.module else "")
            if base != "djcm":
                found.add(base)
                continue
            for alias in node.names:
                submodule = (SRC / f"{alias.name}.py").exists()
                found.add(f"djcm.{alias.name}" if submodule else "djcm")
    return found


def _reaches(module: str) -> set:
    """The djcm modules ``module`` imports, directly or through other djcm modules."""
    seen, todo = set(), [module]
    while todo:
        for name in _imports(todo.pop()):
            inner = "__init__" if name == "djcm" else name.removeprefix("djcm.")
            if name.startswith("djcm") and inner not in seen and (SRC / f"{inner}.py").exists():
                seen.add(inner)
                todo.append(inner)
    return seen


def test_oracle_imports_only_the_model_and_what_lies_below_it():
    assert _imports("oracle") <= ORACLE_MAY_IMPORT


@pytest.mark.parametrize(
    "module, forbidden",
    [("oracle", {"dynamics", "__init__"}), ("model", {"dynamics", "oracle", "__init__"})],
)
def test_neither_the_oracle_nor_the_model_reaches_the_closed_form(module, forbidden):
    assert not _reaches(module) & forbidden


def test_dynamics_re_exports_the_oracle_public_names_as_the_oracle_objects():
    import djcm
    from djcm import dynamics, model, oracle

    # the tools, the benchmark and the acceptance suite import these from
    # djcm.dynamics, and also run against checkouts without djcm.oracle
    for name in ORACLE_PUBLIC:
        assert getattr(dynamics, name) is getattr(oracle, name)
    for name in ("AmplitudeState", "evolve_ode_oracle", "max_amplitude_deviation"):
        assert getattr(djcm, name) is getattr(oracle, name)
    for name in ("CoefficientTable", "ModelParams", "UniformGrid", "_sin_over_omega"):
        assert getattr(dynamics, name) is getattr(model, name)
    assert djcm.ModelParams is model.ModelParams


def test_dynamics_holds_no_private_name_of_the_oracle(monkeypatch):
    from djcm import dynamics, model, oracle

    # a test that patches one of them on djcm.dynamics then fails instead
    # of passing without reaching the oracle
    private = {name for name in vars(oracle) if name.startswith("_") and not name.startswith("__")}
    own = private - set(vars(model))
    assert {"_MAX_PAIRS", "_PairBatch", "_REANCHOR", "_refine"} <= own
    assert not own & set(vars(dynamics))
    with pytest.raises(AttributeError):
        monkeypatch.setattr(dynamics, "_MAX_PAIRS", 1)
