"""Every public name resolves: each module's ``__all__``, the names the
package re-exports, and the functions the benchmark tracer wraps
(``TARGETS`` in ``chiralbench/tracer.py``), so that deleting or renaming a
function in ``src/`` cannot silently break ``chiralbench/run.py --trace 1``.
The parameters of every public function are pinned as well, so that a new
library knob is a visible edit here."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import chiralspin

MODULES = ("angmom", "charpoly", "chiral", "linalg", "models", "rotations")
PACKAGE_INIT = Path(chiralspin.__file__)
TRACER = Path(__file__).resolve().parent.parent / "chiralbench" / "tracer.py"

# (module, function) -> parameter names, for every function in a module's __all__
LIBRARY_INTERFACE = {
    ("angmom", "build_spin_operators"): ("label",),
    ("angmom", "embed"): ("op", "slot", "dims"),
    ("charpoly", "characteristic_polynomial"): ("h",),
    ("charpoly", "classify_solvability"): ("dim", "chiral"),
    ("charpoly", "full_solve"): ("h",),
    ("charpoly", "parity_reduce"): ("poly", "tol"),
    ("charpoly", "real_roots_closed_form"): ("coeffs",),
    ("charpoly", "solve_reduced"): ("reduced",),
    ("chiral", "classify"): ("c", "h", "tol"),
    ("chiral", "default_pairing_tol"): ("h",),
    ("chiral", "pairing_check"): ("eigenvalues", "tol"),
    ("chiral", "search_partners"): ("h", "dims", "tol"),
    ("chiral", "spectral_pairing"): ("h",),
    ("linalg", "as_matrix"): ("a",),
    ("linalg", "frobenius"): ("a",),
    ("linalg", "hermitian_eigensolve"): ("h", "vectors"),
    ("linalg", "identity"): ("dim",),
    ("linalg", "kron"): ("a", "b"),
    ("linalg", "require_hermitian"): ("a", "what"),
    ("linalg", "unitary_exp"): ("generator", "t"),
    ("models", "build"): ("spec",),
    ("models", "iter_parameter_sweep"): ("spec", "param_name", "values"),
    ("models", "load_model_file"): ("path", "doc"),
    ("models", "parameter_names"): ("spec",),
    ("models", "parse_model"): ("doc",),
    ("models", "read_json_file"): ("path",),
    ("models", "shifted_hamiltonian"): ("model",),
    ("rotations", "composite_matrix"): ("rot", "dims"),
    ("rotations", "parse_angle"): ("value",),
    ("rotations", "rotation_matrix"): ("spec", "ops"),
    ("rotations", "unit_axis"): ("vec",),
}


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("chiralbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # read the benchmark's file without leaving a bytecode cache beside it
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = dont_write
    return tracer.TARGETS


def _package_exports():
    """(module, name) for every ``from .module import name`` in __init__."""
    tree = ast.parse(PACKAGE_INIT.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_names_resolve(module_name):
    module = importlib.import_module(f"chiralspin.{module_name}")
    assert module.__all__, module_name
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], module_name


def test_package_exports_resolve():
    exports = _package_exports()
    assert len(exports) > 30
    for module_name, name in exports:
        module = importlib.import_module(f"chiralspin.{module_name}")
        assert getattr(chiralspin, name) is getattr(module, name), name


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert len(targets) > 10
    for module_name, function_name in targets:
        module = importlib.import_module(f"chiralspin.{module_name}")
        assert callable(getattr(module, function_name, None)), (module_name, function_name)


def test_library_parameters_are_pinned():
    got = {}
    for module_name in MODULES:
        module = importlib.import_module(f"chiralspin.{module_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                got[module_name, name] = tuple(inspect.signature(obj).parameters)
    assert got == LIBRARY_INTERFACE
