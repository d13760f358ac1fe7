"""Start-up cost and the package's surface.

Importing the CLI loads numpy and scipy.special, not the rest of scipy; a duality
check adds no scipy.optimize.  Every public function and method in src/ has a caller
there, or a reason to stay public in ``KEPT_PUBLIC``: a second path that only tests
call lives in tests/oracles.py, and src/ never imports it.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest
import scipy.integrate
import scipy.linalg

import rlmdual
import rlmdual.markov
import rlmdual.model
import rlmdual.scalars

DEFERRED = ("scipy.optimize", "scipy.linalg", "scipy.integrate")


def _fresh_process(code: str) -> str:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(rlmdual.scalars.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_deferred_scipy_unloaded():
    assert _fresh_process("import sys, rlmdual.cli; "
                          f"print(','.join(m for m in {DEFERRED!r} if m in sys.modules))") == ""


def test_duality_check_leaves_scipy_optimize_unloaded(tmp_path):
    # scipy.optimize is for the breakdown refinement only
    out = tmp_path / "report.json"
    code = ("import sys; from rlmdual.cli import main; "
            f"rc = main(['duality-check', '--out', {str(out)!r}]); "
            "print(rc, 'scipy.optimize' in sys.modules)")
    assert _fresh_process(code) == "0 False"
    assert len(json.loads(out.read_text())) == 60


def test_cp_onset_leaves_scipy_optimize_unloaded():
    # the onset is a root of closed-form polynomials: no root search
    code = ("import sys; from rlmdual.markov import cp_onset_time; "
            "from rlmdual.scalars import ModelParams; "
            "print(cp_onset_time(ModelParams(1.0, 0.0, 0.5, 1.0)) > 0, "
            "'scipy.optimize' in sys.modules)")
    assert _fresh_process(code) == "True False"


def test_lazy_names_are_scipys():
    assert rlmdual.model.expm is scipy.linalg.expm
    assert rlmdual.markov.expm is scipy.linalg.expm
    assert rlmdual.scalars.quad is scipy.integrate.quad


@pytest.mark.parametrize("module", [rlmdual.scalars, rlmdual.model, rlmdual.markov])
def test_unknown_attribute_raises(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


SRC = Path(rlmdual.__file__).parent

# public names that nothing in src/ calls, each with the reason it stays public
KEPT_PUBLIC = {
    "p_of_t": "exported scalar API: p at a float or a 1-D array of times",
    "g_dual_of_t": "exported scalar API: g at the sign-inverted parameters",
    "slip_propagator": "the public slip approximation; the CLI inlines it to share one stack",
    "slip_propagator_hat": "the frequency-domain partner of slip_propagator",
    "heisenberg_stationary_generator": "the only path to that generator; README names it",
    "family_to_json": "the documented route to a tabulated family for --family",
    "SpectralDecomposition.eigenvalues": "accessor of a returned decomposition",
    "SpectralDecomposition.to_superoperator": "accessor of a returned decomposition",
    "KrausSet.to_superoperator": "accessor of a returned decomposition",
    "JumpSet.rates": "accessor of a returned decomposition",
}

# closed forms that only tests called, by the module or class they left; the
# functions of tests/oracles.py replace them
MOVED = {
    "model": ("DIM", "d_eta", "_closed_modes"),
    "model.RlmProvider": ("propagator_spectral", "generator_spectral", "kraus_set",
                          "jump_set", "heisenberg_jump_rates", "g_dual", "stationary_state"),
    "scalars": ("g_tail", "k_of_t"),
    "liouville": ("superop_from_choi", "is_tp", "is_hermiticity_preserving",
                  "dissipator_heisenberg", "matrix_to_json", "matrix_from_json"),
    "liouville.JumpSet": ("heisenberg_generator",),
    "markov": ("stationary_generator",),
}


def _uncalled_public_names() -> list[str]:
    """Public top-level functions and methods in src/ whose name no other src/ line uses.

    A use is a name or an attribute outside the definition itself; ``__all__``
    strings and ``__init__`` re-exports are not uses.
    """
    defs, uses = [], defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            owner = node.name + "." if isinstance(node, ast.ClassDef) else ""
            for fn in node.body if owner else [node]:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    defs.append((owner + fn.name, path.name, fn.lineno, fn.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses[getattr(node, "id", None) or node.attr].append((path.name, node.lineno))
    return sorted(qual for qual, file, first, last in defs
                  if all(f == file and first <= line <= last
                         for f, line in uses[qual.rpartition(".")[2]]))


def test_every_public_function_has_a_caller_or_a_reason():
    uncalled = _uncalled_public_names()
    assert [name for name in uncalled if name not in KEPT_PUBLIC] == []
    assert uncalled == sorted(KEPT_PUBLIC)   # a kept name that gains a caller leaves the dict


@pytest.mark.parametrize("home, names", MOVED.items(), ids=list(MOVED))
def test_moved_names_are_gone(home, names):
    module_name, _, class_name = home.partition(".")
    module = importlib.import_module(f"rlmdual.{module_name}")
    owner = getattr(module, class_name) if class_name else module
    for name in names:
        assert not hasattr(owner, name) and not hasattr(rlmdual, name), name
        assert name not in module.__all__, name


def test_src_imports_nothing_from_tests():
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any(n.split(".")[0] in ("oracles", "tests") for n in names), path.name
