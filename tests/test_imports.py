"""Start-up cost: importing the CLI loads numpy and scipy.special, not the rest of scipy;
a duality check adds no scipy.optimize."""

import json
import os
import subprocess
import sys

import pytest
import scipy.integrate
import scipy.linalg

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
