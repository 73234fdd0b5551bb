"""specdiff runs on NumPy alone: a fresh process that uses every layer loads no SciPy module.

The package itself re-exports nothing, so ``import specdiff`` loads no module at all, and
every name a module exports in ``__all__`` exists.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "specdiff").glob("*.py") if p.stem != "__init__")

# one pass over every layer that once called SciPy: the model's v^2 check and
# T(lam + i0), the Gauss-Legendre rule, the sech moments of the predicted
# slopes, rhs_integral, the K_eps traces, kernel_from_symbol and the CLI
SCRIPT = """
import json, sys
import numpy as np
from specdiff import cli, hankel, profiles
from specdiff.density import BandSet, rhs_integral
from specdiff.experiments import ModelSpec, SweepConfig, run_sweep

result = run_sweep(SweepConfig(model=ModelSpec(n=200), eps_stop=6e-2, eps_count=4))
slopes = hankel.k_eps_trace_slopes([1, 2, 4], np.geomspace(1e-2, 1e-6, 5))
kernel = hankel.kernel_from_symbol(lambda x: profiles.zeta_eps(x, 0.5) - profiles.zeta(x),
                                   np.linspace(0.5, 4.0, 5))
value = rhs_integral(BandSet([0.8]), lambda y: y * y, 0.1)
code = cli.main(["density", "--edges", "0.8,0.6", "--moment", "4"])
print(json.dumps({
    "records": len(result.records),
    "finite": bool(np.all(np.isfinite(kernel))) and all(
        np.isfinite(v) for v in (value, *slopes.fitted.values(), *slopes.predicted.values())),
    "code": code,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}))
"""


def test_a_full_pass_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["records"] > 0 and report["finite"] and report["code"] == 0
    assert report["scipy"] == []


def test_the_package_alone_loads_no_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import json, sys, specdiff; print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('specdiff.') or m == 'numpy' or m.startswith('numpy.'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"specdiff.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert module.__all__ and missing == []
