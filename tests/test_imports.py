"""Import cost: the package loads numpy and scipy.special only; the
quadrature oracles load scipy.integrate on their first call."""

import json
import os
import subprocess
import sys

import mhjump

CHILD = """
import json, sys

import numpy as np

import mhjump
import mhjump.cli
from mhjump import (BoxedQuadratic, GaussianProposal, GeneratorKind, compare_ensembles,
                    moment_report, simulate_ensemble, simulate_langevin, stationarity_chisquare)

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize")


def heavy():
    return sorted(name for name in sys.modules if name.startswith(HEAVY))


seen = {"import": heavy()}
target = BoxedQuadratic(d_star=1)
x0, obs = np.array([1.0]), np.array([0.5, 1.0])
ref = simulate_langevin(target, x0, obs, 64, 1e-2, 3)
for kind in (GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.5)):
    ens = simulate_ensemble(kind, target, GaussianProposal(1e-2), x0, obs, 64, 3)
    compare_ensembles(ens, ref)
    stationarity_chisquare(ens.samples[:, -1, 0], target, n_bins=8)
seen["ks_sweep"] = heavy()
moment_report(GeneratorKind.m2(), target, [1e-1, 1e-2], x_grid=[[0.5]])
seen["quadrature"] = heavy()
print(json.dumps(seen))
"""


def test_only_the_quadrature_oracles_load_scipy_integrate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mhjump.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    seen = json.loads(out.stdout.strip().splitlines()[-1])
    assert seen["import"] == []
    assert seen["ks_sweep"] == []
    assert any(name.startswith("scipy.integrate") for name in seen["quadrature"])
    assert not any(name.startswith("scipy.stats") for name in seen["quadrature"])
