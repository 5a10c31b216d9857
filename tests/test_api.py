"""The public API: a new export or keyword option is an explicit edit here."""

import inspect
import sys
from pathlib import Path

import pytest

import mhjump
from mhjump import first_jump_displacements, simulate_ensemble, simulate_langevin, simulate_path

KEYWORD_ONLY = {
    simulate_path: (),
    simulate_ensemble: ("rescaled", "threads", "return_counts"),
    simulate_langevin: ("threads",),
    first_jump_displacements: (),
}

EXPORTS = (
    "BoxedQuadratic", "ConfigurationError", "DominationError", "FiniteChain",
    "GaussianProposal", "GeneratorKind", "JumpPath", "LogCoshWell", "ObservedEnsemble",
    "QuadratureError", "SeparableTargetPotential", "SmoothedDoubleWell", "TargetPotential",
    "compare_ensembles", "d_mu", "em_step", "first_jump_displacements", "folded_normal_moment",
    "generator_convergence_probe", "generator_moment", "half_space_masses", "load_chain",
    "make_m1", "make_m2", "make_potential", "mix", "moment_report", "ou_exact_marginal",
    "path_stream", "random_chain", "random_reversible", "read_binary", "read_csv",
    "s_bound_check", "save_chain", "simulate_ensemble", "simulate_langevin", "simulate_path",
    "stationarity_chisquare", "write_binary", "write_csv",
)


@pytest.mark.parametrize("fn", list(KEYWORD_ONLY), ids=lambda fn: fn.__name__)
def test_keyword_only_parameters_are_pinned(fn):
    params = inspect.signature(fn).parameters.values()
    assert tuple(p.name for p in params if p.kind is p.KEYWORD_ONLY) == KEYWORD_ONLY[fn]


def test_public_exports_are_pinned():
    # submodules are attributes of the package too, but not exports
    public = {n for n, v in vars(mhjump).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == set(EXPORTS)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_package_and_project_versions_agree():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == mhjump.__version__
