"""Pinned bytes of both engines, the quadrature oracles and the CSV writer:
a silent change to any sample, moment or written byte fails here."""

import hashlib

import numpy as np
import pytest

from mhjump import (
    BoxedQuadratic,
    GaussianProposal,
    GeneratorKind,
    LogCoshWell,
    SmoothedDoubleWell,
    moment_report,
    simulate_ensemble,
    simulate_langevin,
    write_csv,
)
from mhjump.verify import bump_library, default_x_grid, generator_convergence_probe

TARGETS = {
    "quadratic": (BoxedQuadratic(d_star=1), [1.0]),
    "doublewell": (SmoothedDoubleWell(d_star=2), [1.0, -1.0]),
    "logcosh": (LogCoshWell(d_star=2, c=0.2), [1.0, -1.0]),
}
KINDS = {"m1": GeneratorKind.m1(), "m2": GeneratorKind.m2(), "mix": GeneratorKind.mix(0.5)}

# sha256 of the sample bytes followed by the accepted-event counts; the
# quadratic's m2 and mix cases run the per-event clock of its per-state bound;
# the tilted logcosh well evaluates exp and log1p in every dU
GOLDEN = {
    ("quadratic", "m1", 0.1): "e0957731566d8f94732d22ad1587a215b4399ecff67a94a0a603a54c36ea4a1c",
    ("quadratic", "m1", 0.01): "d565d96c461fcb31a67c9f42286a39eafd6549edc267d14f080a494b74aaf675",
    ("quadratic", "m2", 0.1): "a13b3e45413d3955b1b29d3eee53466fd8dcf529f33500faa0179a12b3b4ba28",
    ("quadratic", "m2", 0.01): "3d44976a60111731a724b5d36ce691de244cfb0858f2bdf3cb9c797da8cd57ad",
    ("quadratic", "mix", 0.1): "f484d790db94869686eaede0ae8d0aa3990147f8c14e1d759213448c070e2cca",
    ("quadratic", "mix", 0.01): "21544ddd362b968ad1bacd673c463a6939c19fa142c66d0386747b53df09a286",
    ("doublewell", "m1", 0.1): "20373dcd56aa5fde766ff89df14c2651a2c81554dd9af8a4a5376b452fe9fe77",
    ("doublewell", "m1", 0.01): "1dc39961d8145e02bf0d428d98f2c83fb45756e68aa4200946100511ef2343c5",
    ("doublewell", "m2", 0.1): "2309059d9649b78a9c23bd782992ccf9232d7aa57110eeae4fc3d5e71dbcb919",
    ("doublewell", "m2", 0.01): "abab0bada52f021a77a9cfa827b6d6d0d40f1bb6bf0e151b12cf4dcded8e098b",
    ("doublewell", "mix", 0.1): "5d470e1abf5daa2cfde2ab3efce430530812a36e3656d2bec8bab3fa753a38bd",
    ("doublewell", "mix", 0.01): "fd32a8b3fd8add083e1ed674a9428ac88472f8e3aa59bdcf44cc68921ce186a9",
    ("logcosh", "m1", 0.1): "3a426c7aa1aa5cb4e039dbc104cb7c24f48199bd639ad96f12e5f9635a6335bc",
    ("logcosh", "m2", 0.1): "78adb4d526e3724cdeac55c418c18f310760127a3c186b1fe707e7d2537edb4c",
    ("logcosh", "mix", 0.1): "327c570e314b65c53dd7c214e8ba883a409701391d94bbc5fbd442d753865693",
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]:g}")
def test_ensemble_bytes_are_pinned(case):
    name, kind, eps = case
    target, x0 = TARGETS[name]
    ens, counts = simulate_ensemble(KINDS[kind], target, GaussianProposal(eps), np.array(x0),
                                    [0.0, 0.25, 0.5, 1.0], 64, 20240, return_counts=True)
    assert hashlib.sha256(ens.samples.tobytes() + counts.tobytes()).hexdigest() == GOLDEN[case]


# sha256 of the sample bytes followed by the accepted-event counts on a
# 97-point raw process-time grid, about four observations per candidate: the
# d=3 quadratic with m2 runs the per-event clock, the d=2 double well with m1
# the chunk clock
DENSE_GRID = np.linspace(0.0, 24.0, 97)
DENSE_GOLDEN = {
    "quadratic-d3-m2": (BoxedQuadratic(d_star=3), [1.0, -1.0, 0.5], "m2",
                        "8bbf33b0de40bc54549f5ac02020b704fb2659fce706e0e5a91dd6347f6785fc"),
    "doublewell-d2-m1": (SmoothedDoubleWell(d_star=2), [1.0, -1.0], "m1",
                         "24fdc3717d891b747fbe79d238489ca436eba792adf1cded91b5615971233490"),
}


@pytest.mark.parametrize("case", sorted(DENSE_GOLDEN))
def test_dense_grid_bytes_are_pinned(case):
    target, x0, kind, digest = DENSE_GOLDEN[case]
    ens, counts = simulate_ensemble(KINDS[kind], target, GaussianProposal(0.1), np.array(x0),
                                    DENSE_GRID, 64, 20240, rescaled=False, return_counts=True)
    assert hashlib.sha256(ens.samples.tobytes() + counts.tobytes()).hexdigest() == digest


# sha256 of the sample bytes of a double-well reference ensemble (dt 1e-2,
# 10 steps): 1024 paths are one full noise group, and 300 paths read the
# first 300 columns of the same group's draws.
LANGEVIN_GOLDEN = {
    1024: "62babb023dd5b0044cc197df73ee2f0bb4edaff343c53c23f721e2656902bd8a",
    300: "dfab7c700abe9c4c5608e0fbbd08d5b7b99bc4113267438802204204a8fa328a",
}


@pytest.mark.parametrize("n_paths", sorted(LANGEVIN_GOLDEN))
def test_langevin_bytes_are_pinned(n_paths):
    ens = simulate_langevin(SmoothedDoubleWell(d_star=2), np.array([1.0, -1.0]),
                            [0.0, 0.05, 0.1], n_paths, 1e-2, 20240)
    assert hashlib.sha256(ens.samples.tobytes()).hexdigest() == LANGEVIN_GOLDEN[n_paths]


# sha256 of moment_report's values (k = 1, 2, 3) followed by its sup errors
# (k = 1, 2, 3) on the default x grid and eps 1e-1, 1e-2, 1e-3
MOMENT_EPS = [1e-1, 1e-2, 1e-3]
MOMENT_GOLDEN = {
    ("quadratic", 1, "m1"): "4e28a75567ddc2fa139fc6cc1849dc655b24c64207253e343c3a28f41063f574",
    ("doublewell", 3, "m2"): "ed86d6ff9eb9267fa08a146e5ad2df63baf3a23a7cfc2945cfa456e0f66de6f6",
    ("quadratic", 1, "mix"): "3a7e72b966a435bc0f5044c5d948744f463d2e4726ee90b8744c38e788fa9272",
}
POTENTIALS = {"quadratic": BoxedQuadratic, "doublewell": SmoothedDoubleWell}


@pytest.mark.parametrize("case", sorted(MOMENT_GOLDEN), ids=lambda c: f"{c[0]}-d{c[1]}-{c[2]}")
def test_moment_report_bytes_are_pinned(case):
    name, d_star, kind = case
    rep = moment_report(KINDS[kind], POTENTIALS[name](d_star=d_star), MOMENT_EPS)
    digest = hashlib.sha256()
    for table in (rep.values, rep.sup_errors):
        for k in (1, 2, 3):
            digest.update(table[k].tobytes())
    assert digest.hexdigest() == MOMENT_GOLDEN[case]


def test_probe_bytes_are_pinned():
    probe = generator_convergence_probe(KINDS["m2"], BoxedQuadratic(d_star=1), bump_library(1)[1],
                                        default_x_grid(1), MOMENT_EPS)
    assert hashlib.sha256(probe.sup_gaps.tobytes()).hexdigest() == (
        "3185df9dadc5abd8a3a39825c4d6bcfa0b7587f58d11dd897ec493d1ec7d1ec2"
    )


# sha256 of the files write_csv makes: a d=1 jump ensemble and a d=3
# reference ensemble
CSV_GOLDEN = {
    "jump": "249a59bf300350c2fc08fcc18bd088a5a50175eb1ed1820bbae830b4be2e1f9a",
    "langevin": "46f572062100d0f6478b7a182a2666cf6b29d21c31d4cd8a530bea01d3d83134",
}


@pytest.mark.parametrize("which", sorted(CSV_GOLDEN))
def test_csv_bytes_are_pinned(tmp_path, which):
    if which == "jump":
        ens = simulate_ensemble(KINDS["mix"], BoxedQuadratic(d_star=1), GaussianProposal(0.01),
                                np.array([1.0]), [0.0, 0.25, 0.5, 1.0], 64, 20240)
    else:
        ens = simulate_langevin(SmoothedDoubleWell(d_star=3), np.array([1.0, -1.0, 0.5]),
                                [0.0, 0.05, 0.1], 64, 1e-2, 20240)
    path = tmp_path / "e.csv"
    write_csv(ens, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_GOLDEN[which]
