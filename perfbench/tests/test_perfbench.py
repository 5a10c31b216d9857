"""Tests of the benchmark itself: names, gates and span arithmetic.

Run with: python -m pytest perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gates as g
import metrics
import workloads
from adapter import GeneratorKind, Library, SmoothedDoubleWell
from mhjump import ObservedEnsemble
from spans import NullTracer, Span, layer_busy, layer_self_times, self_times

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def lib():
    return Library(NullTracer())


# names


def test_names_use_only_allowed_characters(spec):
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])


def test_spec_matches_the_code(spec):
    assert tuple(w["name"] for w in spec["workloads"]) == metrics.WORKLOADS
    assert set(workloads.WORKLOADS) == set(metrics.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)


# gates


def _ensemble(samples, kind="m1"):
    samples = np.asarray(samples, dtype=float)
    return ObservedEnsemble(obs_grid=np.array([0.5, 1.0])[:samples.shape[1]], samples=samples,
                            epsilon=1e-2, kind=kind, seed=7, alpha=None)


def test_ks_gate_rejects_a_shifted_ensemble(lib):
    rng = np.random.default_rng(0)
    n = workloads.KS_PATHS
    ref = _ensemble(rng.normal(size=(n, 2, 1)), kind="langevin")
    same = _ensemble(rng.normal(size=(n, 2, 1)))
    shifted = _ensemble(rng.normal(size=(n, 2, 1)) + 0.5)
    thr = lib.ks_threshold(n, workloads.KS_COEFF)
    assert g.below(lib.compare_ensembles("same", same, ref).max_ks, thr)[0]
    assert not g.below(lib.compare_ensembles("shifted", shifted, ref).max_ks, thr)[0]


def test_ks_rise_gate(lib):
    slack = workloads.KS_RISE_SD * lib.ks_null_sd(workloads.KS_PATHS)
    assert g.non_increasing([0.20, 0.06, 0.05], slack)[0]
    assert g.non_increasing([0.05, 0.04, 0.04 + 0.9 * slack], slack)[0]
    assert not g.non_increasing([0.05, 0.04, 0.04 + 1.1 * slack], slack)[0]


def test_gibbs_gate_rejects_samples_from_one_well(lib):
    target = SmoothedDoubleWell(d_star=1)
    rng = np.random.default_rng(1)
    one_well = workloads.OCC_WELL + 0.3 * rng.normal(size=workloads.OCC_PATHS)
    _, p, _ = lib.stationarity_chisquare("wrong", one_well, target, workloads.OCC_GATE_BINS)
    assert not g.p_value(p, workloads.P_FLOOR)[0]


def test_count_and_tolerance_gates():
    assert not g.at_least(workloads.OCC_EVENTS_FLOOR - 1, workloads.OCC_EVENTS_FLOOR)[0]
    assert g.at_least(workloads.OCC_EVENTS_FLOOR, workloads.OCC_EVENTS_FLOOR)[0]
    assert not g.in_window(0.66, *workloads.SLOPE_WINDOW)[0]
    assert not g.in_window(0.34, *workloads.SLOPE_WINDOW)[0]
    assert g.in_window(0.5, *workloads.SLOPE_WINDOW)[0]
    assert not g.at_most(2e-12, workloads.FINITE_TOL)[0]
    assert not g.p_value(1e-6, workloads.P_FLOOR)[0]


def test_round_trip_gates_catch_a_corrupted_byte(lib, tmp_path):
    ens = _ensemble(np.random.default_rng(2).normal(size=(5, 2, 1)))
    csv_path, bin_path = str(tmp_path / "e.csv"), str(tmp_path / "e.bin")
    lib.write_csv("t", ens, csv_path)
    lib.write_binary("t", ens, bin_path)
    assert g.same_ensemble(ens, lib.read_csv("t", csv_path))[0]
    assert g.same_ensemble(ens, lib.read_binary("t", bin_path))[0]

    raw = bytearray(open(bin_path, "rb").read())
    raw[-3] ^= 0x01
    open(bin_path, "wb").write(bytes(raw))
    ok, detail = g.same_ensemble(ens, lib.read_binary("t", bin_path))
    assert not ok and "samples" in detail

    lines = open(csv_path).read().split("\n")
    last = lines[-2]
    lines[-2] = last[:-1] + ("1" if last[-1] != "1" else "2")
    open(csv_path, "w").write("\n".join(lines))
    ok, detail = g.same_ensemble(ens, lib.read_csv("t", csv_path))
    assert not ok and "samples" in detail


def test_ou_gate(lib):
    rng = np.random.default_rng(3)
    mean, var = lib.ou_exact_marginal(1.0, 0.5, 1.0, 3)
    n = workloads.LANGEVIN_PATHS
    exact = mean + np.sqrt(var) * rng.normal(size=n)
    assert g.ou_marginal(exact, mean, var)[0]
    assert not g.ou_marginal(exact + 0.1, mean, var)[0]
    assert not g.ou_marginal(mean + 1.2 * (exact - mean), mean, var)[0]


def test_gates_count_attempts_and_failures():
    lines = []
    gates = g.Gates(lines.append)
    gates.check("a", (True, "fine"))
    gates.verbose = False
    gates.check("b", (True, "fine"))
    gates.check("c", (False, "broken"))
    assert (gates.attempted, gates.failed) == (3, 1)
    assert lines == ["[gate] a: PASS (fine)", "[gate] c: FAIL (broken)"]


# spans


def _tree():
    return [
        Span(0, "bench.iteration", "w", "r", None, 0.0, 10.0),
        Span(1, "jump.simulate_ensemble", "m1_e1", "r", 0, 1.0, 4.0, {"accepted_events": 7}),
        Span(2, "finite.minimality_sweep", "", "r", 0, 5.0, 9.0, {"competitors": 40}),
        Span(3, "finite.d_mu", "", "r", 2, 6.0, 7.0),
        Span(4, "finite.d_mu", "", "r", 2, 7.5, 8.0),
    ]


def test_self_time_subtracts_children():
    own = self_times(_tree())
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 2.5, 3: 1.0, 4: 0.5})
    layers = layer_self_times(_tree())
    assert layers == pytest.approx({"bench": 3.0, "jump": 3.0, "finite": 4.0})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "verify.x", "", "r", None, 0.0, 10.0),
        Span(1, "verify.y", "", "r", 0, 1.0, 5.0),
        Span(2, "verify.z", "", "r", 0, 3.0, 7.0),
        Span(3, "verify.w", "", "r", 0, 9.0, 12.0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_busy_time_does_not_count_nested_calls_twice():
    spans = _tree()
    assert layer_busy(spans, layer="finite") == pytest.approx(4.0)
    assert layer_busy(spans, "finite.d_mu") == pytest.approx(1.5)
    assert layer_busy(spans, "jump.simulate_ensemble", "m1_e1") == pytest.approx(3.0)
    assert layer_busy(spans, "jump.simulate_ensemble", "m2_e1") == 0.0


def test_per_layer_metrics_account_for_the_iteration():
    m = metrics.per_layer(_tree())
    names = {name for name, _ in metrics.PER_LAYER}
    assert set(m) == names - {"trace.wall_s", "trace.setup_s", "tracing_overhead_s"}
    parts = m["unattributed_s"] + sum(m[f"{layer}.self_s"] for layer in metrics.LAYERS)
    assert parts == pytest.approx(10.0)
    assert m["jump.m1_e1.accepted_events"] == 7
    assert m["jump.accepted_events_per_s"] == pytest.approx(7 / 3.0)
    assert m["finite.competitors_per_s"] == pytest.approx(10.0)


# runner


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_setup_builds_inputs_from_the_seed():
    occ = workloads.WORKLOADS["occupation"]
    assert np.array_equal(occ.setup(5).starts, occ.setup(5).starts)
    assert not np.array_equal(occ.setup(5).starts, occ.setup(6).starts)
    assert int(np.sum(occ.setup(5).starts > 0)) == workloads.OCC_PATHS // 2
    oracles = workloads.WORKLOADS["oracles"]
    a, b, c = oracles.setup(5).chains, oracles.setup(5).chains, oracles.setup(6).chains
    assert all(np.array_equal(x.rates, y.rates) for x, y in zip(a, b))
    assert not np.array_equal(a[0].rates, c[0].rates)


def test_generator_kinds_in_labels_match_metric_names():
    assert tuple(k.tag for k in workloads._KINDS) == metrics.KS_KINDS
    assert GeneratorKind.mix(0.5).tag == "mix"
