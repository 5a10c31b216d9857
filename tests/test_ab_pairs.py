"""scripts/ab_pairs.py: the verdicts and the append-only record of each batch."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def ab(monkeypatch, tmp_path):
    """The script as a module, writing its records under tmp_path."""
    spec = importlib.util.spec_from_file_location("ab_pairs",
                                                  os.path.join(ROOT, "scripts", "ab_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RECORDS", str(tmp_path / "BENCH_pairs.json"))
    return module


def test_each_batch_appends_one_record(ab, monkeypatch, tmp_path, capsys):
    # two checkouts outside git; the change cuts peak RSS by an eighth in every
    # pair and doubles wall time, past its 25% bound
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.2}]
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    runs = {"parent": iter([80.0, 80.5, 79.5, 80.2]), "change": iter([70.0, 70.5, 69.5, 70.2])}

    def run_once(checkout, names, args):
        rss = next(runs[os.path.basename(checkout)])
        wall = 1.0 if os.path.basename(checkout) == "parent" else 2.0
        return {"wall_s": wall, "peak_rss_mb": rss}, True

    monkeypatch.setattr(ab, "run_once", run_once)
    with open(ab.RECORDS, "w") as f:
        f.write('{"earlier": "batch"}\n')
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "ks_sweep",
            "--seed", "7", "--pairs", "4", "--seconds", "3"]
    assert ab.main(argv) == 1  # wall time regressed
    lines = open(ab.RECORDS).read().splitlines()
    assert len(lines) == 2 and lines[0] == '{"earlier": "batch"}'  # appended, never rewritten
    record = json.loads(lines[1])
    assert (record["workload"], record["seed"], record["seconds"], record["pairs"]) == (
        "ks_sweep", 7, 3, 4)
    assert record["parent"] == {"commit": None, "dirty": None, "diff_sha256": None}
    assert record["all_gates_passed"] is True
    assert [r["peak_rss_mb"] for r in record["runs"]["change"]] == [70.0, 70.5, 69.5, 70.2]
    rss = record["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["losses"], rss["gain_claimed"], rss["regressed"]) == (4, 0, True, False)
    assert rss["parent"]["median"] == 80.1 and rss["change"]["median"] == 70.1
    assert rss["ratio"] == 70.1 / 80.1
    wall = record["metrics"]["wall_s"]
    assert (wall["wins"], wall["losses"], wall["gain_claimed"], wall["regressed"]) == (
        0, 4, False, True)
    assert "REGRESSED past its bound 25%" in capsys.readouterr().out
