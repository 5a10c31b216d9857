"""scripts/ab_pairs.py: the verdicts and the append-only record of each batch;
scripts/trajectory.py: the chain of their ratios."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(monkeypatch, tmp_path, name):
    """scripts/<name>.py as a module, with its records under tmp_path."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RECORDS", str(tmp_path / "BENCH_pairs.json"))
    return module


@pytest.fixture
def ab(monkeypatch, tmp_path):
    return load_script(monkeypatch, tmp_path, "ab_pairs")


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


def two_checkouts(tmp_path):
    """A parent and a change checkout outside git, with one end-to-end metric."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    return [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "oracles",
            "--seed", "7"]


@pytest.mark.parametrize("records,identical,status", [
    ({"parent": "{}", "change": "{}"}, True, 0),
    ({"parent": "{}", "change": "{ }"}, False, 1),
    ({"parent": "{}"}, None, 0),
])
def test_a_batch_compares_the_records_of_its_workload_and_seed(ab, monkeypatch, tmp_path, capsys,
                                                               records, identical, status):
    # every pair ties, so only the records can fail the batch; a record of
    # another workload is not compared
    argv = two_checkouts(tmp_path) + ["--pairs", "2"]
    for side, text in records.items():
        (tmp_path / side / "perfbench" / "out").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "out" / "records-oracles-seed7.json").write_text(text)
    (tmp_path / "change" / "perfbench" / "out").mkdir(parents=True, exist_ok=True)
    (tmp_path / "change" / "perfbench" / "out" / "records-ks_sweep-seed7.json").write_text("{}")
    monkeypatch.setattr(ab, "run_once", lambda checkout, names, args: ({"wall_s": 1.0}, True))
    assert ab.main(argv) == status
    assert json.loads(open(ab.RECORDS).read())["records_identical"] is identical
    verdict = {True: "identical", False: "DIFFER", None: "missing in a checkout"}[identical]
    assert f"records-oracles-seed7.json: {verdict}" in capsys.readouterr().out


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_a_batch_of_fewer_than_two_pairs_is_refused_before_any_run(ab, monkeypatch, tmp_path,
                                                                    capsys, pairs):
    def run_once(checkout, names, args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(ab, "run_once", run_once)
    with pytest.raises(SystemExit) as refused:
        ab.main(two_checkouts(tmp_path) + ["--pairs", pairs])
    assert refused.value.code == 2
    assert f"a batch needs at least 2 pairs, got {pairs}" in capsys.readouterr().err
    assert not os.path.exists(ab.RECORDS)


def test_a_failed_run_ends_the_batch_with_its_stderr(ab, monkeypatch, tmp_path, capsys):
    # the parent's first run passes; the change's exits 1 with a long stderr,
    # whose last lines the message shows
    argv = two_checkouts(tmp_path)
    result = {"metrics": {"wall_s": {"value": 1.0}}, "correct": True}
    last = "ModuleNotFoundError: No module named 'mhjump'\n"
    stderr = "".join(f"line {k}\n" for k in range(30)) + last

    def run(cmd, cwd, **kwargs):
        assert kwargs["check"] is True
        if os.path.basename(cwd) == "change":
            raise ab.subprocess.CalledProcessError(1, cmd, output="", stderr=stderr)
        return ab.subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(ab.subprocess, "run", run)
    assert ab.main(argv) == 1
    out, err = capsys.readouterr()
    assert out.startswith("pair 1 parent wall_s 1.0000")
    assert f"pair 1 change: the run in {argv[1]} exited with status 1" in err
    assert err.endswith("".join(f"line {k}\n" for k in range(21, 30)) + last)
    assert "line 20" not in err and "Traceback" not in err
    assert not os.path.exists(ab.RECORDS)


def test_trajectory_chains_the_claimed_ratios(monkeypatch, tmp_path, capsys):
    # three batches of one workload and seed: two claim a gain in wall time,
    # the one between them claims none and regresses
    trajectory = load_script(monkeypatch, tmp_path, "trajectory")

    def record(date, commit, dirty, ratio, claimed, regressed):
        verdicts = {"ratio": ratio, "wins": 10 if claimed else 3, "losses": 0 if claimed else 7,
                    "gain_claimed": claimed, "regressed": regressed}
        return {"date": f"{date}T12:00:00+00:00", "workload": "ks_sweep", "seed": 7,
                "change": {"commit": commit, "dirty": dirty}, "metrics": {"wall_s": verdicts}}

    with open(trajectory.RECORDS, "w") as f:
        for r in (record("2026-01-02", "a" * 40, False, 0.8, True, False),
                  record("2026-02-03", "b" * 40, True, 1.3, False, True),
                  record("2026-03-04", None, False, 0.5, True, False)):
            f.write(json.dumps(r) + "\n")
    assert trajectory.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "ks_sweep seed 7 wall_s",
        "  2026-01-02 aaaaaaa  ratio 0.8000 (won 10, lost 0) gain claimed",
        "  2026-02-03 bbbbbbb+ ratio 1.3000 (won 3, lost 7) REGRESSED",
        "  2026-03-04 none     ratio 0.5000 (won 10, lost 0) gain claimed",
        "  product of 2 claimed ratio(s): 0.4000",
    ]


def test_trajectory_since_a_date_keeps_the_later_records(monkeypatch, tmp_path, capsys):
    # the cut is by the date a record was appended, on or after it; a record
    # with no commit is cut the same way
    trajectory = load_script(monkeypatch, tmp_path, "trajectory")
    verdicts = {"wins": 10, "losses": 0, "gain_claimed": True, "regressed": False}
    with open(trajectory.RECORDS, "w") as f:
        for date, commit, ratio in (("2026-01-02T23:59:59", "a" * 40, 0.8),
                                    ("2026-01-03T00:00:00", None, 0.5),
                                    ("2026-02-01T08:00:00", "b" * 40, 0.9)):
            f.write(json.dumps({"date": f"{date}+00:00", "workload": "oracles", "seed": 7,
                                "change": {"commit": commit, "dirty": False},
                                "metrics": {"cpu_s": dict(verdicts, ratio=ratio)}}) + "\n")
    assert trajectory.main(["--since", "2026-01-03"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "oracles seed 7 cpu_s",
        "  2026-01-03 none     ratio 0.5000 (won 10, lost 0) gain claimed",
        "  2026-02-01 bbbbbbb  ratio 0.9000 (won 10, lost 0) gain claimed",
        "  product of 2 claimed ratio(s): 0.4500",
    ]
    assert trajectory.main(["--since", "2026-03-01"]) == 0
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as refused:
        trajectory.main(["--since", "last week"])
    assert refused.value.code == 2


def test_trajectory_stops_quietly_when_its_reader_closes(tmp_path):
    # a reader that takes one line and closes the pipe, as `| head -1` does,
    # while the script still has far more than a pipe's buffer to print: the
    # script exits 1 with nothing on stderr, not with a BrokenPipeError
    (tmp_path / "scripts").mkdir()
    shutil.copy(os.path.join(ROOT, "scripts", "trajectory.py"), tmp_path / "scripts")
    verdicts = {"ratio": 1.0, "wins": 5, "losses": 5, "gain_claimed": False, "regressed": False}
    record = json.dumps({"date": "2026-01-02T12:00:00+00:00", "workload": "ks_sweep", "seed": 7,
                         "change": {"commit": None, "dirty": False},
                         "metrics": {"wall_s": verdicts}})
    (tmp_path / "BENCH_pairs.json").write_text((record + "\n") * 5000)
    with subprocess.Popen([sys.executable, str(tmp_path / "scripts" / "trajectory.py")],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "ks_sweep seed 7 wall_s\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == ""


def test_trajectory_marks_a_backfilled_record(monkeypatch, tmp_path, capsys):
    # a record appended later from an earlier change's listed runs says so
    trajectory = load_script(monkeypatch, tmp_path, "trajectory")
    verdicts = {"ratio": 0.8, "wins": 10, "losses": 0, "gain_claimed": True, "regressed": False}
    with open(trajectory.RECORDS, "w") as f:
        record = {"date": "2026-01-02T12:00:00+00:00", "workload": "ks_sweep", "seed": 7,
                  "change": {"commit": "a" * 40, "dirty": None}, "metrics": {"wall_s": verdicts}}
        f.write(json.dumps(record) + "\n")
        f.write(json.dumps(dict(record, backfilled=True)) + "\n")
    assert trajectory.main() == 0
    assert capsys.readouterr().out.splitlines()[1:3] == [
        "  2026-01-02 aaaaaaa  ratio 0.8000 (won 10, lost 0) gain claimed",
        "  2026-01-02 aaaaaaa  ratio 0.8000 (won 10, lost 0) gain claimed, backfilled",
    ]
