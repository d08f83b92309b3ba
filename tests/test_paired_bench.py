"""``scripts/paired_bench.py`` refuses to record a run that is not correct,
and records the size of ``src/`` on both sides."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "paired_bench.py")


def load_script():
    spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 2)])
def test_bad_run_stops_before_any_bench_file(tmp_path, monkeypatch, correct, failed):
    """The parent side runs first in pair 0; its bad result ends the script
    before the working tree is benchmarked."""
    result = {"correct": correct, "attempted": 3, "failed": failed,
              "metrics": {m: {"value": 1.0} for m in ("round_s", "setup_s", "peak_rss_mb")}}
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"print({json.dumps(json.dumps(result))})\n", encoding="utf-8")
    tree = tmp_path / "tree"
    tree.mkdir()
    bench = load_script()
    monkeypatch.setattr(bench, "ROOT", str(tree))
    with pytest.raises(SystemExit) as exc:
        bench.main(["--parent", str(tmp_path), "--pr", "test"])
    message = str(exc.value.code)
    assert message.startswith("error: parent run of pair 0 on suite")
    assert len(message.splitlines()) == 1
    assert list(tree.iterdir()) == []


def fake_tree(root, run_py: str, src_files: dict):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(run_py, encoding="utf-8")
    (root / "src" / "leibniz").mkdir(parents=True)
    for name, text in src_files.items():
        (root / "src" / "leibniz" / name).write_text(text, encoding="utf-8")


def test_non_json_result_stops_with_one_line(tmp_path, monkeypatch):
    fake_tree(tmp_path, "print('Traceback (most recent call last):')\n", {})
    tree = tmp_path / "tree"
    tree.mkdir()
    bench = load_script()
    monkeypatch.setattr(bench, "ROOT", str(tree))
    with pytest.raises(SystemExit) as exc:
        bench.main(["--parent", str(tmp_path), "--pr", "test"])
    message = str(exc.value.code)
    assert message.startswith("error: no JSON result from")
    assert "(suite)" in message and "Traceback" in message
    assert len(message.splitlines()) == 1
    assert list(tree.iterdir()) == []


def test_bench_file_records_src_line_counts(tmp_path, monkeypatch):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {m: {"value": 1.0} for m in ("round_s", "setup_s", "peak_rss_mb")}}
    run_py = f"print({json.dumps(json.dumps(result))})\n"
    parent, change = tmp_path / "parent", tmp_path / "change"
    fake_tree(parent, run_py, {"a.py": "1\n2\n3\n", "b.py": "4\n", "notes.txt": "x\n"})
    fake_tree(change, run_py, {"a.py": "1\n2\n"})
    bench = load_script()
    monkeypatch.setattr(bench, "ROOT", str(change))
    monkeypatch.setattr(bench, "PAIRS", 2)
    monkeypatch.setattr(bench, "WORKLOADS", ("suite",))
    monkeypatch.setattr(bench, "commit", lambda tree: "0" * 40)
    assert bench.main(["--parent", str(parent), "--pr", "test"]) == 0
    doc = json.loads((change / "BENCH_test.json").read_text(encoding="utf-8"))
    assert doc["src_lines"] == {"parent": 4, "change": 2}
    assert len(doc["runs"]) == 4


def test_seed_reaches_every_run_and_the_bench_file(tmp_path, monkeypatch):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {m: {"value": 1.0} for m in ("round_s", "setup_s", "peak_rss_mb")}}
    run_py = ("import sys\n"
              "open('argv.log', 'a').write(' '.join(sys.argv[1:]) + '\\n')\n"
              f"print({json.dumps(json.dumps(result))})\n")
    parent, change = tmp_path / "parent", tmp_path / "change"
    fake_tree(parent, run_py, {})
    fake_tree(change, run_py, {})
    bench = load_script()
    monkeypatch.setattr(bench, "ROOT", str(change))
    monkeypatch.setattr(bench, "PAIRS", 2)
    monkeypatch.setattr(bench, "WORKLOADS", ("suite",))
    monkeypatch.setattr(bench, "commit", lambda tree: "0" * 40)
    assert bench.main(["--parent", str(parent), "--pr", "test", "--seed", "2"]) == 0
    doc = json.loads((change / "BENCH_test.json").read_text(encoding="utf-8"))
    assert doc["seed"] == 2 and "--seed 2 " in doc["command"]
    assert [r["seed"] for r in doc["runs"]] == [2] * 4
    for tree in (parent, change):
        lines = (tree / "argv.log").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 and all("--seed 2 " in line for line in lines)
    assert bench.main(["--parent", str(parent), "--pr", "default"]) == 0
    assert json.loads((change / "BENCH_default.json").read_text(encoding="utf-8"))["seed"] == 1


def made_up_runs(parent: list, change: list, metric="round_s") -> list:
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"pair": pair, "side": side, "workload": "squares-q",
                         **{m: 1.0 for m in ("round_s", "setup_s", "peak_rss_mb")}, metric: value})
    return runs


BOUNDS = {"round_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.15}
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.98, 1.02


@pytest.mark.parametrize("change, wins, shown", [
    ([0.6] * 9 + [1.1], 9, True),            # 9 of 10 and far below
    ([0.6] * 8 + [1.1, 1.1], 8, False),      # far below, but only 8 of 10
    ([v - 0.01 for v in PARENT], 10, False),  # 10 of 10, but inside the spread
])
def test_gain_shown(change, wins, shown):
    bench = load_script()
    entry = bench.summary(made_up_runs(PARENT, change), BOUNDS)["squares-q"]["round_s"]
    assert entry["change_wins"] == wins and entry["pairs"] == 10
    assert entry["parent_iqr"] == pytest.approx(0.04)
    assert entry["gain_shown"] is shown


@pytest.mark.parametrize("metric, factor, within", [
    ("round_s", 1.24, True), ("round_s", 1.26, False),
    ("peak_rss_mb", 1.14, True), ("peak_rss_mb", 1.16, False),
    ("setup_s", 0.5, True),
])
def test_within_bound(metric, factor, within):
    bench = load_script()
    parent = [10.0] * 10
    runs = made_up_runs(parent, [10.0 * factor] * 10, metric)
    entry = bench.summary(runs, BOUNDS)["squares-q"][metric]
    assert entry["within_bound"] is within
    assert entry["gain_shown"] is (factor < 1)


def test_bounds_are_read_from_the_benchmark():
    path = os.path.join(os.path.dirname(os.path.dirname(SCRIPT)), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        declared = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    assert load_script().load_bounds() == declared
