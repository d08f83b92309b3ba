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
