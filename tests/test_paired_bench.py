"""``scripts/paired_bench.py`` refuses to record a run that is not correct."""

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
