"""Golden CLI sweep: the stdout and exit code of a fixed set of commands,
run in-process through ``cli.main`` with LEIBNIZ_SEED unset, must equal
those recorded in ``tests/data/cli_golden.json`` byte for byte.

After an intended change of output, rewrite the recorded file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff: only the entries of the changed commands may move.
``{data}`` in a command stands for the ``tests/data`` directory.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from leibniz.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
W = "file:{data}/w_bimodule.json"

COMMANDS = [
    "kernel --example A --json",
    "kernel --example hemi-sl2-L1 --json",
    "canonical-lie --example N --json",
    "canonical-lie --example hemi-sl2-L1 --json",
    "bimodule --example A --json",
    "bimodule --example sl2 --json",
    "bimodule --example e --module trivial:2 --json",
    "bimodule --example sl2 --module sym:L0 --json",
    "bimodule --example sl2 --module sym:L1 --json",
    "bimodule --example sl2 --module sym:L2 --json",
    "bimodule --example sl2 --module anti:L0 --json",
    "bimodule --example sl2 --module anti:L1 --json",
    "bimodule --example sl2 --module anti:L2 --json",
    "tensor --example A --json",
    "tensor --example N --field Fp:3 --json",
    "trunc --bar --example A --json",
    "trunc --under --example A --json",
    "trunc --bar --example N --field Fp:2 --json",
    "trunc --under --example e --json",
    "trunc-report --example A --json",
    "trunc-report --example N --field Fp:2 --json",
    f"trunc-report --example A --left {W} --right {W} --json",
    "chop --example sl2 --json",
    "chop --example sl2 --field Fp:101 --json",
    "chop --example hemi-sl2-L1 --json",
    "chop --example sl2 --left sym:L2 --field Fp:101 --json",
    "envelope --example e --cutoff 2 --dims --hopf --homs --primitive --json",
    "envelope --example A --cutoff 2 --dims --hopf --homs --primitive --json",
    "gr mul --rule sl2 --lhs S(1) --rhs S(1)+A(1) --json",
    "gr props --rule weight:1 --window 1 --trials 50 --json",
    "gr verify --rule sl2 --max 1 --json",
    "paper-suite --json --seed 0",
    "bimodule --example A --module onedim:0,0;0,1 --json",
    "bimodule --example A --module onedim:0,1;0,0 --json",
    "bimodule --example e --module onedim:0;1 --json",
    "tensor --example sl2 --left sym:L1 --right anti:L1 --json",
    "gr props --rule sl2 --window 2 --trials 60 --json",
    "gr props --rule weight:2 --window 1 --trials 60 --json",
    "gr verify --rule weight:1 --max 1 --json",
    "paper-suite --json --seed 1",
    "envelope --example N --cutoff 2 --homs --json",
    "envelope --example sl2 --cutoff 2 --homs --json",
    "envelope --example hemi-sl2-L1 --cutoff 2 --homs --json",
    "envelope --example A --field Fp:3 --cutoff 3 --homs --json",
    "canonical-lie --example A --json",
    "canonical-lie --example sl2 --field Fp:3 --json",
    "canonical-lie --example abelian:2 --json",
    "kernel --example sl2 --json",
    "kernel --example N --field Fp:2 --json",
    "kernel --example abelian:3 --json",
    "gr mul --rule weight:1 --lhs S(1/2)+S(2)+S(-1/3) --rhs U+A(1)",
    "gr mul --rule weight:2 --lhs S(1/2,0)+S(2,0) --rhs U --json",
    "bimodule --example A --module onedim:1/2,0;1/2,0 --dump --json",
    "chop --example A --left onedim:1/2,0;1/2,0 --json",
    "trunc-report --example A --left onedim:1/3,0;0,0 --right onedim:1/3,0;0,0 --json",
    "check --example sl2 --dump --json",
    "gr props --rule star:weight:1,sl2 --window 2 --json",
    "gr props --rule star:sl2,sl2 --window 2 --json",
    "envelope --example hemi-sl2-L1 --which ul --cutoff 4 --dims --json",
    "envelope --example hemi-sl2-L1 --which ulweak --field Fp:101 --cutoff 4 --dims --json",
]


def run(command: str) -> dict:
    argv = command.replace("{data}", str(DATA)).split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_recorded_commands_are_the_sweep(golden):
    assert list(golden) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_recording(command, golden, monkeypatch):
    monkeypatch.delenv("LEIBNIZ_SEED", raising=False)
    assert run(command) == golden[command]


if __name__ == "__main__":
    os.environ.pop("LEIBNIZ_SEED", None)
    doc = {command: run(command) for command in COMMANDS}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
