import json
import subprocess
import sys
from pathlib import Path

import pytest

from renewalrisk.cli import EXPERIMENTS, parse_config

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
CONFIGS = sorted((SCRIPTS / "configs").glob("*.json")) + sorted((ROOT / "perfbench" / "workloads").glob("*.json"))


def run_script(name, *args):
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_run_conditions_rows_all_decrease():
    rows = run_script("run_conditions.py")[1:]
    assert len(rows) == 9, rows
    assert all(row.split()[-1] == "ok" for row in rows), rows


def test_run_counterexample_prints_every_block():
    lines = run_script("run_counterexample.py", "--n-max", "8")
    blocks = [line.split() for line in lines[2:]]
    assert [int(b[0]) for b in blocks] == list(range(1, 9)), lines
    assert all(len(b) == 5 for b in blocks), lines


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_passes_the_contract(config):
    # the README tells users to run these and the benchmark runs the workloads;
    # a tightened parser, such as the unknown-field check, must not reject them
    doc = json.loads(config.read_text())
    cfg = parse_config(doc)
    assert cfg["experiment"] == doc["experiment"]
    assert all(grid in cfg["grids"] for grid in EXPERIMENTS[cfg["experiment"]])
