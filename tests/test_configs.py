import csv
import json
from pathlib import Path

import pytest

from renewalrisk.cli import EXPERIMENTS, main, parse_config

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ROOT / "scripts" / "configs"
CONFIGS = sorted(SHIPPED.glob("*.json")) + sorted((ROOT / "perfbench" / "workloads").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_passes_the_contract(config):
    # the README tells users to run these and the benchmark runs the workloads;
    # a tightened parser, such as the unknown-field check, must not reject them
    doc = json.loads(config.read_text())
    cfg = parse_config(doc)
    assert cfg["experiment"] == doc["experiment"]
    assert all(grid in cfg["grids"] for grid in EXPERIMENTS[cfg["experiment"]])


@pytest.mark.parametrize(
    "config, dependence",
    [
        ("verify_conditions_nested.json", None),
        ("verify_conditions_fgm.json", None),
        # the same grids for frank-tri at gamma 1
        ("verify_conditions_nested.json", {"kind": "frank-tri", "gamma": 1.0}),
    ],
    ids=["nested", "fgm", "frank"],
)
def test_verify_conditions_series_all_decrease(tmp_path, config, dependence):
    # every copula example satisfies the three conditions: the deviation of the
    # exact conditional window probability from its factorization shrinks in x
    doc = json.loads((SHIPPED / config).read_text())
    if dependence is not None:
        doc["model"]["dependence"] = dependence
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps(doc))
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    series = {}
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            series.setdefault((row["condition"], row["claim"]), []).append(float(row["max_deviation"]))
    assert sorted(series) == [("1", "1"), ("1", "2"), ("2", "1"), ("3", "1"), ("3", "2")]
    for key, devs in series.items():
        assert len(devs) == len(doc["grids"]["x_grid"]), key
        assert all(a > b for a, b in zip(devs, devs[1:])), (key, devs)
