import csv
import json
import math
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


@pytest.mark.parametrize("experiment", ["verify-conditions", "copula-check"])
@pytest.mark.parametrize(
    "config, model",
    [
        ("verify_conditions_nested.json", {}),
        ("verify_conditions_fgm.json", {}),
        ("verify_conditions_frank.json", {}),
        ("verify_conditions_nested.json", {"dependence": {"kind": "frank-tri", "gamma": 1.0}}),
        # f2's windows have probability 0 from x = 1e6 on (exp(-1000)), where a
        # ratio of window probabilities would read 0/0
        ("verify_conditions_nested.json", {"f2": {"family": "weibull", "shape": 0.5},
                                           "dependence": {"kind": "sarmanov-fgm", "g12": -0.5,
                                                          "g13": 0.2, "g23": 0.1}}),
    ],
    ids=["nested", "fgm", "frank", "frank-nested-grids", "fgm-weibull-tail"],
)
def test_condition_experiments_finite_and_quiet(tmp_path, capsys, config, model, experiment):
    # every deviation and bound is a number, and nothing is printed on stderr
    doc = json.loads((SHIPPED / config).read_text())
    doc["model"].update(model)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps(doc))
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out, newline="") as fh:
        values = [float(row[-1]) for row in list(csv.reader(fh))[1:]]
    if experiment == "verify-conditions":
        assert len(values) == 5 * len(doc["grids"]["x_grid"])  # C1 and C3 for both claims, C2 once
    assert all(math.isfinite(v) for v in values), values
