import csv
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BASE_MODEL = {
    "f1": {"family": "pareto", "alpha": 1.0},
    "f2": {"family": "pareto", "alpha": 1.0},
    "g": {"family": "exponential", "rate": 1.0},
    "dependence": {"kind": "frank-tri", "gamma": 1.0},
    "r": 0.05,
    "t_max": 2.0,
    "seed": 11,
    "batch_size": 50000,
}


def run_cli(tmp_path, doc, *args):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return subprocess.run(
        [sys.executable, "-m", "renewalrisk.cli", "--config", str(cfg), *args],
        capture_output=True,
        text=True,
        timeout=600,  # a run that never ends (say, zero inter-arrival times) fails instead of hanging
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def make_doc(experiment, **extra):
    doc = {
        "model": dict(BASE_MODEL),
        "experiment": experiment,
        "grids": {"t_grid": [0.5, 1.0], "x_grid": [5.0, 10.0], "d": 5.0,
                  "s_grid": [0.0, 0.5, 1.0]},
        "n_paths": 50000,
        "renewal_step": 0.002,
        "output_path": "-",
    }
    doc.update(extra)
    return doc


def test_missing_config_flag(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "renewalrisk.cli"], capture_output=True, text=True
    )
    assert res.returncode == 2


def test_bad_json_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    res = subprocess.run(
        [sys.executable, "-m", "renewalrisk.cli", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 2
    assert res.stderr.strip()


def test_missing_required_field_exit_2(tmp_path):
    doc = make_doc("simulate")
    del doc["model"]["f1"]
    res = run_cli(tmp_path, doc)
    assert res.returncode == 2
    assert "f1" in res.stderr


def test_unknown_experiment_exit_2(tmp_path):
    res = run_cli(tmp_path, make_doc("nonsense"))
    assert res.returncode == 2
    assert "experiment" in res.stderr


def test_invalid_fgm_exit_2(tmp_path):
    doc = make_doc("copula-check")
    doc["model"]["dependence"] = {"kind": "sarmanov-fgm", "g12": 0.9, "g13": 0.9, "g23": -0.9}
    res = run_cli(tmp_path, doc)
    assert res.returncode == 2
    assert "FGM" in res.stderr or "fgm" in res.stderr


def test_simulate_csv_schema(tmp_path):
    out = tmp_path / "out.csv"
    doc = make_doc("simulate", output_path=str(out))
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr
    rows = read_csv(out)
    assert rows[0][:6] == ["t", "x1", "x2", "d1", "d2", "r"]
    assert "empirical" in rows[0] and "empirical_se" in rows[0]
    assert len(rows) == 1 + 2 * 2  # t_grid x x_grid
    # numeric cells parse as floats
    float(rows[1][rows[0].index("empirical")])


def test_asymptotic_csv(tmp_path):
    out = tmp_path / "out.csv"
    res = run_cli(tmp_path, make_doc("asymptotic", output_path=str(out)))
    assert res.returncode == 0, res.stderr
    rows = read_csv(out)
    i = rows[0].index("asymptotic_total")
    vals = [float(r[i]) for r in rows[1:]]
    assert all(v > 0 for v in vals)


def test_compare_fills_both_sides(tmp_path):
    out = tmp_path / "out.csv"
    res = run_cli(tmp_path, make_doc("compare", output_path=str(out)))
    assert res.returncode == 0, res.stderr
    rows = read_csv(out)
    hdr = rows[0]
    for r in rows[1:]:
        assert float(r[hdr.index("asymptotic_total")]) > 0
        assert r[hdr.index("empirical")] != ""
        assert r[hdr.index("ratio")] != ""


def test_compare_thread_invariance(tmp_path):
    out1, out4 = tmp_path / "a.csv", tmp_path / "b.csv"
    doc = make_doc("compare")
    doc["output_path"] = str(out1)
    assert run_cli(tmp_path, doc).returncode == 0
    doc["output_path"] = str(out4)
    assert run_cli(tmp_path, doc, "--threads", "4").returncode == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_seed_flag_overrides(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    doc = make_doc("simulate")
    doc["output_path"] = str(out1)
    assert run_cli(tmp_path, doc, "--seed", "99").returncode == 0
    doc["output_path"] = str(out2)
    assert run_cli(tmp_path, doc, "--seed", "100").returncode == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_out_flag_overrides_config(tmp_path):
    target = tmp_path / "flag.csv"
    doc = make_doc("renewal", output_path=str(tmp_path / "ignored.csv"))
    res = run_cli(tmp_path, doc, "--out", str(target))
    assert res.returncode == 0, res.stderr
    assert target.exists()
    assert not (tmp_path / "ignored.csv").exists()


def test_renewal_poisson_output(tmp_path):
    out = tmp_path / "out.csv"
    res = run_cli(tmp_path, make_doc("renewal", output_path=str(out)))
    assert res.returncode == 0, res.stderr
    rows = read_csv(out)
    hdr = rows[0]
    last = rows[-1]
    t = float(last[hdr.index("t")])
    lam = float(last[hdr.index("lambda")])
    assert lam == pytest.approx(t, abs=5e-3)


def test_copula_check_runs(tmp_path):
    out = tmp_path / "out.csv"
    doc = make_doc("copula-check", output_path=str(out), n_boxes=2000)
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr
    rows = read_csv(out)
    assert len(rows) >= 2


def test_copula_check_takes_underflowed_probes_at_their_limit(tmp_path):
    # the windows at x = 1e4 have probability 0 under Weibull(0.8, 2); their
    # ratios are formed per unit width, so every probe counts and none is named
    out = tmp_path / "out.csv"
    model = dict(BASE_MODEL, f1={"family": "weibull", "shape": 0.8, "scale": 2.0},
                 f2={"family": "pareto", "alpha": 2.5}, g={"family": "exponential", "rate": 2.0},
                 dependence={"kind": "sarmanov-fgm", "g12": -0.5, "g13": 0.2, "g23": 0.1})
    res = run_cli(tmp_path, make_doc("copula-check", model=model, output_path=str(out), n_boxes=2000))
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    metrics = {key: float(val) for key, val in read_csv(out)[1:]}
    assert all(math.isfinite(val) for val in metrics.values()), metrics
    assert metrics["c1"] == pytest.approx(0.19267, abs=1e-5)


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(tmp_path, threads):
    # a nonpositive worker count is an error, not a silent single worker
    res = run_cli(tmp_path, make_doc("simulate"), "--threads", threads)
    assert res.returncode == 2, res.stderr
    assert f"argument --threads: must be >= 1, got {threads}" in res.stderr


def test_counterexample_runs(tmp_path):
    out = tmp_path / "out.csv"
    doc = make_doc("counterexample", output_path=str(out), counterexample_n_max=6)
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr
    hdr, *rows = read_csv(out)
    assert [int(row[0]) for row in rows] == list(range(1, 7))
    for row in rows:
        n, witness = int(row[0]), float(row[hdr.index("witness")])
        assert abs(witness - math.log(n + 1)) <= 1e-12, row  # f(mid_n) / f(b_n) = ln(n+1)


def test_counterexample_needs_no_model(tmp_path):
    # counterexample reads only counterexample_n_max
    out = tmp_path / "out.csv"
    doc = {"experiment": "counterexample", "counterexample_n_max": 3, "output_path": str(out)}
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr
    assert [row[0] for row in read_csv(out)[1:]] == ["1", "2", "3"]
    res = run_cli(tmp_path, doc, "--seed", "-1")
    assert res.returncode == 2 and "config.model.seed" in res.stderr, res.stderr


def test_simulate_still_needs_a_model(tmp_path):
    res = run_cli(tmp_path, {"experiment": "simulate", "grids": {"t_grid": [1.0], "x_grid": [5.0]}})
    assert res.returncode == 2
    assert "config.model: required field missing" in res.stderr


def test_verify_conditions_runs(tmp_path):
    out = tmp_path / "out.csv"
    doc = make_doc("verify-conditions", output_path=str(out))
    doc["grids"]["x_grid"] = [10.0, 100.0]
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr
    assert len(read_csv(out)) >= 2


def test_lemma33_runs(tmp_path):
    lines = {}
    for t_grid in ([1.0], [0.5, 1.0]):
        out = tmp_path / f"out{len(t_grid)}.csv"
        doc = make_doc("lemma33", output_path=str(out), n=1, n_paths=20000)
        doc["grids"]["x_grid"] = [2.0, 4.0]
        doc["grids"]["t_grid"] = t_grid
        res = run_cli(tmp_path, doc)
        assert res.returncode == 0, res.stderr
        lines[len(t_grid)] = out.read_text().splitlines()
    rows = read_csv(tmp_path / "out2.csv")
    hdr = rows[0]
    # one row per (t, box), t outermost, in config order
    cells = [(float(row[hdr.index("t")]), float(row[hdr.index("x1")])) for row in rows[1:]]
    assert cells == [(0.5, 2.0), (0.5, 4.0), (1.0, 2.0), (1.0, 4.0)]
    assert all(float(row[hdr.index("ratio")]) == 1.0 for row in rows[1:])  # n=1 is an identity
    # one pass to the largest t: its rows are those of a run at that t alone
    assert lines[2][3:] == lines[1][1:]


def test_positional_experiment_overrides(tmp_path):
    out = tmp_path / "out.csv"
    doc = make_doc("simulate", output_path=str(out))
    res = run_cli(tmp_path, doc)  # keep config experiment
    assert res.returncode == 0
    rows = read_csv(out)
    assert rows[1][rows[0].index("asymptotic_total")] == ""  # simulate leaves it blank


VERIFY_S_GRID = [0.0, 0.5, 1.0]
DETERMINISTIC_G = {"family": "deterministic", "value": 0.5}


@pytest.mark.parametrize(
    "experiment, change, path, args",
    [
        ("lemma33", {"n": 4}, "config.n", ()),
        ("simulate", {"n_paths": 0}, "config.n_paths", ()),
        ("simulate", {"box": {"x1": 5.0, "x2": 5.0, "d1": 0.0, "d2": 5.0}}, "config.box", ()),
        ("simulate", {"seed": -1}, "config.model.seed", ()),
        ("simulate", {"seed": 2**64}, "config.model.seed", ()),
        ("copula-check", {"n_boxes": 0}, "config.n_boxes", ()),
        ("counterexample", {"counterexample_n_max": 9}, "config.counterexample_n_max", ()),
        ("asymptotic", {"renewal_step": 0.0}, "config.renewal_step", ()),
        ("asymptotic", {"renewal_step": 0.25}, "config.renewal_step", ()),
        # JSON's Infinity and NaN parse to floats; they must not reach int() or a solver
        ("simulate", {"model": {"batch_size": math.inf}}, "config.model.batch_size", ()),
        ("counterexample", {"model": {"f1": {"family": "counterexample", "n_max": math.inf}}},
         "config.model.f1.n_max", ()),
        ("asymptotic", {"model": {"t_max": math.nan}}, "config.model.t_max", ()),
        # every section must be an object before any of its fields is read
        ("simulate", {"grids": 5}, "config.grids", ()),
        ("simulate", {"model": 5}, "config.model", ()),
        ("simulate", {"model": {"dependence": 5}}, "config.model.dependence", ()),
        ("simulate", {"model": {"premiums": [5, {"kind": "linear", "rate": 1.0}]}},
         "config.model.premiums[0]", ()),
        # grids are checked at parse time, not by the solver that reads them
        ("verify-conditions", {"grids": {"s_grid": VERIFY_S_GRID, "x_grid": [-1, 10]}},
         "config.grids.x_grid", ()),
        ("verify-conditions", {"grids": {"s_grid": VERIFY_S_GRID, "x_grid": [10], "d": 0}},
         "config.grids.d", ()),
        ("verify-conditions", {"grids": {"s_grid": [-1.0, 0.5], "x_grid": [10]}},
         "config.grids.s_grid", ()),
        ("verify-conditions", {"grids": {"s_grid": [0.0, 50.0], "x_grid": [10]}},
         "config.grids.s_grid", ()),
        # no experiment scores the net loss yet, so a premium is rejected, not ignored
        ("renewal", {"model": {"premiums": [{"kind": "linear", "rate": 3.0}, {"kind": "linear", "rate": 0.0}]}},
         "config.model.premiums", ()),
        ("compare", {"model": {"premiums": [{"kind": "linear", "rate": 3.0}, {"kind": "linear", "rate": 3.0}]}},
         "config.model.premiums", ()),
        ("copula-check", {"model": {"dependence": {"kind": "frank-tri", "gamma": math.nan}}},
         "config.model.dependence", ()),
        # the nested structure is a copula only for gamma <= 1; its sampler emits NaN at 20
        ("simulate", {"model": {"dependence": {"kind": "nested-frank-product", "gamma": 20.0}}},
         "config.model.dependence.gamma", ()),
        # at gamma = 1, g(0) = 0: the experiments that tilt the renewal measure by g reject it
        *((experiment, {"model": {"dependence": {"kind": "nested-frank-product", "gamma": 1.0}}},
           "config.model.dependence.gamma", ()) for experiment in ("renewal", "asymptotic", "compare")),
        # frank-tri: gamma <= 20 wherever its quadrature formulas are used, <= 700 for the sampler alone
        ("verify-conditions", {"model": {"dependence": {"kind": "frank-tri", "gamma": 21.0}}},
         "config.model.dependence.gamma", ()),
        ("asymptotic", {"model": {"dependence": {"kind": "frank-tri", "gamma": 30.0}}},
         "config.model.dependence.gamma", ()),
        ("simulate", {"model": {"dependence": {"kind": "frank-tri", "gamma": 701.0}}},
         "config.model.dependence.gamma", ()),
        # both Frank variants lose about eps/gamma below gamma = 1e-6, in every experiment
        ("simulate", {"model": {"dependence": {"kind": "frank-tri", "gamma": 1e-20}}},
         "config.model.dependence.gamma", ()),
        ("verify-conditions", {"model": {"dependence": {"kind": "frank-tri", "gamma": 1e-39}}},
         "config.model.dependence.gamma", ()),
        ("copula-check", {"model": {"dependence": {"kind": "frank-tri", "gamma": 0.0}}},
         "config.model.dependence.gamma", ()),
        ("lemma33", {"model": {"dependence": {"kind": "nested-frank-product", "gamma": 9e-7}}},
         "config.model.dependence.gamma", ()),
        ("counterexample", {"model": {"dependence": {"kind": "nested-frank-product", "gamma": 1e-12}}},
         "config.model.dependence.gamma", ()),
        # a deterministic g makes theta one constant, which the claims never see; the
        # experiments that read theta through G(s) need claims independent of theta
        ("copula-check", {"model": {"g": DETERMINISTIC_G}}, "config.model.g", ()),
        ("compare", {"model": {"g": DETERMINISTIC_G}}, "config.model.g", ()),
        ("renewal", {"model": {"g": DETERMINISTIC_G,
                               "dependence": {"kind": "nested-frank-product", "gamma": 0.5}}},
         "config.model.g", ()),
        ("asymptotic", {"model": {"g": DETERMINISTIC_G,
                                  "dependence": {"kind": "sarmanov-fgm", "g12": 0.3, "g13": 0.0, "g23": 0.4}}},
         "config.model.g", ()),
        ("verify-conditions", {"model": {"g": DETERMINISTIC_G,
                                         "dependence": {"kind": "sarmanov-fgm", "g12": 0.0, "g13": -0.2, "g23": 0.0}}},
         "config.model.g", ()),
        # zero inter-arrival times explode the renewal process: simulate never reached
        # the horizon, and renewal failed only once it ran (exit 3)
        ("simulate", {"model": {"g": {"family": "deterministic", "value": 0}}}, "config.model.g.value", ()),
        ("renewal", {"model": {"g": {"family": "deterministic", "value": 0.0}}}, "config.model.g.value", ()),
        # an unhashable experiment or a non-string output path is a config error, not a crash
        ("simulate", {"experiment": ["simulate"]}, "config.experiment", ()),
        ("simulate", {"output_path": 1}, "config.output_path", ()),
        # command-line overrides apply only after the document's shape is checked
        ("simulate", [], "config", ("simulate",)),
        ("simulate", {"model": 5}, "config.model", ("--seed", "3")),
        ("simulate", {}, "config.model.seed", ("--seed", "-1")),
        # a misspelt key is an error, not a silently kept default
        ("compare", {"n_path": 10}, "config.n_path", ()),
        ("compare", {"model": {"rr": 0.5}}, "config.model.rr", ()),
        ("simulate", {"grids": {"t_grid": [0.5], "x_grid": [5.0], "dx": 1.0}}, "config.grids.dx", ()),
        ("simulate", {"box": {"x1": 5.0, "x2": 5.0, "d1": 5.0, "d2": 5.0, "d3": 5.0}}, "config.box.d3", ()),
        ("simulate", {"model": {"f1": {"family": "pareto", "alpha": 1.0, "scale": 2.0}}},
         "config.model.f1.scale", ()),
        ("simulate", {"model": {"dependence": {"kind": "independent", "gamma": 1.0}}},
         "config.model.dependence.gamma", ()),
        ("simulate", {"model": {"premiums": [{"kind": "linear", "rate": 0.0, "jump": 1.0},
                                             {"kind": "linear", "rate": 0.0}]}},
         "config.model.premiums[0].jump", ()),
        # theorem_rhs scales windows by e^(r t), which overflows past r t = 709.78: this
        # exited 3 after the renewal solve; r * max(t_grid) = 710 here
        ("asymptotic", {"model": {"r": 710.0}}, "config.model.r", ()),
        ("compare", {"model": {"r": 710.0}}, "config.model.r", ()),
        # a horizon below one renewal step rounds to 0 cells: this wrote an
        # asymptotic_total of 0.0 and a ratio of nan, with exit 0
        *((experiment, {"renewal_step": 1e-3, "grids": {"t_grid": [1e-9, 1.0], "x_grid": [5.0], "d": 5.0}},
           "config.grids.t_grid", ()) for experiment in ("asymptotic", "compare")),
    ],
    ids=["lemma33-n", "n-paths-zero", "box-width", "seed-negative", "seed-too-large",
         "n-boxes-zero", "counterexample-n-max", "renewal-step-zero", "renewal-step-too-large",
         "batch-size-inf", "n-max-inf", "t-max-nan",
         "grids-not-object", "model-not-object", "dependence-not-object", "premium-not-object",
         "verify-x-negative", "verify-d-zero", "verify-s-negative", "verify-s-beyond-t-max",
         "renewal-premium", "compare-premium", "gamma-nan", "nested-gamma-above-one",
         "nested-gamma-one-renewal", "nested-gamma-one-asymptotic", "nested-gamma-one-compare",
         "frank-gamma-verify", "frank-gamma-asymptotic", "frank-gamma-simulate",
         "frank-gamma-floor-simulate", "frank-gamma-floor-verify", "frank-gamma-zero-copula-check",
         "nested-gamma-floor-lemma33", "nested-gamma-floor-counterexample",
         "deterministic-g-copula-check", "deterministic-g-compare", "deterministic-g-renewal-nested",
         "deterministic-g-asymptotic-fgm", "deterministic-g-verify-fgm",
         "deterministic-g-zero-simulate", "deterministic-g-zero-renewal",
         "experiment-not-string", "output-path-not-string",
         "experiment-flag-top-level-list", "seed-flag-model-not-object", "seed-flag-negative",
         "unknown-top-level", "unknown-model", "unknown-grids", "unknown-box", "unknown-marginal",
         "unknown-dependence", "unknown-premium", "r-t-overflow-asymptotic", "r-t-overflow-compare",
         "t-below-renewal-step-asymptotic", "t-below-renewal-step-compare"],
)
def test_config_contract_exit_2(tmp_path, experiment, change, path, args):
    doc = make_doc(experiment)
    if isinstance(change, list):
        doc = change
    elif "seed" in change:
        doc["model"]["seed"] = change["seed"]
    elif isinstance(change.get("model"), dict):
        doc["model"].update(change["model"])
    else:
        doc.update(change)
    res = run_cli(tmp_path, doc, *args)
    assert res.returncode == 2, res.stderr
    assert path in res.stderr
    assert res.stderr.count(path) == 1, res.stderr  # named once, not wrapped twice


@pytest.mark.parametrize(
    "experiment, dependence",
    [
        ("simulate", {"kind": "frank-tri", "gamma": 1.0}),
        ("lemma33", {"kind": "nested-frank-product", "gamma": 0.5}),
        ("copula-check", {"kind": "independent"}),
        ("compare", {"kind": "sarmanov-fgm", "g12": 0.3, "g13": 0.0, "g23": 0.0}),
    ],
    ids=["simulate-frank", "lemma33-nested", "copula-check-independent", "compare-fgm-g12"],
)
def test_deterministic_g_accepted(tmp_path, experiment, dependence):
    # the Monte Carlo experiments only sample theta, and claims independent of
    # theta make the weights 1 whatever G is
    doc = make_doc(experiment, n_paths=1000, n_boxes=1000)
    doc["model"].update(g=DETERMINISTIC_G, dependence=dependence)
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) > 1


@pytest.mark.parametrize(
    "experiment, r, t_grid",
    [("asymptotic", 350.0, [2.0]), ("simulate", 355.0, [0.5, 2.0])],
    ids=["asymptotic-r350-t2", "simulate-r355-t2"],
)
def test_r_t_below_overflow_accepted(tmp_path, experiment, r, t_grid):
    # e^(r t) fits a double up to r t = 709.78; simulate never forms it
    doc = make_doc(experiment, n_paths=1000)
    doc["model"]["r"] = r
    doc["grids"]["t_grid"] = t_grid
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert len(res.stdout.splitlines()) == 1 + 2 * len(t_grid)


def test_simulate_quantile_past_double_range_quiet(tmp_path):
    # G = Pareto(0.01) puts its top quantiles past the double range: they read inf
    # (no arrival before any horizon), with no numpy overflow warning on stderr
    doc = make_doc("simulate")
    doc["model"]["g"] = {"family": "pareto", "alpha": 0.01}
    doc["grids"]["x_grid"] = [0.0, 5.0]
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert res.stdout == (
        "t,x1,x2,d1,d2,r,asymptotic_total,cross_term,diagonal_term,empirical,empirical_se,ratio\n"
        "0.5,0.0,0.0,5.0,5.0,0.05,,,,0.00286,0.00023882296371999072,\n"
        "1.0,0.0,0.0,5.0,5.0,0.05,,,,0.00562,0.0003343176812554191,\n"
        "0.5,5.0,5.0,5.0,5.0,0.05,,,,0.0,0.0,\n"
        "1.0,5.0,5.0,5.0,5.0,0.05,,,,0.0,0.0,\n"
    )


def test_nested_gamma_one_warns(tmp_path):
    doc = make_doc("simulate", n_paths=1000)
    doc["model"]["dependence"] = {"kind": "nested-frank-product", "gamma": 1.0}
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr
    assert "warning: config.model.dependence.gamma" in res.stderr


@pytest.mark.parametrize(
    "marginals, x_grid, failing",
    [
        ({}, [10.0, 100.0], [("2", "1")]),
        # at x = 1e8 a vanishing weight meets a per-unit ratio of 0, which read nan
        ({"f1": {"family": "pareto", "alpha": 2.0}, "f2": {"family": "exponential", "rate": 0.5}},
         [10.0, 1e4, 1e8], [("2", "1"), ("3", "1")]),
        ({"f1": {"family": "weibull", "shape": 0.8, "scale": 2.0}, "f2": {"family": "pareto", "alpha": 2.5}},
         [10.0, 1e4, 1e8], [("2", "1"), ("3", "2")]),
    ],
    ids=["pareto", "pareto-exponential", "weibull-pareto"],
)
def test_verify_conditions_nested_gamma_one(tmp_path, marginals, x_grid, failing):
    # a vanishing g or g_ij fails its Condition: an honest inf, with no numpy warning on stderr
    doc = make_doc("verify-conditions")
    doc["model"].update(marginals)
    doc["model"]["dependence"] = {"kind": "nested-frank-product", "gamma": 1.0}
    doc["grids"]["x_grid"] = x_grid
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert "warning: g is nonpositive on the grid: Condition 2 fails for this horizon" in res.stderr
    rows = list(csv.reader(res.stdout.splitlines()))[1:]
    assert not any(math.isnan(float(row[3])) for row in rows)
    for condition, claim in failing:
        devs = [float(row[3]) for row in rows if row[:2] == [condition, claim]]
        assert len(devs) == len(x_grid) and all(dev == math.inf for dev in devs), (condition, claim)


def test_frank_simulate_at_large_gamma(tmp_path):
    # numpy's logseries rejects p = 1 - e^-gamma once it rounds to 1 (gamma > 37.4)
    doc = make_doc("simulate", n_paths=1000)
    doc["model"]["dependence"] = {"kind": "frank-tri", "gamma": 40.0}
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 5


def test_largest_seed_accepted(tmp_path):
    doc = make_doc("simulate", n_paths=1000)
    doc["model"]["seed"] = 2**64 - 1
    res = run_cli(tmp_path, doc)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize(
    "box", [None, {"x1": 5.0, "x2": 8.0, "d1": 5.0, "d2": 2.0}], ids=["x-grid", "box"]
)
def test_simulate_and_compare_share_empirical(tmp_path, box):
    cols = []
    for experiment in ("simulate", "compare"):
        out = tmp_path / f"{experiment}.csv"
        res = run_cli(tmp_path, make_doc(experiment, output_path=str(out), box=box))
        assert res.returncode == 0, res.stderr
        rows = read_csv(out)
        hdr = rows[0]
        keep = ("t", "x1", "x2", "d1", "d2", "empirical", "empirical_se")
        cols.append([[r[hdr.index(k)] for k in keep] for r in rows[1:]])
    assert cols[0] == cols[1]


def test_runtime_import_loads_no_scipy():
    code = (
        "import sys, renewalrisk.cli, renewalrisk; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("experiment, loaded", [("asymptotic", False), ("simulate", True)])
def test_thread_pool_loads_with_the_first_simulation_only(tmp_path, experiment, loaded):
    # concurrent.futures, and the logging it imports, cost a quadrature-only run
    # memory and time for nothing; simulate is the control that it is seen
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(make_doc(experiment)))
    code = (
        "import sys, renewalrisk.cli; "
        f"code = renewalrisk.cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out.csv')!r}]); "
        "print(code, 'concurrent.futures' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", str(loaded)]


@pytest.mark.parametrize("config, code", [("shipped", 0), ("malformed", 2)])
def test_console_script_target_runs_the_cli(tmp_path, config, code):
    # the installed `renewalrisk` command calls the [project.scripts] target
    # with the arguments in sys.argv, as this does
    root = Path(__file__).resolve().parents[1]
    target = re.search(r'^renewalrisk = "(.+)"$', (root / "pyproject.toml").read_text(), re.M).group(1)
    module, attr = target.split(":")
    cfg = root / "scripts" / "configs" / "compare_frank.json"
    if config == "malformed":
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
    argv = ["renewalrisk", "renewal", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    script = (
        "import importlib, sys; "
        f"sys.argv = {argv!r}; "
        f"sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert res.returncode == code, res.stderr
    assert (tmp_path / "out.csv").exists() == (code == 0)


def test_simulate_with_counterexample_marginals(tmp_path):
    # the paper's counterexample law drives Monte Carlo through its closed-form quantile
    out = tmp_path / "out.csv"
    cfg = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "simulate_counterexample.json"
    res = subprocess.run(
        [sys.executable, "-m", "renewalrisk.cli", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert res.returncode == 0, res.stderr
    rows = read_csv(out)
    hdr = rows[0]
    assert len(rows) == 1 + 3 * 3
    assert all(float(r[hdr.index("empirical")]) > 0 for r in rows[1:])
