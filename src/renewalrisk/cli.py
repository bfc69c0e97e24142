"""Experiment harness: JSON config in, CSV out.

Subcommands
    simulate            MC estimates of the discounted-claims box probability
    asymptotic          quadrature evaluation of the local approximation
    compare             both, with ratios, over a (t, x) grid
    renewal             renewal function and tilted measures on a grid
    copula-check        C-volume sampling, h/g bounds, E h_i(theta) = 1
    counterexample      breakpoint table, witnesses, self-convolution ratios
                        (the one experiment that needs no `model`)
    verify-conditions   conditional/asymptotic ratio scans along x
    lemma33             n-arrival box event vs sum-of-pairs expectation

`simulate`, `asymptotic` and `compare` write one (t, box) table, with the
columns of `simulate.SCAN_COLUMNS`: `simulate` fills its Monte Carlo
half, `asymptotic` its quadrature half, and `compare` both plus the ratio.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
`parse_config` checks every section, field, grid and command-line
override the experiment reads before any computation starts, so every
configuration error exits 2 with a message that names its config path.
Each object it reads has a fixed set of fields, and any other key (a
misspelt `n_path`, say) exits 2 as `config.<path>.<key>: unknown field`.
The output path is opened only once the rows are ready, so one that
cannot be written exits 3.
`copula-check` reports `min_c_volume`, the least C-volume of random boxes.
Each volume is an alternating 8-corner sum of the copula CDF, so a small
box loses its volume to rounding: a valid copula can read slightly below
0, e.g. -2.8e-17 for frank-tri at gamma = 20 (seed 11, 1e5 boxes).  A
value above -1e-12 is such rounding, not an invalid copula.
All numeric CSV fields use shortest round-trip decimal representation.
Monte Carlo runs in blocks of 2^16 paths, each drawing from its own
random stream keyed by the seed and the block's index, so outputs are
byte-identical for identical (config, seed) regardless of --threads and
of `model.batch_size`, which is accepted and validated but inert.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .asymptotics import Box2
from .copulas import (
    CONDITION_CLAIMS,
    DependenceSpec,
    FrankTri,
    Independent,
    NestedFrankProduct,
    SarmanovFGM,
    bounds_over_horizon,
    condition_ratio_scan,
    mean_h_check,
)
from .counterexample import N_MAX_LIMIT, CounterexampleF
from .marginals import Deterministic, Exponential, Marginal, Pareto, Weibull
from .renewal import renewal_function, tilted_triplet
from .simulate import SCAN_COLUMNS, CompoundPoisson, Linear, ModelConfig, lemma33_check, uniformity_scan

__all__ = ["main", "parse_config", "ConfigError"]

EXIT_CONFIG, EXIT_RUNTIME = 2, 3


class ConfigError(ValueError):
    """Configuration rejected; the message carries the offending path."""


def _fields(doc, path: str, allowed) -> dict:
    """``doc`` as an object whose keys all lie in ``allowed``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")
    return doc


@contextmanager
def _at(path: str):
    """Re-raise a ValueError from the block as a ConfigError naming ``path``; a ConfigError passes."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _get(doc: dict, key: str, path: str, required: bool = True, default=None):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    return doc[key]


def _finite(val) -> bool:
    """A JSON number that fits a double: not a bool, NaN, +-Infinity or a huge integer."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= sys.float_info.max


def _num(doc: dict, key: str, path: str, required: bool = True, default=None):
    val = _get(doc, key, path, required, default)
    if val is default and not required:
        return default
    if not _finite(val):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {val!r}")
    return float(val)


def _int(doc: dict, key: str, path: str, default: int, lo: int, hi: int | None = None) -> int:
    """Optional integer field in [lo, hi); a float such as 1e6 is truncated to an int.

    JSON integers are kept exact, so seeds near 2**64 do not round.
    """
    val = _get(doc, key, path, required=False, default=default)
    if not _finite(val):
        raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}")
    val = int(val)
    if val < lo or (hi is not None and val >= hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise ConfigError(f"{path}.{key}: must be {bound}, got {val}")
    return val


#: the fields of the config object and of its sections; any other key is an error
CONFIG_FIELDS = ("model", "experiment", "grids", "box", "n", "n_paths", "n_boxes", "renewal_step",
                 "counterexample_n_max", "output_path")
MODEL_FIELDS = ("f1", "f2", "g", "dependence", "premiums", "seed", "batch_size", "t_max", "r")
GRID_FIELDS = ("t_grid", "x_grid", "s_grid", "d")
BOX_FIELDS = ("x1", "x2", "d1", "d2")
#: the fields each marginal family, dependence kind and premium kind reads
MARGINAL_FIELDS = {"pareto": ("alpha",), "weibull": ("shape", "scale"), "exponential": ("rate",),
                   "deterministic": ("value",), "counterexample": ("n_max",)}
DEPENDENCE_FIELDS = {"independent": (), "frank-tri": ("gamma",), "nested-frank-product": ("gamma",),
                     "sarmanov-fgm": ("g12", "g13", "g23")}
PREMIUM_FIELDS = {"linear": ("rate",), "compound-poisson": ("rate", "jump")}


def _variant(doc, tag: str, path: str, fields: dict, what: str) -> str:
    """The variant named by ``doc[tag]``, once it and every key of ``doc`` are known."""
    name = _get(doc, tag, path)
    if not isinstance(name, str) or name not in fields:
        raise ConfigError(f"{path}.{tag}: unknown {what} {name!r} (expected {'|'.join(fields)})")
    _fields(doc, path, (tag, *fields[name]))
    return name


def parse_marginal(doc, path: str) -> Marginal:
    family = _variant(doc, "family", path, MARGINAL_FIELDS, "family")
    with _at(path):
        if family == "pareto":
            return Pareto(_num(doc, "alpha", path))
        if family == "weibull":
            return Weibull(_num(doc, "shape", path), _num(doc, "scale", path, required=False, default=1.0))
        if family == "exponential":
            return Exponential(_num(doc, "rate", path))
        if family == "deterministic":
            return Deterministic(_num(doc, "value", path))
        return CounterexampleF(_int(doc, "n_max", path, default=N_MAX_LIMIT, lo=1, hi=N_MAX_LIMIT + 1))


def parse_dependence(doc, f1, f2, g, path: str) -> DependenceSpec:
    kind = _variant(doc, "kind", path, DEPENDENCE_FIELDS, "dependence")
    with _at(path):
        if kind == "independent":
            return Independent(f1, f2, g)
        if kind == "sarmanov-fgm":
            return SarmanovFGM(f1, f2, g, _num(doc, "g12", path), _num(doc, "g13", path), _num(doc, "g23", path))
        gamma = _num(doc, "gamma", path)
        if gamma < FRANK_GAMMA_MIN:
            raise ConfigError(f"{path}.gamma: {kind} needs gamma >= {FRANK_GAMMA_MIN:g}, "
                              f"where its generator algebra keeps its accuracy, got {gamma}")
        if kind == "frank-tri":
            return FrankTri(f1, f2, g, gamma)
        if gamma > 1:
            raise ConfigError(f"{path}.gamma: the nested-product structure is a valid "
                              f"copula only for 0 < gamma <= 1, got {gamma}")
        return NestedFrankProduct(f1, f2, g, gamma)


def parse_premium(doc, path: str):
    kind = _variant(doc, "kind", path, PREMIUM_FIELDS, "premium")
    with _at(path):
        if kind == "linear":
            return Linear(_num(doc, "rate", path))
        return CompoundPoisson(_num(doc, "rate", path), parse_marginal(_get(doc, "jump", path), f"{path}.jump"))


#: each experiment and the grids it requires; the four that need t_grid are
#: scored on boxes: one `box`, or squares of side grids.d at grids.x_grid
EXPERIMENTS = {
    "simulate": ("t_grid",), "asymptotic": ("t_grid",), "compare": ("t_grid",),
    "renewal": (), "copula-check": (), "counterexample": (),
    "verify-conditions": ("s_grid", "x_grid"), "lemma33": ("t_grid",),
}


#: the largest frank-tri gamma an experiment accepts.  The quadrature side
#: holds to 1e-6 relative up to gamma = 20 (against mpmath at 50 digits): the
#: conditional window probabilities and g_ij lose about eps e^gamma to
#: cancellation (2e-7 at gamma = 20, 2e-6 at 22), and the tilted g measure
#: turns negative by gamma = 25.  The Monte Carlo-only experiments need just
#: the sampler, which holds while e^-gamma is a normal double.
FRANK_QUADRATURE_GAMMA_MAX = 20.0
FRANK_GAMMA_MAX = {"simulate": 700.0, "lemma33": 700.0, "counterexample": math.inf}
#: the smallest gamma of either Frank variant, in every experiment.  Below 1
#: the generator algebra loses about eps/gamma: at gamma = 1e-12 the frank-tri
#: sampler returns exact zeros for 7e-5 of its W draws and the nested g is off
#: by 2e-5 relative (against mpmath); at 1e-16 44% of the W draws are 0 and
#: some reach 1.11, at 1e-17 all are 0 (`simulate` then never reaches the
#: horizon), and frank-tri's Condition-2 deviation reads 1.0 at 1e-39.  At
#: 1e-6 every one of these holds to 1e-10 or better.
FRANK_GAMMA_MIN = 1e-6
#: the experiments that read the dependence weights or the conditional window
#: probabilities, and so reach theta through G(s)
QUADRATURE = ("renewal", "asymptotic", "compare", "copula-check", "verify-conditions")
#: the experiments that tilt the renewal measure by the weights h_i and g,
#: which must stay positive; nested-frank-product at gamma = 1 has g(0) = 0
TILTING = ("renewal", "asymptotic", "compare")


def _grids(doc: dict, experiment: str, t_max: float) -> dict:
    """The grids the config gives, checked, plus the box width ``d``."""
    grids_doc = _fields(_get(doc, "grids", "config", required=False, default={}), "config.grids", GRID_FIELDS)
    grids = {}
    for name in ("t_grid", "x_grid", "s_grid"):
        vals = _get(grids_doc, name, "config.grids", required=name in EXPERIMENTS[experiment])
        if name in grids_doc:
            if not isinstance(vals, list) or not vals or not all(_finite(v) for v in vals):
                raise ConfigError(f"config.grids.{name}: expected a nonempty list of finite numbers")
            grids[name] = vals
    if any(t <= 0 or t > t_max for t in grids.get("t_grid", ())):
        raise ConfigError(f"config.grids.t_grid: values must lie in (0, t_max={t_max}]")
    if any(s < 0 or s > t_max for s in grids.get("s_grid", ())):
        raise ConfigError(f"config.grids.s_grid: values must lie in [0, t_max={t_max}]")
    if any(x < 0 for x in grids.get("x_grid", ())):
        raise ConfigError("config.grids.x_grid: values must be >= 0")
    grids["d"] = _num(grids_doc, "d", "config.grids", required=False, default=1.0)
    if grids["d"] <= 0:
        raise ConfigError(f"config.grids.d: must be > 0, got {grids['d']}")
    return grids


def _boxes(doc: dict, grids: dict) -> list:
    if doc.get("box") is None:
        if "x_grid" not in grids:
            raise ConfigError("config: need either box or grids.x_grid")
        return [Box2(x, x, grids["d"], grids["d"]) for x in grids["x_grid"]]
    box_doc = _fields(doc["box"], "config.box", BOX_FIELDS)
    levels = [_num(box_doc, k, "config.box") for k in BOX_FIELDS]
    with _at("config.box"):
        return [Box2(*levels)]


def _model(model_doc, seed: int | None) -> ModelConfig:
    """The model section as a ModelConfig; ``seed``, if given, overrides its seed."""
    model_doc = _fields(model_doc, "config.model", MODEL_FIELDS)
    f1 = parse_marginal(_get(model_doc, "f1", "config.model"), "config.model.f1")
    f2 = parse_marginal(_get(model_doc, "f2", "config.model"), "config.model.f2")
    g = parse_marginal(_get(model_doc, "g", "config.model"), "config.model.g")
    if isinstance(g, Deterministic) and g.value == 0:
        raise ConfigError("config.model.g.value: inter-arrival times of 0 put infinitely many "
                          "arrivals at time 0; need value > 0")
    dep = parse_dependence(_get(model_doc, "dependence", "config.model"), f1, f2, g, "config.model.dependence")
    prem_doc = _get(model_doc, "premiums", "config.model", required=False, default=None)
    if prem_doc is None:
        premiums = (Linear(0.0), Linear(0.0))
    else:
        if not isinstance(prem_doc, list) or len(prem_doc) != 2:
            raise ConfigError("config.model.premiums: expected a list of exactly two premium objects")
        premiums = tuple(parse_premium(p, f"config.model.premiums[{i}]") for i, p in enumerate(prem_doc))
        # no experiment scores the net loss yet, so a premium would be ignored silently
        if premiums != (Linear(0.0), Linear(0.0)):
            raise ConfigError("config.model.premiums: no experiment uses premiums yet; "
                              "only linear premiums of rate 0 are accepted")
    seed_doc = model_doc if seed is None else {"seed": seed}
    seed = _int(seed_doc, "seed", "config.model", default=0, lo=0, hi=2**64)
    # inert (the draws follow simulate.BLOCK), but still validated
    batch_size = _int(model_doc, "batch_size", "config.model", default=2_000_000, lo=1)
    t_max = _num(model_doc, "t_max", "config.model")
    r = _num(model_doc, "r", "config.model", required=False, default=0.0)
    with _at("config.model"):
        return ModelConfig(dependence=dep, t_max=t_max, r=r, premiums=premiums, seed=seed, batch_size=batch_size)


def parse_config(doc: dict, experiment: str | None = None, seed: int | None = None) -> dict:
    """Validate the JSON document into a plain dict of typed pieces.

    ``experiment`` and ``seed`` override the document's fields (the
    command line's positional experiment and ``--seed``); they apply
    after the document's shape is checked and pass the same checks.
    ``counterexample`` reads no model, so its ``model`` is optional (and
    checked if present); without one, the model is None and the grids
    are checked without a horizon.
    """
    _fields(doc, "config", CONFIG_FIELDS)
    if experiment is None:
        experiment = _get(doc, "experiment", "config")
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(f"config.experiment: unknown experiment {experiment!r} (expected one of {', '.join(EXPERIMENTS)})")
    model = None
    if "model" in doc or experiment != "counterexample":
        model = _model(_get(doc, "model", "config"), seed)
    elif seed is not None:  # unused, but an override passes the same checks
        _int({"seed": seed}, "seed", "config.model", default=0, lo=0, hi=2**64)

    gamma_max = FRANK_GAMMA_MAX.get(experiment, FRANK_QUADRATURE_GAMMA_MAX)
    dep = model.dependence if model is not None else None
    # a point-mass theta is one constant for every W, so given theta the claims
    # keep their marginals, but the weights read it through the 0/1 step G(s)
    if (experiment in QUADRATURE and isinstance(dep.g_dist, Deterministic)
            and not (isinstance(dep, SarmanovFGM) and dep.g13 == dep.g23 == 0)):
        raise ConfigError(f"config.model.g: {experiment} with a deterministic g needs claims independent "
                          "of theta (independent, or sarmanov-fgm with g13 = g23 = 0)")
    if isinstance(dep, FrankTri) and dep.gamma > gamma_max:
        raise ConfigError(f"config.model.dependence.gamma: {experiment} with frank-tri "
                          f"needs gamma <= {gamma_max:g}, got {dep.gamma}")
    if isinstance(dep, NestedFrankProduct) and dep.gamma == 1:
        if experiment in TILTING:
            raise ConfigError(f"config.model.dependence.gamma: {experiment} with nested-frank-product "
                              f"needs gamma < 1, where the weight g stays positive, got {dep.gamma}")
        print(f"warning: config.model.dependence.gamma = {dep.gamma}: the nested-product structure "
              "needs 0 < gamma < 1 for positive lower bounds of the weights g and g_ij",
              file=sys.stderr)
    t_max = model.t_max if model is not None else math.inf
    grids = _grids(doc, experiment, t_max)
    renewal_step = _num(doc, "renewal_step", "config", required=False, default=t_max / 2000)
    if not 0 < renewal_step <= t_max / 10:
        raise ConfigError(f"config.renewal_step: must lie in (0, t_max/10={t_max / 10}], got {renewal_step}")
    output_path = _get(doc, "output_path", "config", required=False, default="-")
    if not isinstance(output_path, str):
        raise ConfigError(f"config.output_path: expected a string, got {output_path!r}")

    return {
        "model": model,
        "experiment": experiment,
        "grids": grids,
        "boxes": _boxes(doc, grids) if "t_grid" in EXPERIMENTS[experiment] else None,
        "n": _int(doc, "n", "config", default=2, lo=1, hi=4) if experiment == "lemma33" else None,
        "n_paths": _int(doc, "n_paths", "config", default=1_000_000, lo=1),
        "n_boxes": _int(doc, "n_boxes", "config", default=100_000, lo=1),
        "renewal_step": renewal_step,
        "counterexample_n_max": _int(doc, "counterexample_n_max", "config", default=N_MAX_LIMIT,
                                     lo=1, hi=N_MAX_LIMIT + 1),
        "output_path": output_path,
    }


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header, rows):
    out = sys.stdout if path == "-" else open(path, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    finally:
        if out is not sys.stdout:
            out.close()


def _solve_and_tilt(cfg):
    model = cfg["model"]
    grid = renewal_function(model.g_dist, model.t_max, cfg["renewal_step"])
    return grid, tilted_triplet(grid, model.dependence)


def run(cfg: dict, threads: int = 1) -> None:
    model: ModelConfig = cfg["model"]
    experiment = cfg["experiment"]
    out = cfg["output_path"]
    grids = cfg["grids"]

    if experiment == "renewal":
        grid, (t1, t2, tj) = _solve_and_tilt(cfg)
        rows = zip(grid.times, grid.lambda_values, t1.values, t2.values, tj.values)
        _write_csv(out, ["t", "lambda", "tilted_h1", "tilted_h2", "tilted_g"],
                   ([float(a), float(b), float(c), float(d), float(e)] for a, b, c, d, e in rows))
        return

    if experiment == "counterexample":
        dens = CounterexampleF(cfg["counterexample_n_max"])
        tab = dens.table
        rows = []
        for n in range(1, tab.n_max + 1):
            conv, mid = dens.self_convolution_ratios(float(tab.a[n])) if n >= 2 else (None, None)
            rows.append([n, float(tab.a[n]), float(tab.b[n]), float(tab.mid[n]), int(tab.m[n]),
                         dens.almost_decreasing_witness(n), conv, mid])
        _write_csv(out, ["n", "a", "b", "mid", "m", "witness", "self_conv_ratio_at_a", "middle_part_ratio_at_a"], rows)
        return

    if experiment in ("copula-check", "verify-conditions"):
        report = bounds_over_horizon(model.dependence, model.t_max)
        for w in report.warnings:
            print(f"warning: {w}", file=sys.stderr)

    if experiment == "copula-check":
        dep = model.dependence
        rng = np.random.default_rng(model.seed)
        n_boxes = cfg["n_boxes"]
        lo = rng.random((n_boxes, 3))
        hi = lo + rng.random((n_boxes, 3)) * (1.0 - lo)
        min_vol = float(dep.c_volumes(lo, hi).min())
        rows = [
            ["min_c_volume", min_vol],
            ["mean_h1_minus_1", mean_h_check(dep, 1) - 1.0],
            ["mean_h2_minus_1", mean_h_check(dep, 2) - 1.0],
            ["b_lower", report.b_lower], ["b_upper", report.b_upper],
            ["d_lower", report.d_lower], ["d_upper", report.d_upper],
            ["a_lower", report.a_lower], ["a_upper", report.a_upper],
            ["c1", report.c1], ["c2", report.c2], ["c3", report.c3],
        ]
        _write_csv(out, ["metric", "value"], rows)
        return

    if experiment == "verify-conditions":
        rows = []
        for condition, claims in CONDITION_CLAIMS.items():
            for i in claims:
                devs = condition_ratio_scan(model.dependence, i, np.asarray(grids["s_grid"]),
                                            grids["x_grid"], grids["d"], condition=condition)
                for x, dev in zip(grids["x_grid"], devs):
                    rows.append([condition, i, float(x), float(dev)])
        _write_csv(out, ["condition", "claim", "x", "max_deviation"], rows)
        return

    if experiment == "lemma33":
        boxes = cfg["boxes"]
        rows = []
        per_t = lemma33_check(model, cfg["n"], grids["t_grid"], boxes, cfg["n_paths"], threads=threads)
        for t, results in zip(grids["t_grid"], per_t):
            for box, (lhs, rhs, ratio) in zip(boxes, results):
                rows.append([t, box.x1, box.x2, box.d1, box.d2, cfg["n"],
                             lhs.value, lhs.std_error, lhs.hits,
                             rhs.value, rhs.std_error, rhs.hits, ratio])
        _write_csv(out, ["t", "x1", "x2", "d1", "d2", "n", "lhs", "lhs_se", "lhs_hits",
                         "rhs", "rhs_se", "rhs_hits", "ratio"], rows)
        return

    # simulate, asymptotic and compare fill the two halves of one (t, box) table
    triplet = None if experiment == "simulate" else _solve_and_tilt(cfg)[1]
    n_paths = None if experiment == "asymptotic" else cfg["n_paths"]
    _write_csv(out, SCAN_COLUMNS, uniformity_scan(model, grids["t_grid"], cfg["boxes"], triplet, n_paths,
                                                     threads=threads))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="renewalrisk", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=EXPERIMENTS, nargs="?",
                        help="override the experiment named in the config")
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for simulation blocks")
    parser.add_argument("--out", default=None, help="override the config output path ('-' for stdout)")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be >= 1, got {args.threads}")

    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = parse_config(doc, experiment=args.experiment, seed=args.seed)
        if args.out is not None:
            cfg["output_path"] = args.out
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        run(cfg, threads=args.threads)
    except Exception as exc:  # noqa: BLE001 - harness boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return 0


if __name__ == "__main__":
    code = main()
    gc.freeze()  # else interpreter finalization walks numpy's whole object graph
    sys.exit(code)
