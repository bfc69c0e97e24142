import importlib
import json
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import renewalrisk

MODULES = ["renewalrisk"] + [f"renewalrisk.{m.name}" for m in pkgutil.iter_modules(renewalrisk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_and_all_names_exist(name):
    # a deleted name left in __all__ breaks `import *` for every user of the module
    module = importlib.import_module(name)
    assert module.__all__, name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_benchmark_traced_names_exist():
    # perfbench/tracer.py wraps these names from outside and reads quantile's
    # work count from its argument `p`; a renamed one shows only as trace.absent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = textwrap.dedent(f"""
        import inspect, json, sys
        sys.path.insert(0, {str(perfbench)!r})
        import numpy as np
        import renewalrisk.cli
        import tracer
        from renewalrisk.copulas import FrankTri, Independent, NestedFrankProduct, SarmanovFGM
        from renewalrisk.marginals import Exponential, Marginal, Pareto
        rec = tracer.Recorder()
        absent = tracer.install(rec)
        wrapped = [c for c in tracer._subclasses(Marginal) if hasattr(vars(c).get("quantile"), "__wrapped__")]
        params = {{c.__name__: list(inspect.signature(vars(c)["quantile"].__wrapped__).parameters) for c in wrapped}}
        Pareto(1.0).quantile(np.full(3, 0.5))
        count = tracer.summarize(rec.dump())["marginals.quantile"]["count"]
        f, g = Pareto(1.0), Exponential(1.0)
        for spec in (Independent(f, f, g), SarmanovFGM(f, f, g, 0.3, 0.2, 0.1), FrankTri(f, f, g, 1.0),
                     NestedFrankProduct(f, f, g, 0.5)):
            spec.sample_theta(np.random.default_rng(0), 5)
        samples = tracer.summarize(rec.dump())["copulas.sample"]["count"]
        print(json.dumps({{"absent": absent, "params": params, "count": count, "samples": samples}}))
    """)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["absent"] == []
    assert {"Deterministic", "CounterexampleF"} < set(out["params"])
    assert all(params[1:2] == ["p"] for params in out["params"].values()), out["params"]
    assert out["count"] == 3
    # sample_theta reaches a traced sample_uniform in each of the four families: 4 x 5 draws
    assert out["samples"] == 20
