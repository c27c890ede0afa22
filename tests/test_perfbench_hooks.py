"""The benchmark's tracer patches library names from outside; each must exist.

`perfbench/tracing.py` and `perfbench/workloads.py` are read here, never
edited. A library change that deletes or renames one of its patch points, or
moves a gate the benchmark copies, would otherwise break only the benchmark
run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from semiframe.exponentials import ExponentialSystem, family_on_grid
from semiframe.families import shared_direction_family
from semiframe.muckenhoupt import ConstantWeight
from semiframe.scenarios import run_scenario
from semiframe.translates import TranslateSystem, pphi, unit_indicator_profile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _module(name):
    return importlib.import_module(f"semiframe.{name}")


def test_traced_functions_exist():
    tracing = _tracing()
    assert set(tracing.TRACED) <= set(tracing.MODULES)
    for name in tracing.MODULES:
        _module(name)
    missing = [f"{mod}.{fn}" for mod, funcs in tracing.TRACED.items()
               for fn in funcs if not callable(getattr(_module(mod), fn, None))]
    assert missing == []
    assert isinstance(_module("scenarios").SCENARIOS, dict)


def test_patched_class_hooks_exist():
    tracing = _tracing()
    assert callable(_module("core").VectorFamily.__post_init__)
    family = shared_direction_family(0.0)
    assert callable(family.generator) and callable(family.sparse)
    dense = family_on_grid(ExponentialSystem(ConstantWeight(1), 1.0, 8))
    assert callable(dense.generator) and dense.sparse is None
    assert callable(_module("translates").FourierProfile.__post_init__)
    assert callable(unit_indicator_profile().fn)
    muckenhoupt = _module("muckenhoupt")
    for cls_name in tracing.WEIGHT_CLASSES:
        assert callable(getattr(getattr(muckenhoupt, cls_name), "average_power"))


def test_report_tolerances_copy_each_checks_declared_tol():
    # the benchmark's hand copy of scenario thresholds, read without import
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    copied, = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets]
               == ["REPORT_TOLERANCES"]]
    assert len(copied) == 28
    declared = {}
    for name in sorted({scenario for scenario, _ in copied}):
        for check in run_scenario(name).checks:
            declared[(name, check.name)] = check.detail.get("tol")
    assert {key: declared.get(key) for key in copied} == copied


def test_benchmark_pphi_sweep_meets_its_tolerance(monkeypatch):
    # the spectral workload's K sweep, as `workloads.run_spectral` checks it:
    # a library change that breaks one of these ops fails here as well
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    m = workloads.FULL.pphi_grid
    assert m == 1024
    for profile, exact in ((unit_indicator_profile(), np.ones_like),
                           (workloads.hat_profile(), workloads._p_hat)):
        for k in layers.PPHI_TAILS:
            p, _ = pphi(TranslateSystem(profile, 1.0), m=m, tail_terms=k)
            err = float(np.abs(p.values - exact(p.nodes())).max())
            assert err <= workloads.pphi_tolerance(k), (profile.name, k)
            assert k < 100 or err <= 1e-14, (profile.name, k)
