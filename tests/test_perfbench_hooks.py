"""The benchmark's tracer patches library names from outside; each must exist.

`perfbench/tracing.py` is read here, never edited. A library change that
deletes or renames one of its patch points would otherwise break only the
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from semiframe.families import shared_direction_family
from semiframe.translates import unit_indicator_profile

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
    assert callable(_module("translates").FourierProfile.__post_init__)
    assert callable(unit_indicator_profile().fn)
    muckenhoupt = _module("muckenhoupt")
    for cls_name in tracing.WEIGHT_CLASSES:
        assert callable(getattr(getattr(muckenhoupt, cls_name), "average_power"))
