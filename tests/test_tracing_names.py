"""The benchmark tracer wraps wittlift functions by name; every name it
lists must resolve, so a rename or deletion fails here and not only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("wittlift_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_names_resolve():
    tracing = _tracing()
    missing = []
    for layer, names in tracing.SPANS.items():
        mod = importlib.import_module(f"wittlift.{layer}")
        for name in names:
            cls_name, _, meth = name.rpartition(".")
            owner = vars(getattr(mod, cls_name, object)) if cls_name else vars(mod)
            if not callable(owner.get(meth)):
                missing.append(f"{layer}.{name}")
    cr = importlib.import_module("wittlift.coeffring")
    for cls_name, meth in tracing.HOT:
        if not callable(vars(getattr(cr, cls_name, object)).get(meth)):
            missing.append(f"coeffring.{cls_name}.{meth}")
    assert missing == []
