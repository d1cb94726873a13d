"""The benchmark's traced mode wraps p5house's public functions by name;
these tests keep every wrapped name resolvable, so that a renamed or
deleted function fails here and not only in ``bench/run.py --trace 1``."""

import importlib
import sys
from pathlib import Path

import p5house

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    """Import a module of bench/ the way tools/outputs_digest.py does, with
    bench/ on sys.path, but read-only: no bytecode is written there, and
    sys.path is restored afterwards."""
    path, dont_write = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write


def package_globals():
    """Every global of every loaded p5house module, by module and name."""
    return {
        key: dict(vars(mod)) for key, mod in sys.modules.items()
        if key == "p5house" or key.startswith("p5house.")
    }


def test_every_traced_name_resolves_and_comes_back():
    tracer = bench_module("tracer")
    homes = {layer: importlib.import_module(f"p5house.{layer}") for layer in tracer.LAYERS}
    missing = [f"{layer}.{fn}" for layer, fns in tracer.LAYERS.items() for fn in fns
               if not hasattr(homes[layer], fn)]
    assert missing == []
    originals = {(layer, fn): getattr(homes[layer], fn)
                 for layer, fns in tracer.LAYERS.items() for fn in fns}
    before = package_globals()
    t = tracer.Tracer()
    t.install(p5house)
    try:
        wrapped = {key: getattr(homes[key[0]], key[1]) for key in originals}
    finally:
        t.uninstall()
    assert [key for key, fn in wrapped.items() if fn is originals[key]] == []
    after = package_globals()
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert after[key].keys() == names.keys(), key
        assert [name for name, value in names.items() if after[key][name] is not value] == [], key
