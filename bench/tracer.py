"""Spans around the public functions of p5house's layers, from outside.

``Tracer.install`` replaces each listed function, in every p5house module
that holds a reference to it, by a wrapper that records a span (name, start,
end, parent) and a call count.  Callers inside the package look these names
up as module globals, so calls between layers are traced too and the
library's own source stays as it is.  Spans live in flat arrays in memory
and are written out once, by ``write``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from functools import wraps
from inspect import isgeneratorfunction
from pathlib import Path

# Layer (module) -> wrapped public functions.
LAYERS: dict[str, tuple[str, ...]] = {
    "oracle": ("find_induced", "is_class_member", "contains_induced_using", "find_special_h6"),
    "modular": ("find_proper_homogeneous_set", "quotient_factor", "substitute"),
    "skewpart": ("skew_from_special_h6", "maximize_skew", "decompose_skew",
                 "classify_usable", "lemma_violations"),
    "divide": ("build_divide", "factor", "unify"),
    "graph": ("split_certificate",),
    "decomposer": ("decompose", "verify_tree", "recompose", "tree_stats"),
    "treedoc": ("tree_to_document", "document_to_tree"),
    "graph6": ("emit_graph6", "parse_graph6"),
    "census": ("run_sweep", "labeled_graphs"),
}

# Searches whose useful outcome is a non-None result.
HIT_RATIOS = ("oracle.find_special_h6", "modular.find_proper_homogeneous_set")

SPAN_FORMAT = ("four arrays, in this order and in native byte order: name index int32, "
               "start ns int64, end ns int64, parent span index int32 (-1 for none)")


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self.calls = dict.fromkeys(self.names, 0)
        self.hits = dict.fromkeys(HIT_RATIOS, 0)
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, idx: int) -> int:
        span = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(span)
        self.span_start.append(time.perf_counter_ns())
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        idx = self.names.index(name)
        calls, hits = self.calls, self.hits
        if isgeneratorfunction(fn):
            # One span per resumption, so only time spent inside counts.
            @wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    span = self._open(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item
            return gen_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            span = self._open(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name in hits and out is not None:
                hits[name] += 1
            return out
        return wrapper

    def install(self, package) -> None:
        """Wrap every listed function wherever a p5house module holds it."""
        homes = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for layer, fns in LAYERS.items():
            home = homes[layer]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_seconds(self) -> dict[str, float]:
        """Per function: total span time minus the time of its child spans."""
        child = [0] * len(self.span_name)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        out = dict.fromkeys(self.names, 0)
        for i, idx in enumerate(self.span_name):
            out[self.names[idx]] += dur[i] - child[i]
        return {k: v / 1e9 for k, v in out.items()}

    def write(self, stem: Path, header: dict) -> None:
        """Write ``stem``.json (header, names, format) and ``stem``.spans."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as f:
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(f)
        meta = dict(header, names=self.names, spans=len(self.span_name), format=SPAN_FORMAT)
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")
