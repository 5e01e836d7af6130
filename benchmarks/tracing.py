"""Spans and counts around the calls into each wittlift layer.

``Tracer.install()`` wraps the public functions listed in ``SPANS`` in every
module namespace that binds them (``lifting`` and ``cohomology`` use
``from ... import``), and the element-arithmetic methods listed in ``HOT``.
A span records its name, start, end and parent span; spans stay in memory
until the run ends.  Element multiplies and inverses run hundreds of
thousands of times per pass, so they are counted and timed in aggregate
instead, and their time is charged to the enclosing span as covered child
time.  Nothing under ``src/`` is modified: the wrappers live only in the
benchmark process.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

LAYERS = ("coeffring", "matlin", "galois_model", "cohomology", "linalg",
          "lifting", "density")

SPANS = {
    "coeffring": ("ff_factorize", "ff_roots", "embed", "witt_frobenius",
                  "in_subring", "hensel_root"),
    "matlin": ("Mat.__mul__", "Mat.inverse", "find_split_diagonal",
               "hensel_diagonalize", "integral_model", "module_basis"),
    "galois_model": ("evaluate_word", "validate_deformation",
                     "check_running_hypotheses"),
    "cohomology": ("relator_system", "cocycle_eval", "cocycle_space",
                   "sha_kernel", "lift_solve", "build_module",
                   "relator_defects", "normalize_det", "apply_adjustment"),
    "linalg": ("rref", "solve", "nullspace"),
    "lifting": ("build_tower", "tower_step", "solve_trace_targets", "twist",
                "make_certificate", "tower_to_json_dict"),
    "density": ("tube_measure",),
}

# element arithmetic: (class, method) -> aggregate name; keyed by degree d
HOT = {("FFElem", "__mul__"): "mul", ("WittElem", "__mul__"): "mul",
       ("FFElem", "inverse"): "inverse", ("WittElem", "inverse"): "inverse"}

MUL_DEGREES = (1, 2, 4, 8, 16)


def _span_name(layer, name):
    return f"{layer}.{name.replace('__', '')}"


def _tower_step_attrs(args, kwargs, result):
    return {"level": kwargs.get("level", args[2] if len(args) > 2 else None)}


def _rref_attrs(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return {"cells": len(rows) * len(rows[0]) if rows else 0}


def _tube_attrs(args, kwargs, result):
    query = args[0] if args else kwargs["query"]
    return {"exact": result.exact, "population": result.population,
            "samples": result.sample_count, "subgroup": bool(query.generators)}


ATTRS = {"lifting.tower_step": _tower_step_attrs, "linalg.rref": _rref_attrs,
         "density.tube_measure": _tube_attrs}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, hot time covered)
        self.attrs = {}  # span id -> dict
        self.stack = []  # open frames: [span id, hot time covered]
        self.hot = {}  # (aggregate name, degree) -> [calls, seconds]
        self.hot_outer = 0.0  # time in outermost element-arithmetic calls
        self.hot_depth = 0
        self.next_id = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        attr_fn = ATTRS.get(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, frame[1]))
            if attr_fn is not None:
                self.attrs[sid] = attr_fn(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot(self, agg, params_attr, fn):
        hot, stack = self.hot, self.stack

        def wrapper(elem, *args):
            self.hot_depth += 1
            start = perf_counter()
            try:
                return fn(elem, *args)
            finally:
                dt = perf_counter() - start
                self.hot_depth -= 1
                key = (agg, getattr(elem, params_attr).d)
                rec = hot.get(key)
                if rec is None:
                    hot[key] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt
                if not self.hot_depth:
                    self.hot_outer += dt
                    if stack:
                        stack[-1][1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every listed function in each wittlift module that binds it."""
        modules = {layer: importlib.import_module(f"wittlift.{layer}")
                   for layer in SPANS}
        replaced = {}
        for layer, names in SPANS.items():
            mod = modules[layer]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._span(_span_name(layer, name),
                                                  cls.__dict__[meth]))
                else:
                    fn = getattr(mod, name)
                    replaced[id(fn)] = (fn, self._span(_span_name(layer, name), fn))
        cr = modules["coeffring"]
        for (cls_name, meth), agg in HOT.items():
            cls = getattr(cr, cls_name)
            params_attr = "params" if cls_name == "FFElem" else "ring"
            setattr(cls, meth, self._hot(agg, params_attr, cls.__dict__[meth]))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "wittlift" and not mod_name.startswith("wittlift."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def mark(self):
        """A point in the run: the time and the aggregate counters."""
        return {"t": perf_counter(), "hot": {k: list(v) for k, v in self.hot.items()},
                "hot_outer": self.hot_outer}

    def dump(self, path):
        """Write the recorded spans as JSON lines (id, name, start, end, parent)."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent]) + "\n")

    # -- per-layer numbers ---------------------------------------------------

    def per_layer(self, begin, cold_end, end, gap):
        """Per-layer metrics for the spans between two marks.

        ``cold_end`` splits the window into the cold and the warm pass;
        ``gap`` is the cold pass's op time minus the warm pass's.
        Inclusive times count only the outermost span of a name, so that
        recursion (``embed`` inside ``embed``) is not counted twice.
        """
        t0, t1, t_mid = begin["t"], end["t"], cold_end["t"]
        spans = [s for s in self.spans if s[2] >= t0 and s[3] <= t1]
        by_id = {s[0]: s for s in spans}
        child_time = {}
        for sid, name, start, stop, parent, _ in spans:
            child_time[parent] = child_time.get(parent, 0.0) + (stop - start)

        def ancestors(span):
            parent = by_id.get(span[4])
            while parent is not None:
                yield parent
                parent = by_id.get(parent[4])

        calls, incl, self_by_layer = {}, {}, dict.fromkeys(LAYERS, 0.0)
        for span in spans:
            sid, name, start, stop, parent, hot_cov = span
            dur = stop - start
            calls[name] = calls.get(name, 0) + 1
            if all(a[1] != name for a in ancestors(span)):
                incl[name] = incl.get(name, 0.0) + dur
            layer = name.split(".", 1)[0]
            self_by_layer[layer] += dur - child_time.get(sid, 0.0) - hot_cov
        self_by_layer["coeffring"] += end["hot_outer"] - begin["hot_outer"]

        def hot_delta(agg, d=None):
            n = s = 0
            for key, (c, t) in end["hot"].items():
                if key[0] != agg or (d is not None and key[1] != d):
                    continue
                c0, t0_ = begin["hot"].get(key, (0, 0.0))
                n += c - c0
                s += t - t0_
            return n, s

        out = {}

        def pair(metric, name):
            out[f"{metric}.calls"] = calls.get(name, 0)
            out[f"{metric}.s"] = incl.get(name, 0.0)

        # coeffring
        pair("coeffring.ff_factorize", "coeffring.ff_factorize")
        ff_cold = sum(s[3] - s[2] for s in spans if s[1] == "coeffring.ff_factorize"
                      and s[3] <= t_mid and all(a[1] != s[1] for a in ancestors(s)))
        ff_warm = incl.get("coeffring.ff_factorize", 0.0) - ff_cold
        out["coeffring.ff_factorize.cold_excess_frac"] = (
            (ff_cold - ff_warm) / gap if gap > 0 and ff_cold > 0 else 0.0)
        pair("coeffring.embed", "coeffring.embed")
        embed_roots = sum(1 for s in spans if s[1] == "coeffring.ff_roots"
                          and any(a[1] == "coeffring.embed" for a in ancestors(s)))
        n_embed = calls.get("coeffring.embed", 0)
        out["coeffring.embed.root_search_ratio"] = embed_roots / n_embed if n_embed else 0.0
        n, s = hot_delta("mul")
        out["coeffring.mul.calls"] = n
        for d in MUL_DEGREES:
            out[f"coeffring.mul.calls.d{d}"] = hot_delta("mul", d)[0]
        out["coeffring.mul.s"] = s
        n, s = hot_delta("inverse")
        out["coeffring.inverse.calls"] = n
        out["coeffring.inverse.s"] = s
        for fn in ("witt_frobenius", "in_subring", "hensel_root"):
            pair(f"coeffring.{fn}", f"coeffring.{fn}")
        # matlin
        for fn in ("Mat.mul", "Mat.inverse", "find_split_diagonal",
                   "hensel_diagonalize", "integral_model"):
            pair(f"matlin.{fn}", f"matlin.{fn}")
        n_im = calls.get("matlin.integral_model", 0)
        out["matlin.integral_model.rounds_mean"] = (
            calls.get("matlin.module_basis", 0) / n_im if n_im else 0.0)
        # galois_model
        for fn in ("evaluate_word", "validate_deformation", "check_running_hypotheses"):
            pair(f"galois_model.{fn}", f"galois_model.{fn}")
        # cohomology
        for fn in ("relator_system", "cocycle_eval", "cocycle_space", "sha_kernel",
                   "lift_solve", "build_module"):
            pair(f"cohomology.{fn}", f"cohomology.{fn}")
        # linalg
        pair("linalg.rref", "linalg.rref")
        out["linalg.rref.cells"] = sum(self.attrs[s[0]]["cells"] for s in spans
                                       if s[1] == "linalg.rref" and s[0] in self.attrs)
        pair("linalg.solve", "linalg.solve")
        pair("linalg.nullspace", "linalg.nullspace")
        # lifting
        step_spans = [s for s in spans if s[1] == "lifting.tower_step"]
        for level in (2, 3, 4, 5):
            out[f"lifting.tower_step.s.L{level}"] = sum(
                s[3] - s[2] for s in step_spans
                if self.attrs.get(s[0], {}).get("level") == level)
        for fn in ("solve_trace_targets", "twist", "make_certificate"):
            out[f"lifting.{fn}.s"] = incl.get(f"lifting.{fn}", 0.0)
        step_time = sum(s[3] - s[2] for s in step_spans)
        covered = sum(child_time.get(s[0], 0.0) + s[5] for s in step_spans)
        out["lifting.tower_step.covered_frac"] = covered / step_time if step_time else 0.0
        # density
        tubes = [(s, self.attrs.get(s[0])) for s in spans if s[1] == "density.tube_measure"]
        exact = [(s, a) for s, a in tubes if a is not None and a["exact"]]
        sampled = [(s, a) for s, a in tubes if a is not None and not a["exact"]]
        out["density.tube_measure.calls.exact"] = len(exact)
        out["density.tube_measure.calls.sampled"] = len(sampled)
        out["density.tube_measure.calls.raised"] = sum(1 for _, a in tubes if a is None)
        s_exact = sum(s[3] - s[2] for s, _ in exact)
        s_sampled = sum(s[3] - s[2] for s, _ in sampled)
        out["density.tube_measure.s.exact"] = s_exact
        out["density.tube_measure.s.sampled"] = s_sampled
        rows = sum(a["population"] for _, a in exact)
        samples = sum(a["samples"] for _, a in sampled)
        out["density.rows_enumerated"] = rows
        out["density.samples_drawn"] = samples
        out["density.subgroup_closure_size"] = sum(a["population"] for _, a in exact
                                                   if a["subgroup"])
        out["density.rows_per_s"] = rows / s_exact if s_exact else 0.0
        out["density.samples_per_s"] = samples / s_sampled if s_sampled else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_by_layer[layer]
        return out
