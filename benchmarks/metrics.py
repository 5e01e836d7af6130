"""What BENCHMARK.json cannot say about the metrics it declares.

Names, units, directions and bounds are read from BENCHMARK.json.  This
module adds the detail metrics, which every run prints on the line before
the result (the per-kind timings that belong to one workload, such as
``tower_build_s`` and ``h1_s``, and ``ops_failed_frac``, which is 0 on two
workloads), and ``MOVES``: for every per-layer metric, the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
# name -> unit
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# detail metrics: name -> (unit, workload, what it measures); times other
# than the *_wall_s ones are scaled to the reference machine (speed.py)
DETAIL = {
    "tower_build_s": ("s", "tower", "cold build_tower to level 5 plus JSON "
                      "serialization, as `wittlift tower build` pays it"),
    "tower_rebuild_s": ("s", "tower", "the same plan rebuilt in the same process"),
    "h1_s": ("s", "finite", "cocycle_space over the finite-group suite, the "
             "tame adjoint cocycle_space and sha_kernel at d in {1, 2, 4}, and "
             "the lift_solve plug-backs (cold pass)"),
    "split_diagonal_s": ("s", "finite", "the find_split_diagonal batch (cold pass)"),
    "integral_model_s": ("s", "finite", "the integral_model batch with the "
                         "unbounded control (cold pass)"),
    "density_exact_s": ("s", "density", "exact full-group tube measures (cold pass)"),
    "density_sampled_s": ("s", "density", "sampled det - 1 estimates (cold pass)"),
    "density_subgroup_s": ("s", "density", "generated-subgroup tube measures "
                           "(cold pass)"),
    "ops_failed_frac": ("ratio", "all", "failed or raising ops / ops attempted"),
    "setup_wall_s": ("s", "all", "setup_s as the wall clock read it, unscaled"),
    "cold_wall_s": ("s", "all", "cold_s as the wall clock read it, unscaled"),
    "warm_wall_s": ("s", "all", "warm_s as the wall clock read it, unscaled"),
    "slowdown": ("ratio", "all", "cold_wall_s / cold_s: how much slower the "
                 "host ran than the reference machine at its quiet speed"),
}

# per-layer name -> the end-to-end metric and workload it should move
MOVES = {}


def _pair(prefix, moves):
    MOVES[f"{prefix}.calls"] = MOVES[f"{prefix}.s"] = moves


_pair("coeffring.ff_factorize",
      "tower_build_s on tower, not tower_rebuild_s; none on finite and density")
MOVES["coeffring.ff_factorize.cold_excess_frac"] = (
    "share of cold_s - warm_s spent factoring; tower_build_s on tower")
_pair("coeffring.embed", "tower_build_s on tower")
MOVES["coeffring.embed.root_search_ratio"] = (
    "ff_roots calls under embed / embed calls; tower_build_s on tower")
MOVES["coeffring.mul.calls"] = "all cold_s and warm_s"
for _d in (1, 2, 4, 8, 16):
    MOVES[f"coeffring.mul.calls.d{_d}"] = (
        "tower_build_s and tower_rebuild_s on tower" if _d >= 8 else
        "h1_s, split_diagonal_s on finite; density_subgroup_s on density")
MOVES["coeffring.mul.s"] = "all cold_s and warm_s"
_pair("coeffring.inverse", "tower_build_s on tower (a^(q-2) at d=16); h1_s on finite")
for _fn in ("witt_frobenius", "hensel_root"):
    _pair(f"coeffring.{_fn}", "tower_build_s and tower_rebuild_s on tower")
_pair("coeffring.in_subring", "tower_* on tower; split_diagonal_s on finite")
MOVES["coeffring.self_s"] = "all cold_s and warm_s"
_pair("matlin.Mat.mul", "split_diagonal_s on finite, density_subgroup_s, tower_rebuild_s")
_pair("matlin.Mat.inverse", "split_diagonal_s on finite, density_subgroup_s, tower_rebuild_s")
_pair("matlin.find_split_diagonal", "split_diagonal_s on finite")
_pair("matlin.hensel_diagonalize", "split_diagonal_s on finite")
_pair("matlin.integral_model", "integral_model_s on finite")
MOVES["matlin.integral_model.rounds_mean"] = (
    "module_basis calls / integral_model calls; integral_model_s on finite")
MOVES["matlin.self_s"] = "cold_s on finite and density"
for _fn in ("evaluate_word", "validate_deformation", "check_running_hypotheses"):
    _pair(f"galois_model.{_fn}", "tower_build_s and tower_rebuild_s on tower")
MOVES["galois_model.self_s"] = "tower_* on tower"
for _fn in ("relator_system", "cocycle_eval"):
    _pair(f"cohomology.{_fn}", "tower_rebuild_s on tower (Fox system at d=16); h1_s on finite")
for _fn in ("cocycle_space", "sha_kernel", "lift_solve"):
    _pair(f"cohomology.{_fn}", "h1_s on finite")
_pair("cohomology.build_module", "h1_s on finite; tower_build_s on tower through ff_embed")
MOVES["cohomology.self_s"] = "h1_s on finite; tower_* on tower"
_pair("linalg.rref", "h1_s on finite; tower_rebuild_s on tower")
MOVES["linalg.rref.cells"] = (
    "sum of rows x cols of every rref input; h1_s on finite, tower_rebuild_s on tower")
_pair("linalg.solve", "h1_s on finite; tower_rebuild_s on tower")
_pair("linalg.nullspace", "h1_s on finite; tower_rebuild_s on tower")
MOVES["linalg.self_s"] = "h1_s on finite; tower_rebuild_s on tower"
for _level in (2, 3, 4, 5):
    MOVES[f"lifting.tower_step.s.L{_level}"] = "tower_build_s and tower_rebuild_s on tower"
for _fn in ("solve_trace_targets", "twist", "make_certificate"):
    MOVES[f"lifting.{_fn}.s"] = "tower_build_s and tower_rebuild_s on tower"
MOVES["lifting.tower_step.covered_frac"] = (
    "child spans / tower_step span; none (tracing coverage, >= 0.95 on tower)")
MOVES["lifting.self_s"] = "tower_* on tower"
for _path in ("exact", "sampled"):
    MOVES[f"density.tube_measure.calls.{_path}"] = f"density_{_path}_s on density"
MOVES["density.tube_measure.calls.raised"] = "ops_failed_frac on density (the m=30 overflow)"
for _path in ("exact", "sampled"):
    MOVES[f"density.tube_measure.s.{_path}"] = f"density_{_path}_s on density"
MOVES["density.rows_enumerated"] = "density_exact_s, density_subgroup_s and peak_rss_mb on density"
MOVES["density.samples_drawn"] = "density_sampled_s on density"
MOVES["density.subgroup_closure_size"] = "density_subgroup_s and peak_rss_mb on density"
MOVES["density.rows_per_s"] = "density_exact_s and density_subgroup_s"
MOVES["density.samples_per_s"] = "density_sampled_s on density"
MOVES["density.self_s"] = "cold_s on density"
MOVES["trace.overhead_frac"] = "none: traced pass time / untraced pass time - 1"
