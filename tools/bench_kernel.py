"""Per-layer timings of the coefficient kernel under Mat and of the H^1 layer: writes BENCH_kernel.json.

Times, over W(F_{5^d})/5^m (unless said otherwise) with m the tower level of degree d
(d = 2^(m-1), and m = 1 at d = 1):

* one Mat product and one Mat inverse for n in {2, 3} and
  d in {1, 2, 16, 128, 512, 2048} (at d = 2048, m = 12, a slot of a 2 x 2
  product's Kronecker integer spans two 64-bit words);
* one element product (WittElem * WittElem) at each of those d;
* witt_frobenius, in_subring(x, d/2) and embed from degree d/2 to d for
  d in {8, 32, 128, 512}, with x the embedding of a random element of degree
  d/2 (so in_subring answers True; the degree-d modulus X^d + 2 is the
  degree-d/2 one composed with x^2, so embed is the scatter X -> X^2); the
  same three over W(F_{7^d})/7^m for d in {4, 8, 16}, whose moduli are not
  binomials, so that Frobenius and embed take the Hensel substitution (each
  row's "ell" says which; its caches are filled before the timed calls);
* integral_model over the 45 groups of the finite benchmark workload for
  SEED (2 x 2 over W(F_5)/5^30, 1 to 3 generators, denominators 5^k with
  k <= 2), one call for the whole batch;
* find_split_diagonal over the 10 split trials of the finite benchmark
  workload for SEED (2 x 2 over W(F_5)/5^m, m in {2, 3}), one call for the
  whole batch;
* the H^1 layer: cocycle_space over the finite suite (every finite group
  with every module of its suite, one call for the batch), and sha_kernel
  over all places of the tame module at d in {1, 2, 4}.  Each call builds
  its modules from a fresh residual deformation (build_module memoises
  them on it), so their memo tables start empty;
* a tower step's two solves at d in {16, 128, 512, 2048}: lift_solve of the
  tame adjoint module over F_{5^d} on solvable defects (those of a random
  cocycle), and solve_trace_targets of deformation_tame(m) embedded into
  W(F_{5^d})/5^m with a random top digit of the trace at q03 as the target.
  Each call builds the module too, from a fresh residual deformation, as
  the first step of a tower does;
* a tower step's products at d in {16, 512, 2048}: apply_adjustment of a
  random adjustment to the images of deformation_tame(m) embedded into
  W(F_{5^d})/5^m, and at d = 2048 the Mat.inverse of one adjusted image,
  whose determinant is epsilon, a constant (the mat_inverse rows above
  invert random units);
* tube_measure of det - 1 and (det - 1)^2 over the full GL_n(Z/l^m) at
  (l, n, m, alpha) in TUBE_CASES, each counted exactly at level alpha + 1
  (at n = 1, det - 1 is x - 1).

Every timed call gets random operands drawn from SEED, with a unit
determinant, so the numbers of two checkouts compare the same work.  Each
case runs its call repeatedly for about BUDGET_S seconds of call time (at
least MIN_CALLS times) and reports the median and minimum microseconds per
call.  A speed sample (benchmarks/speed.py) is taken before the first call,
after the last, and between calls whenever SAMPLE_EVERY_S has passed since
the previous one; each call's time is scaled by REF_CHUNK_S over the mean of
the two samples around it, as the benchmark scales its wall times, so that a
loaded host does not read as slow code, and the median of the scaled times
is reported too.  Standard library only; the library is imported from the
src/ directory next to this script.

    python tools/bench_kernel.py                  # writes BENCH_kernel.json
    python tools/bench_kernel.py --out other.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import speed  # noqa: E402
import wittlift.coeffring as cr  # noqa: E402
from wittlift.cohomology import (  # noqa: E402
    apply_adjustment, build_module, cocycle_eval, cocycle_space, lift_solve, sha_kernel)
from wittlift.density import Monomial, TubeQuery, tube_measure  # noqa: E402
from wittlift.galois_model import evaluate_word  # noqa: E402
from wittlift.lifting import solve_trace_targets  # noqa: E402
from wittlift.matlin import Mat, find_split_diagonal, integral_model, kelem_from_rational  # noqa: E402
from wittlift.presets import (  # noqa: E402
    deformation_tame, finite_groups, module_suite, residual_tame)
from workloads import Finite  # noqa: E402

ELL = 5
DEGREES = (1, 2, 16, 128, 512, 2048)
# (l, d): binomial moduli at l = 5; at l = 7 = 3 mod 4, 4 | d, none exist
FROBENIUS_CASES = ((5, 8), (5, 32), (5, 128), (5, 512), (7, 4), (7, 8), (7, 16))
SHA_DEGREES = (1, 2, 4)
SOLVE_DEGREES = (16, 128, 512, 2048)
ADJUST_DEGREES = (16, 512, 2048)
SIZES = (2, 3)
TUBE_CASES = ((5, 2, 2, 1), (7, 2, 2, 1), (5, 1, 8, 7))
BUDGET_S = 0.3
MIN_CALLS = 5
SAMPLE_EVERY_S = 0.05
SEED = 1


def level(d):
    """The tower level whose coefficient degree is d."""
    return d.bit_length()


def random_elem(ring, rng):
    return cr.element(ring, tuple(rng.randrange(ring.q) for _ in range(ring.d)))


def random_invertible(ring, n, rng):
    while True:
        g = Mat.from_rows(ring, [[random_elem(ring, rng) for _ in range(n)]
                                 for _ in range(n)])
        if g.det().is_unit():
            return g


def integral_groups():
    """The finite workload's integral_model groups for SEED, as KElem rows."""
    ring = cr.make_witt_ring(ELL, 1, Finite.INTEGRAL_PRECISION)
    return [[[[kelem_from_rational(ring, v, ELL ** grp["k"]) for v in row] for row in g]
             for g in grp["gens"]] for grp in Finite.spec(SEED)["integral"]]


def split_trials():
    """The finite workload's find_split_diagonal generators for SEED."""
    return [[Mat.from_ints(cr.make_witt_ring(ELL, 1, trial["m"]), [list(r) for r in g])
             for g in trial["gens"]] for trial in Finite.spec(SEED)["split"]]


def tube_polys(n):
    """det - 1 and (det - 1)^2 as monomial tuples over n x n matrices, n <= 2."""
    if n == 1:
        return {"det-1": (Monomial(1, (1,)), Monomial(-1, (0,))),
                "(det-1)^2": (Monomial(1, (2,)), Monomial(-2, (1,)), Monomial(1, (0,)))}
    det = ((1, (1, 0, 0, 1)), (-1, (0, 1, 1, 0)), (-1, (0, 0, 0, 0)))
    square = {}
    for c1, e1 in det:
        for c2, e2 in det:
            e = tuple(x + y for x, y in zip(e1, e2))
            square[e] = square.get(e, 0) + c1 * c2
    return {"det-1": tuple(Monomial(c, e) for c, e in det),
            "(det-1)^2": tuple(Monomial(c, e) for e, c in square.items() if c)}


def time_calls(fn):
    """Microseconds per call of fn(), one sample per call, each also scaled
    by the mean of the speed samples taken just before and just after it."""
    calls, chunks = [], [speed.sample()]
    spent = since_sample = 0.0
    while len(calls) < MIN_CALLS or spent < BUDGET_S:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        calls.append((dt * 1e6, len(chunks)))
        spent, since_sample = spent + dt, since_sample + dt
        if since_sample >= SAMPLE_EVERY_S:
            chunks.append(speed.sample())
            since_sample = 0.0
    chunks.append(speed.sample())
    us = [t for t, _ in calls]
    scaled = [t * speed.REF_CHUNK_S * 2 / (chunks[k - 1] + chunks[k]) for t, k in calls]
    return {"us_median": statistics.median(us), "us_median_scaled": statistics.median(scaled),
            "us_min": min(us), "chunk_ms": statistics.median(chunks) * 1e3,
            "speed_samples": len(chunks), "calls": len(calls)}


def git(*args, check=True):
    return subprocess.run(["git", *args], cwd=ROOT, text=True,
                          capture_output=True, check=check)


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    try:
        commit = git("rev-parse", "HEAD").stdout.strip()
        # the code under test: the library and this script
        dirty = git("diff", "--quiet", "HEAD", "--", "src", "tools",
                    check=False).returncode != 0
    except (OSError, subprocess.CalledProcessError):
        commit = dirty = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wittlift").glob("*.py")):
        src.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "git_commit": commit, "git_dirty": dirty, "src_sha256": src.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_kernel.json"))
    args = ap.parse_args(argv)
    rng = random.Random(SEED)
    speed.warm_up()
    cases = []
    for d in DEGREES:
        ring = cr.make_witt_ring(ELL, d, level(d))
        x, y = random_elem(ring, rng), random_elem(ring, rng)
        cases.append({"op": "elem_mul", "d": d, "m": ring.m,
                      **time_calls(lambda: x * y)})
        for n in SIZES:
            a = random_invertible(ring, n, rng)
            b = random_invertible(ring, n, rng)
            cases.append({"op": "mat_mul", "n": n, "d": d, "m": ring.m,
                          **time_calls(lambda: a * b)})
            cases.append({"op": "mat_inverse", "n": n, "d": d, "m": ring.m,
                          **time_calls(a.inverse)})
        print(json.dumps(cases[-5:]), file=sys.stderr)
    for ell, d in FROBENIUS_CASES:
        ring = cr.make_witt_ring(ell, d, level(d))
        half = random_elem(cr.make_witt_ring(ell, d // 2, ring.m), rng)
        x = cr.embed(half, d)
        cr.witt_frobenius(x)
        cases.append({"op": "witt_frobenius", "ell": ell, "d": d, "m": ring.m,
                      **time_calls(lambda: cr.witt_frobenius(x))})
        cases.append({"op": "in_subring", "ell": ell, "d": d, "d0": d // 2, "m": ring.m,
                      **time_calls(lambda: cr.in_subring(x, d // 2))})
        cases.append({"op": "embed", "ell": ell, "d": d, "d_small": d // 2, "m": ring.m,
                      **time_calls(lambda: cr.embed(half, d))})
        print(json.dumps(cases[-3:]), file=sys.stderr)
    groups = integral_groups()
    cases.append({"op": "integral_model", "n": 2, "m": Finite.INTEGRAL_PRECISION,
                  "groups": len(groups),
                  **time_calls(lambda: [integral_model(g) for g in groups])})
    print(json.dumps(cases[-1:]), file=sys.stderr)
    trials = split_trials()
    cases.append({"op": "find_split_diagonal", "n": 2, "trials": len(trials),
                  **time_calls(lambda: [find_split_diagonal(g) for g in trials])})
    print(json.dumps(cases[-1:]), file=sys.stderr)
    groups = finite_groups(ELL)
    cases.append({"op": "cocycle_space", "suite": "finite",
                  "pairs": sum(len(module_suite(g, im, ELL)) for _, g, im, _ in groups),
                  **time_calls(lambda: [cocycle_space(g, mo) for _, g, im, _ in groups
                                        for _, mo in module_suite(g, im, ELL)])})
    rhobar = residual_tame(ELL)
    places = rhobar.group.places
    for d in SHA_DEGREES:
        cases.append({"op": "sha_kernel", "module": "tame adjoint", "d": d,
                      "places": len(places),
                      **time_calls(lambda: sha_kernel(
                          rhobar.group, build_module(residual_tame(ELL), d), places))})
    print(json.dumps(cases[-1 - len(SHA_DEGREES):]), file=sys.stderr)
    group = rhobar.group
    for d in SOLVE_DEGREES:
        m, module = level(d), build_module(rhobar, d)
        # a cocycle's values and the defects they give are canonical values
        values = {g: tuple(random_elem(module.field, rng).coeffs for _ in range(3))
                  for g in group.generators}
        defects = [tuple(tuple(-c % ELL for c in x) for x in cocycle_eval(module, values, rel))
                   for rel in group.relators]
        cases.append({"op": "lift_solve", "module": "tame adjoint", "d": d,
                      **time_calls(lambda: lift_solve(
                          group, build_module(residual_tame(ELL), d), defects))})
        rho = deformation_tame(m, ELL).embed(d)
        place = group.place("q03")
        u = cr.lift_trivial(random_elem(module.field, rng), m)
        target = evaluate_word(rho, place.sigma).trace() + cr.witt_scale(u, ELL ** (m - 1))
        cases.append({"op": "solve_trace_targets", "module": "tame adjoint", "d": d, "m": m,
                      **time_calls(lambda: solve_trace_targets(
                          rho, build_module(residual_tame(ELL), d), [(place, target)]))})
        print(json.dumps(cases[-2:]), file=sys.stderr)
    for d in ADJUST_DEGREES:
        m, field = level(d), cr.make_field(ELL, d)
        lifts = deformation_tame(m, ELL).embed(d).images
        adjustment = {g: tuple(random_elem(field, rng) for _ in range(3)) for g in lifts}
        cases.append({"op": "apply_adjustment", "d": d, "m": m,
                      **time_calls(lambda: apply_adjustment(lifts, adjustment, m - 1))})
        print(json.dumps(cases[-1:]), file=sys.stderr)
    g = apply_adjustment(lifts, adjustment, m - 1)["s"]
    cases.append({"op": "mat_inverse", "n": 2, "d": d, "m": m, "det": "epsilon",
                  **time_calls(g.inverse)})
    print(json.dumps(cases[-1:]), file=sys.stderr)
    for ell, n, m, alpha in TUBE_CASES:
        for name, monos in tube_polys(n).items():
            query = TubeQuery(ell, n, m, alpha, monos)
            cases.append({"op": "tube_measure", "f": name, "ell": ell, "n": n, "m": m,
                          "alpha": alpha, "fraction": str(tube_measure(query).fraction),
                          **time_calls(lambda: tube_measure(query))})
        print(json.dumps(cases[-2:]), file=sys.stderr)
    report = {"benchmark": "kernel", "ell": ELL, "seed": SEED,
              "budget_s": BUDGET_S, "sample_every_s": SAMPLE_EVERY_S,
              "ref_chunk_ms": speed.REF_CHUNK_S * 1e3,
              "machine": machine(), "cases": cases}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
