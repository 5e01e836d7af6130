"""Tests of the benchmark itself (not part of the library's test suite).

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_benchmark.py

The H^1 table test runs the brute-force oracle and takes about a minute.
"""

import itertools
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import metrics  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ELL = workloads.ELL
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_well_formed():
    spec = metrics.SPEC
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in spec["workloads"])
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    assert e2e["setup_s"] == ("s", "lower", max(b for _, _, b in e2e.values()))
    assert all(0 < b <= 0.25 for _, _, b in e2e.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert 1 <= len(spec["per_layer"]) <= 128


def test_tracer_reports_every_declared_per_layer_metric():
    import tracing
    tracer = tracing.Tracer()
    mark = tracer.mark()
    produced = set(tracer.per_layer(mark, mark, mark, 0.0)) | {"trace.overhead_frac"}
    assert produced == set(metrics.PER_LAYER) == set(metrics.MOVES)


def test_crashing_workers_end_the_run_as_incorrect():
    # registered in this process only, so every worker fails to find it
    class Crash:
        spec = staticmethod(lambda seed: {})
        references = staticmethod(lambda spec: {})

    workloads.WORKLOADS["crash"] = Crash
    try:
        for trace in (False, True):
            info, result = run.run_workload("crash", 1, 1, trace)
            assert not result["correct"]
            assert result["attempted"] == result["failed"] == run.MAX_CRASHES
            assert len(info["crashes"]) == run.MAX_CRASHES
    finally:
        del workloads.WORKLOADS["crash"]


def test_pass_times_are_scaled_by_the_speed_samples_around_them(monkeypatch):
    import speed
    import worker
    samples = iter([2, 2, 4, 4])
    monkeypatch.setattr(speed, "sample", lambda: next(samples) * speed.REF_CHUNK_S)
    monkeypatch.setattr(worker, "SEGMENT_S", 0.0)
    clock = itertools.chain([0.0, 1.0, 10.0, 13.0, 20.0], itertools.repeat(20.5))
    monkeypatch.setattr(worker.time, "perf_counter", lambda: next(clock))

    def boom():
        raise ValueError("no")

    ops = [("a", "k", lambda: 1), ("b", "k", boom), ("c", "j", lambda: 3)]
    wall, scaled, records = worker.run_pass(ops)
    # segments of 1, 3 and 0.5 s, bracketed by samples 2|2, 2|4 and 4|4
    assert wall == 4.5
    assert [r[2] for r in records] == [0.5, 1.0, 0.125]
    assert scaled == 1.625
    assert [r[3] for r in records] == [1, None, 3]
    assert records[1][4] == "ValueError: no"


def test_known_defects_match_only_their_documented_failure():
    biased = "estimate 0.2050 is 23.1 standard errors from 1/4"
    assert workloads.known_defect("sampled.m14", biased)
    assert workloads.known_defect("sampled.m30", "OverflowError: Python int too large")
    assert not workloads.known_defect("sampled.m14", "expected an estimate from >= 50000 samples")
    assert not workloads.known_defect("sampled.m14", "ValueError: bad query")
    assert not workloads.known_defect("sampled.m30", biased)
    assert not workloads.known_defect("sampled.m3", biased)


def test_h1_table_matches_brute_force_oracle():
    from helpers_bruteforce import brute_force_h1
    from wittlift.presets import finite_groups, module_suite
    derived = {}
    for gname, group, images, _ in finite_groups():
        for mname, module in module_suite(group, images):
            derived[(gname, mname)] = brute_force_h1(group, images, module)
    assert derived == workloads.H1_TABLE


def test_tame_reference_matches_library_at_d1():
    from wittlift.cohomology import build_module, cocycle_space, sha_kernel
    from wittlift.presets import residual_tame
    rho = residual_tame()
    group = rho.group
    action = {g: refs.adjoint_action(workloads._ints(rho.image(g)), 5)
              for g in group.generators}
    places = [(p.sigma, p.tau) for p in group.places]
    z, b, h, sha = refs.h1_dims(group.generators, group.relators, action, 5, places)
    module = build_module(rho, 1)
    z1, b1, h1 = cocycle_space(group, module)
    assert (z, b, h) == (len(z1), len(b1), h1)
    assert sha == len(sha_kernel(group, module, group.places))


def test_tube_reference_counts():
    det_minus_one = [(1, (1, 0, 0, 1)), (-1, (0, 1, 1, 0)), (-1, (0, 0, 0, 0))]
    assert refs.tube_fraction(5, 1, 0, det_minus_one) == Fraction(1, 4)
    assert refs.tube_fraction(5, 2, 1, det_minus_one) == Fraction(1, 20)
    assert refs.tube_fraction(5, 2, 2, det_minus_one) == 0
    # <diag(2,1), e12> mod 5 has 20 elements; det - 1 vanishes on the 5 with a = 1
    gens = [((2, 0), (0, 1)), ((1, 1), (0, 1))]
    assert len(refs.subgroup_closure(gens, 5)) == 20
    assert refs.tube_fraction(5, 2, 0, det_minus_one, gens) == Fraction(1, 4)


def test_tube_reference_matches_library_exact_path():
    from wittlift.density import Monomial, TubeQuery, tube_measure
    spec = workloads.Density.spec(7)
    expected = workloads.Density.references(spec)
    for q in spec["exact"][:5] + spec["subgroup"][:2]:
        query = TubeQuery(5, 2, q["m"], q["alpha"],
                          tuple(Monomial(c, tuple(e)) for c, e in q["monomials"]),
                          tuple(tuple(tuple(r) for r in g) for g in q["generators"]))
        assert str(tube_measure(query).fraction) == expected[q["id"]]


def test_irreducibility_reference():
    from wittlift.coeffring import make_field
    for d in range(1, 9):
        assert refs.is_irreducible_mod_p(make_field(5, d).modulus, 5)
    assert not refs.is_irreducible_mod_p((1, 0, 1), 5)  # x^2 + 1 = (x - 2)(x + 2)
    assert not refs.is_irreducible_mod_p((4, 0, 0, 0, 1), 5)  # x^4 - 1
    assert refs.is_irreducible_mod_p((2, 0, 0, 0, 1), 5)  # x^4 + 2


def _small_tower_json():
    from wittlift.lifting import TowerPlan, build_tower, tower_to_json_dict
    from wittlift.presets import residual_tame
    tower, _ = build_tower(TowerPlan(residual_tame(), 3, {2: "q03", 3: "q04"}))
    return tower_to_json_dict(tower)


def _bump(data, level, gen, i, j, delta):
    """Add delta * l^(m-1) to one serialized entry of a level's image."""
    images = data["levels"][level - 1]["deformation"]["images"]
    ell, m, d, coeffs = refs.parse_witt(images[gen][i][j])
    bumped = [coeffs[0] + delta * ell ** (m - 1)] + list(coeffs[1:])
    images[gen][i][j] = f"{ell}^{m}:{d}:[{','.join(map(str, bumped))}]"


def test_tower_reference_accepts_good_and_rejects_tampered_towers():
    from wittlift.coeffring import make_witt_ring

    def modulus_for(ell, d):
        return make_witt_ring(ell, d, 1).lifted_modulus

    data = _small_tower_json()
    assert refs.check_tower(data, modulus_for) == []
    _bump(data, 3, "s", 0, 0, 1)
    assert any("det at s" in f for f in refs.check_tower(data, modulus_for))
    data = _small_tower_json()
    # t stays residually unipotent, so det is kept and s t s^-1 t^-2 breaks
    _bump(data, 3, "t", 0, 0, 1)
    _bump(data, 3, "t", 1, 1, -1)
    failures = refs.check_tower(data, modulus_for)
    assert failures and all("relator" in f for f in failures)
    assert refs.check_tower(_small_tower_json(), lambda ell, d: (1,) + (0,) * (d - 1) + (1,))


def test_finite_checks_reject_wrong_outputs():
    wl = workloads.Finite(workloads.Finite.spec(3), {})
    assert wl.check("h1.C5.faithful", (2, 1, 1)) is None
    assert wl.check("h1.C5.faithful", (2, 0, 2))
    assert wl.check("integral.unbounded", "unbounded") is None
    assert wl.check("integral.unbounded", [[1]])
    # the identity conjugator leaves a scaled (k > 0) group non-integral
    from wittlift.matlin import kelem_from_rational, integral_model
    from wittlift.coeffring import make_witt_ring
    ring = make_witt_ring(5, 1, 30)
    one, zero = kelem_from_rational(ring, 1), kelem_from_rational(ring, 0)
    i = next(i for i, g in enumerate(wl.spec["integral"]) if g["k"] == 2)
    assert wl.check(f"integral.{i}", [[one, zero], [zero, one]])
    assert wl.check(f"integral.{i}", integral_model(wl.integral[i])) is None
    # split diagonal: the library's answer, a moved eigenbasis, a fixed answer
    from wittlift.matlin import Mat, find_split_diagonal
    gens = wl.split[1]
    ring, m = gens[0].ring, wl.spec["split"][1]["m"]
    c, d = find_split_diagonal(gens)
    assert wl.check("split.1", (c, d)) is None
    shear = Mat.from_ints(ring, [[1, ELL ** (m - 1)], [0, 1]])
    assert wl.check("split.1", (c * shear, d))
    teich2 = pow(2, ELL ** (m - 1), ELL ** m)
    fixed = (Mat.identity(ring, 2), Mat.from_ints(ring, [[teich2, 0], [0, 1]]))
    assert wl.check("split.1", fixed)


def test_density_checks_reject_wrong_outputs():
    from wittlift.density import TubeResult
    wl = workloads.Density(*_density_inputs(5))
    q = wl.queries[0][0]
    want = wl.refs[q]
    assert wl.check(q, TubeResult(want, True, 1)) is None
    assert wl.check(q, TubeResult(want + Fraction(1, 1000), True, 1))
    n = wl.SAMPLES
    assert wl.check("sampled.m3", TubeResult(Fraction(n // 4, n), False, 0, n)) is None
    assert wl.check("sampled.m3", TubeResult(Fraction(n // 5, n), False, 0, n))


def _density_inputs(seed):
    spec = workloads.Density.spec(seed)
    return spec, workloads.Density.references(spec)


def test_specs_depend_only_on_the_seed():
    for cls in workloads.WORKLOADS.values():
        assert cls.spec(11) == cls.spec(11)
    assert workloads.Finite.spec(1) != workloads.Finite.spec(2)
    assert workloads.Density.spec(1) != workloads.Density.spec(2)
