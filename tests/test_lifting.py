"""Tests for the tower engine: twisting, trace targeting, place selection,
and certificates."""

import hashlib
import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest

import wittlift.coeffring as cr
from wittlift.certcheck import check_certificate, frobenius_power
from wittlift.cohomology import (
    Cocycle,
    build_module,
    coboundary_of,
    cocycle_space,
    dual_module,
    restrict_and_classify,
)
from wittlift.errors import (
    Inconsistent,
    NotACocycle,
    OracleNotFound,
    ParamMismatch,
    SchemaError,
    Unreachable,
)
from wittlift.galois_model import Deformation, evaluate_word
from wittlift.matlin import Mat, check_tame_relation, hensel_diagonalize
from wittlift.lifting import (
    OracleConstraints,
    TowerPlan,
    _localization_ranks,
    build_tower,
    field_of_definition,
    is_nice,
    is_rho_m_nice,
    logged_traces,
    make_certificate,
    oracle_find_places,
    select_auxiliary,
    solve_trace_targets,
    tower_step,
    tower_to_json_dict,
    trace_delta_digit,
    twist,
    verify_tower_dict,
)
from wittlift.presets import (
    deformation_tame,
    residual_free,
    residual_tame,
)


# ---------------------------------------------------------------------------
# twisting


def test_zero_twist_is_identity():
    rho = deformation_tame(2)
    module = build_module(rho.reduce(1), 1)
    zero = ((0,),) * 3
    f = Cocycle(module, {g: zero for g in rho.group.generators})
    assert twist(rho, f).images == rho.images


def test_twist_result_starts_with_an_empty_memo():
    rho = deformation_tame(2)
    for place in rho.group.places:
        evaluate_word(rho, place.sigma)
    module = build_module(rho.reduce(1), 1)
    zero = ((0,),) * 3
    out = twist(rho, Cocycle(module, {g: zero for g in rho.group.generators}))
    # twist checks the relators on its result, and nothing else
    assert set(out._words) == set(rho.group.relators)
    assert all(g.is_identity() for g in out._words.values())


def test_level_5_build_inverts_each_matrix_once(monkeypatch):
    inverted = []  # holding the matrices keeps their ids unique
    inverse = Mat.inverse
    monkeypatch.setattr(Mat, "inverse", lambda g: inverted.append(g) or inverse(g))
    build_tower(TAME_PLAN_5)
    # twist and then validate_deformation check the relators on the same
    # generator images: they share one inverse of each
    assert inverted
    assert len({id(g) for g in inverted}) == len(inverted)


def test_coboundary_twist_preserves_traces():
    rho = deformation_tame(3)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    rng = random.Random(21)
    words = [p.sigma for p in group.places] + [
        tuple((rng.choice(group.generators), rng.choice([1, -1, 2]))
              for _ in range(3)) for _ in range(20)]
    for _ in range(10):
        m = tuple((rng.randrange(5),) for _ in range(3))
        cob = coboundary_of(group, module, m)
        rho2 = twist(rho, cob)
        for w in words:
            assert evaluate_word(rho2, w).trace() == \
                evaluate_word(rho, w).trace()


def test_trace_delta_digit_identity():
    rho = deformation_tame(3)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    z1, _, _ = cocycle_space(group, module)
    rng = random.Random(5)
    for z in z1:
        f = Cocycle.from_flat(group, module, z)
        rho2 = twist(rho, f)
        for _ in range(5):
            w = tuple((rng.choice(group.generators), rng.choice([1, -1, 2]))
                      for _ in range(3))
            old = evaluate_word(rho, w).trace()
            new = evaluate_word(rho2, w).trace()
            diff = new - old
            assert diff.valuation() >= 2
            assert cr.witt_digit(diff, 2).coeffs == trace_delta_digit(rho, f, w)


def test_twist_rejects_non_cocycle():
    rho = deformation_tame(2)
    module = build_module(rho.reduce(1), 1)
    one = (1,)
    zero = (0,)
    junk = Cocycle(module, {g: (one, zero, zero)
                            for g in rho.group.generators})
    with pytest.raises(NotACocycle):
        twist(rho, junk)


# ---------------------------------------------------------------------------
# trace targeting


def test_solve_trace_targets_plug_back():
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    place = group.place("q03")
    cur = evaluate_word(rho, place.sigma).trace()
    target = cur + cr.witt_from_int(rho.ring, 5 * 3)
    f = solve_trace_targets(rho, module, [(place, target)])
    rho2 = twist(rho, f)
    assert evaluate_word(rho2, place.sigma).trace() == target


def test_solve_trace_targets_rejects_low_digit_change():
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    place = group.place("q03")
    cur = evaluate_word(rho, place.sigma).trace()
    bad = cur + cr.witt_one(rho.ring)
    with pytest.raises(Inconsistent):
        solve_trace_targets(rho, module, [(place, bad)])


def test_solve_trace_targets_current_trace_gives_valid_cocycle():
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    place = group.place("q03")
    cur = evaluate_word(rho, place.sigma).trace()
    f = solve_trace_targets(rho, module, [(place, cur)])
    rho2 = twist(rho, f)
    assert evaluate_word(rho2, place.sigma).trace() == cur


def test_unreachable_target_names_the_vanishing_functional():
    rho = deformation_tame(2)
    place = rho.group.place("q08")  # sigma = s w maps to 2 I
    module = build_module(rho.reduce(1), 1)
    cur = evaluate_word(rho, place.sigma).trace()
    target = cur + cr.witt_from_int(rho.ring, 5 * 3)
    with pytest.raises(Unreachable, match=r"trace functional at q08 vanishes: "
                       r"rhobar\(sigma\) is scalar"):
        solve_trace_targets(rho, module, [(place, target)])
    # the unchanged trace stays reachable: the zero row asks for nothing
    f = solve_trace_targets(rho, module, [(place, cur)])
    assert evaluate_word(twist(rho, f), place.sigma).trace() == cur


def test_locked_places_keep_local_data():
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    place = group.place("q03")
    lock = group.place("q02")
    cur = evaluate_word(rho, place.sigma).trace()
    target = cur + cr.witt_from_int(rho.ring, 5 * 2)
    f = solve_trace_targets(rho, module, [(place, target)], [lock])
    rho2 = twist(rho, f)
    assert evaluate_word(rho2, place.sigma).trace() == target
    # locked place: sigma and tau images unchanged
    assert evaluate_word(rho2, lock.sigma) == evaluate_word(rho, lock.sigma)
    assert evaluate_word(rho2, lock.tau) == evaluate_word(rho, lock.tau)


# ---------------------------------------------------------------------------
# niceness and place selection


def test_is_nice_examples():
    rhobar = residual_tame()
    group = rhobar.group
    assert is_nice(group.place("q03"), rhobar)      # q=2, eigenvalues 2, 1
    assert is_nice(group.place("q04"), rhobar)      # q=2, eigenvalues 1, 2
    assert is_nice(group.place("q05"), rhobar)
    assert not is_nice(group.place("q07"), rhobar)  # q=4=-1 mod 5
    assert not is_nice(group.place("q08"), rhobar)  # scalar residual Frobenius
    assert not is_nice(group.place("q01"), rhobar)  # ramified tau


def test_is_rho_m_nice_exact_ratio():
    rho = deformation_tame(2)
    group = rho.group
    assert is_rho_m_nice(group.place("q03"), rho)   # eigenvalues 2, 1; q=2
    assert not is_rho_m_nice(group.place("q07"), rho)


def test_eigenvalue_decisions_factor_once(monkeypatch):
    calls = []
    factorize = cr.ff_factorize
    monkeypatch.setattr(cr, "ff_factorize", lambda poly: calls.append(1) or factorize(poly))

    def count(fn):
        calls.clear()
        fn()
        return len(calls)
    rhobar, rho = residual_tame(), deformation_tame(3)
    q03 = rho.group.place("q03")
    g = Mat.from_ints(cr.make_witt_ring(5, 1, 4), [[2, 1], [0, 3]])
    assert count(lambda: hensel_diagonalize(g)) == 1
    assert count(lambda: is_nice(q03, rhobar)) == 1
    assert count(lambda: is_rho_m_nice(q03, rho)) == 1


# sha256 over is_nice / is_rho_m_nice at every place of the tame deformations
# at levels 1..4 and over check_tame_relation's branch and pair for every
# (x, y) in GL_2(F_5)^2 with x y x^-1 = y^q, q = 2 and 6
EIGENVALUE_PARITY_SHA256 = "d22cf65b94c0eac6c22190c7dcde70078125fba6f287e611b30436fe4e8864a4"


def test_eigenvalue_decisions_are_pinned():
    lines = []
    for rho in [residual_tame()] + [deformation_tame(m) for m in (2, 3, 4)]:
        rhobar = rho.reduce(1)
        for place in rho.group.places:
            lines.append(f"{rho.ring.m} {place.label} {is_nice(place, rhobar)} "
                         f"{is_rho_m_nice(place, rho)}")
    f5 = cr.make_field(5, 1)
    ents = [e for e in itertools.product(range(5), repeat=4) if (e[0] * e[3] - e[1] * e[2]) % 5]
    a = np.array(ents).reshape(-1, 2, 2)
    det = (a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]) % 5
    adj = np.stack([a[:, 1, 1], -a[:, 0, 1], -a[:, 1, 0], a[:, 0, 0]], -1).reshape(-1, 2, 2)
    inv = adj * np.array([pow(int(x), -1, 5) for x in det])[:, None, None] % 5
    conj = a[:, None] @ a[None] @ inv[:, None] % 5
    for q in (2, 6):
        yq = a.copy()
        for _ in range(q - 1):
            yq = yq @ a % 5
        for i, j in np.argwhere((conj == yq[None]).all(axis=(2, 3))):
            br = check_tame_relation(Mat.from_ints(f5, a[i].tolist()),
                                     Mat.from_ints(f5, a[j].tolist()), q)
            pair = None if br.pair is None else [(p.params.d, p.coeffs) for p in br.pair]
            lines.append(f"{q} {ents[i]} {ents[j]} {br.kind} {pair}")
    assert len(lines) == 2432
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EIGENVALUE_PARITY_SHA256


def test_oracle_find_places_label_order():
    rho = deformation_tame(2)
    pool = rho.group.places
    got = oracle_find_places(pool, rho, OracleConstraints(rho_m_nice=True))
    assert got.label == "q03"
    got2 = oracle_find_places(pool, rho, OracleConstraints(rho_m_nice=True),
                              exclude={"q03"})
    assert got2.label == "q04"


def test_oracle_not_found():
    rho = deformation_tame(2)
    pool = [rho.group.place("q08")]  # scalar residual Frobenius, q = -1 mod 5
    with pytest.raises(OracleNotFound):
        oracle_find_places(pool, rho, OracleConstraints(rho_m_nice=True))


def test_oracle_rejects_dependent_patterns():
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    m = ((1,), (2,), (0,))
    cob = coboundary_of(group, module, m)
    with pytest.raises(ParamMismatch):
        oracle_find_places(group.places, rho,
                           OracleConstraints(patterns=((cob, True),)))


def test_oracle_pattern_of_unreduced_zeros_is_dependent():
    # (5,) is the zero of F_5 with an unreduced coefficient: a Cocycle
    # refuses it, and the pattern of its reduced form, the zero class, is
    # dependent
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    with pytest.raises(ParamMismatch, match=r"ints in \[0, 5\)"):
        Cocycle(module, {g: ((5,),) * 3 for g in group.generators})
    coc = Cocycle(module, {g: ((0,),) * 3 for g in group.generators})
    with pytest.raises(ParamMismatch, match="dependent"):
        oracle_find_places(group.places, rho,
                           OracleConstraints(patterns=((coc, True),)))


def test_oracle_refuses_patterns_over_two_fields():
    rho = deformation_tame(2)
    group = rho.group
    patterns = tuple((_h1_complement_cocycles(group, build_module(rho.reduce(1), d))[0], True)
                     for d in (1, 2))
    with pytest.raises(ParamMismatch):
        oracle_find_places(group.places, rho, OracleConstraints(patterns=patterns))


def test_oracle_refuses_patterns_from_two_modules():
    # an H^1 class of the tame adjoint module and one of its dual share the
    # field, but only classes of one module can be independent in its H^1
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    patterns = tuple((_h1_complement_cocycles(group, mod)[0], True)
                     for mod in (module, dual_module(module)))
    with pytest.raises(ParamMismatch, match="different modules"):
        oracle_find_places(group.places, rho, OracleConstraints(patterns=patterns))


def _h1_complement_cocycles(group, module):
    from wittlift import linalg
    z1, b1, _ = cocycle_space(group, module)
    comp = linalg.independent_complement(b1, z1, module.field)
    return [Cocycle.from_flat(group, module, z) for z in comp]


def test_oracle_restriction_pattern_unique_match():
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    classes = _h1_complement_cocycles(group, module)
    # one complement class restricts nontrivially at exactly one pool place
    target = next(c for c in classes
                  if sum(1 for p in group.places if "pool" in p.member_of
                         and restrict_and_classify(c, p) != "zero_class") == 1)
    pool = [p for p in group.places if "pool" in p.member_of]
    got = oracle_find_places(pool, rho,
                             OracleConstraints(patterns=((target, True),)))
    assert restrict_and_classify(target, got) != "zero_class"
    # exhaustive check: it really is the unique match
    assert [p.label for p in pool
            if restrict_and_classify(target, p) != "zero_class"] == [got.label]


def test_oracle_contradictory_pattern_not_found():
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    classes = _h1_complement_cocycles(group, module)
    target = next(c for c in classes
                  if sum(1 for p in group.places if "pool" in p.member_of
                         and restrict_and_classify(c, p) != "zero_class") == 1)
    bad_pool = [p for p in group.places if "pool" in p.member_of
                and restrict_and_classify(target, p) == "zero_class"]
    with pytest.raises(OracleNotFound):
        oracle_find_places(bad_pool, rho,
                           OracleConstraints(patterns=((target, True),)))


def test_select_auxiliary_rank_checks():
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    s_r = (group.place("q01"), group.place("q02"))
    q_places, ranks = select_auxiliary(rho, module, s_r, group.places)
    assert ranks["inj_module"] and ranks["inj_dual"]
    assert ranks["surj_unramified"]
    assert all(is_rho_m_nice(p, rho) for p in q_places)


def test_localization_coker_ranks():
    # ranks of the restriction to the unramified local quotients, as
    # computed with one cocycle_eval per Z^1 vector before the Fox rows
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    s_r = (group.place("q01"), group.place("q02"))
    for labels, target, got in ((("q08",), 3, 2), (("q03", "q04"), 2, 2),
                                (("q03", "q06"), 2, 1), (("q04", "q08"), 4, 2)):
        ranks = _localization_ranks(group, module, dual_module(module), s_r,
                                    [group.place(q) for q in labels])
        assert (ranks["coker_target"], ranks["coker_rank"]) == (target, got)
        assert ranks["surj_unramified"] == (target == got)


# ---------------------------------------------------------------------------
# towers and certificates


PLAN = TowerPlan(residual_free(), 4, {2: "p01", 3: "p03", 4: "p07"})


def test_tower_plan_refuses_level_0_and_missing_labels():
    # max_level 0 used to fail in make_certificate on a float d_top, and a
    # missing label with a bare KeyError
    with pytest.raises(SchemaError, match="max_level = 0 must be >= 1"):
        TowerPlan(residual_free(), 0, {})
    with pytest.raises(SchemaError, match=r"r_labels: no place for levels \[3, 4\]"):
        TowerPlan(residual_free(), 4, {2: "p01"})


def test_build_tower_free_surrogate():
    tower, cert = build_tower(PLAN)
    assert len(tower.levels) == 4
    for i, lvl in enumerate(tower.levels, start=1):
        assert lvl.rho.ring.m == i
        assert lvl.rho.ring.d == 2 ** (i - 1)
    # exact reduction compatibility between consecutive levels
    for i in range(1, 4):
        prev, cur = tower.levels[i - 1].rho, tower.levels[i].rho
        assert cur.reduce(i).images == prev.embed(cur.ring.d).images
    # every targeted trace escapes the previous coefficient subring
    for label, level, tr in logged_traces(tower):
        assert not cr.in_subring(tr, tr.ring.d // 2)
    assert check_certificate(cert) == []


def test_tower_field_of_definition_none():
    tower, _ = build_tower(PLAN)
    traces = [tr for _, _, tr in logged_traces(tower)]
    assert field_of_definition(traces, 8) is None


def test_negative_control_stays_rational():
    plan = TowerPlan(residual_free(), 4, {2: "p01", 3: "p03", 4: "p07"},
                     escape=False)
    tower, _ = build_tower(plan)
    traces = [tr for _, _, tr in logged_traces(tower)]
    assert field_of_definition(traces, 8) == 1
    for tr in traces:
        assert cr.in_subring(tr, 1)


def test_build_tower_tame_surrogate():
    plan = TowerPlan(residual_tame(), 3, {2: "q03", 3: "q04"},
                     locked_labels=("q01",))
    tower, cert = build_tower(plan)
    assert len(tower.levels) == 3
    for lvl in tower.levels:
        from wittlift.galois_model import validate_deformation
        assert validate_deformation(lvl.rho).ok
    traces = [tr for _, _, tr in logged_traces(tower)]
    assert field_of_definition(traces, 4) is None
    assert check_certificate(cert) == []


TAME_PLAN_5 = TowerPlan(residual_tame(), 5,
                        {2: "q03", 3: "q04", 4: "q05", 5: "q03"})
# sha256 of the level-5 tame tower and certificate, serialized as below,
# recorded at tower schema 2, when 8 -> 16 began to embed by X -> X^2
TAME_5_SHA256 = "e687d902ce33e268ae990457d99d010576fa817cd44dd28fedaebed4defd177e"


@pytest.fixture(scope="module")
def cold_tame_tower_5():
    """The level-5 tame tower built with empty coefficient-ring caches,
    with the number of ff_factorize calls the build made."""
    calls = []
    factorize = cr.ff_factorize
    with pytest.MonkeyPatch.context() as mp:
        for cached in (cr._embedding_powers, cr._frobenius_powers, cr._residual_root,
                       cr._monomial_table, cr._composed):
            cached.cache_clear()
        mp.setattr(cr, "ff_factorize",
                   lambda poly: calls.append(1) or factorize(poly))
        tower, cert = build_tower(TAME_PLAN_5)
    return tower, cert, len(calls)


def test_tame_tower_needs_no_factorization(cold_tame_tower_5):
    assert cold_tame_tower_5[2] == 0


def test_tame_tower_level_5_is_pinned(cold_tame_tower_5):
    tower, cert, _ = cold_tame_tower_5
    text = json.dumps({"tower": tower_to_json_dict(tower), "certificate": cert},
                      indent=2, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == TAME_5_SHA256
    data = json.loads(text)
    assert verify_tower_dict(data["tower"]) == []
    assert check_certificate(data["certificate"]) == []


def _tame_plan(max_level):
    return TowerPlan(residual_tame(), max_level,
                     {k: ("q03", "q04", "q05")[(k - 2) % 3]
                      for k in range(2, max_level + 1)})


def _check_pinned_tower(max_level, sha256):
    """Build the tame tower with q03, q04, q05 in turn; its tower and
    certificate JSON must hash to sha256, verify and check clean."""
    tower, cert = build_tower(_tame_plan(max_level))
    assert tower.levels[-1].rho.ring.d == 2 ** (max_level - 1)
    text = json.dumps({"tower": tower_to_json_dict(tower), "certificate": cert},
                      indent=2, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256
    data = json.loads(text)
    assert verify_tower_dict(data["tower"]) == []
    assert check_certificate(data["certificate"]) == []


def test_tame_tower_to_level_5_eliminates_only_over_f_ell(monkeypatch):
    # every system of the tower comes from the tame adjoint module over F_5
    from wittlift import linalg
    want = build_tower(_tame_plan(5))
    rref = linalg.rref

    def f_ell_rref(rows, field):
        if field.d > 1:
            raise AssertionError(f"rref over {field}")
        return rref(rows, field)

    monkeypatch.setattr(linalg, "rref", f_ell_rref)
    tower, cert = build_tower(_tame_plan(5))
    assert tower.levels[-1].rho.ring.d == 16
    assert (tower_to_json_dict(tower), cert) == (tower_to_json_dict(want[0]), want[1])


# sha256 of the level-8 tame tower and certificate, recorded at tower schema 2
TAME_8_SHA256 = "41e22aa0fd40c543a45c897add67f0901e5b9065bfff5aa1a2273263baaa9424"


def test_tame_tower_level_8():
    _check_pinned_tower(8, TAME_8_SHA256)


def test_tame_tower_to_level_8_takes_no_euclid_inverse(monkeypatch):
    # every lift has det = epsilon, a constant, which _unit_inverse inverts by pow
    def refuse(*args):
        raise AssertionError("_poly_inverse called")

    monkeypatch.setattr(cr, "_poly_inverse", refuse)
    _check_pinned_tower(8, TAME_8_SHA256)


def test_level_5_build_computes_each_fox_jacobian_once(monkeypatch):
    # every level's module extends the one F_5 module memoised on plan.rhobar
    import wittlift.cohomology as co
    computed = []
    fox_rows = co._fox_rows

    def counting(generators, module, word):
        if (generators, word) not in module._fox:
            computed.append(word)
        return fox_rows(generators, module, word)

    monkeypatch.setattr(co, "_fox_rows", counting)
    build_tower(_tame_plan(5))
    relators = residual_tame().group.relators
    assert all(computed.count(rel) == 1 for rel in relators)
    assert len(computed) == len(set(computed))


def test_tower_step_refuses_a_rho_m_off_the_plans_residual():
    plan = _tame_plan(3)
    rho2 = tower_step(plan.rhobar, plan, 2).rho
    rhobar = plan.rhobar
    p = Mat.from_ints(rhobar.ring, [[1, 1], [0, 1]])
    conj = Deformation(rhobar.group, rhobar.ring,
                       {g: p * a * p.inverse() for g, a in rhobar.images.items()})
    with pytest.raises(ParamMismatch, match="does not reduce"):
        tower_step(rho2, replace(plan, rhobar=conj), 3)
    assert tower_step(rho2, plan, 3).rho.ring.m == 3


# sha256 of the level-10 tame tower and certificate, recorded at tower schema 2
TAME_10_SHA256 = "a38fb6905088c4db01f6640704026280c6ed32385df34269d7283acedd288e98"


def test_tame_tower_level_10():
    _check_pinned_tower(10, TAME_10_SHA256)


# sha256 of the level-11 tame tower (d = 1024) and certificate, recorded at
# tower schema 2
TAME_11_SHA256 = "5ea135b90253f29bbf245a559e5bd91b0b117cf1194ad344d3f0a333723e4ed4"


def test_tame_tower_level_11():
    _check_pinned_tower(11, TAME_11_SHA256)


def test_certcheck_does_not_use_the_monomial_fast_path(cold_tame_tower_5,
                                                       monkeypatch):
    _, cert, _ = cold_tame_tower_5

    def refuse(*args):
        raise AssertionError("monomial fast path called")

    monkeypatch.setattr(cr, "_monomial_table", refuse)
    ring = cr.make_witt_ring(5, 16, 5)
    with pytest.raises(AssertionError):
        cr.in_subring(cr.witt_one(ring), 8)
    assert cert["d_top"] == 16
    assert check_certificate(json.loads(json.dumps(cert))) == []


def test_certcheck_frobenius_matches_hensel_path():
    rng = random.Random(17)
    for ell, D, m in itertools.product((5, 7, 13), (1, 2, 4, 8, 16, 32), (1, 3, 6)):
        ring = cr.make_witt_ring(ell, D, m)
        x = cr.WittElem(ring, tuple(rng.randrange(ring.q) for _ in range(D)))
        k = rng.randrange(1, 2 * D + 1)
        expect = x
        for _ in range(k % D):
            expect = cr.hensel_frobenius(expect)
        assert frobenius_power(x, k) == expect, (ell, D, m, k)


def test_certificate_structure():
    tower, cert = build_tower(PLAN)
    assert cert["d_top"] == 8
    kinds = {e["d"]: e["kind"] for e in cert["entries"]}
    assert set(kinds) == set(range(1, 9))
    assert "uncovered" not in kinds.values()
    # degrees 1..7 ruled out by a Frobenius witness or a degree witness
    assert kinds[1] == "frobenius"
    assert kinds[8] == "degree"  # no logged trace lives in degree 8


def test_certcheck_catches_tampering():
    tower, cert = build_tower(PLAN)
    bad = {**cert, "entries": [dict(e) for e in cert["entries"]]}
    # swap a frobenius witness's trace for one that IS Frobenius-fixed
    victim = next(e for e in bad["entries"] if e["kind"] == "frobenius")
    ring = cr.make_witt_ring(5, 2, 2)
    victim["trace"] = cr.witt_to_str(cr.witt_from_int(ring, 3))
    assert check_certificate(bad) != []
    missing = {**cert, "entries": cert["entries"][:-1]}
    assert any("no entries" in p for p in check_certificate(missing))


def _one_entry_certificate(**fields):
    return {"schema_version": 1, "d_top": 1,
            "entries": [{"d": 1, "kind": "frobenius", "check_degree": 1, **fields}]}


@pytest.mark.parametrize("fields, reason", [
    ({}, "trace is not a string"),
    ({"trace": 7}, "trace is not a string"),
    ({"trace": "5^2:1:[1"}, "unparseable trace"),
    ({"trace": "4^2:1:[1]"}, "unparseable trace"),
], ids=["missing", "not_a_string", "malformed", "ell_4"])
def test_certcheck_reports_a_bad_trace_once(fields, reason):
    problems = check_certificate(_one_entry_certificate(**fields))
    assert len(problems) == 1 and reason in problems[0]


def test_certcheck_lets_internal_errors_propagate(monkeypatch):
    def broken(text):
        raise RuntimeError("internal failure")
    monkeypatch.setattr("wittlift.certcheck.witt_from_str", broken)
    with pytest.raises(RuntimeError, match="internal failure"):
        check_certificate(_one_entry_certificate(trace="5^2:1:[1]"))


def test_tower_json_round_trip_and_corruption():
    tower, _ = build_tower(PLAN)
    data = tower_to_json_dict(tower)
    assert verify_tower_dict(data) == []
    import copy
    bad = copy.deepcopy(data)
    # corrupt one matrix entry of the level-2 deformation
    bad["levels"][1]["deformation"]["images"]["s"][0][0] = cr.witt_to_str(
        cr.witt_from_int(cr.make_witt_ring(5, 2, 2), 4))
    assert verify_tower_dict(bad) != []


def test_certificate_carries_the_checkers_schema_version(monkeypatch):
    import wittlift.certcheck as certcheck
    tower, _ = build_tower(PLAN)
    # a bump of the checker's version alone still checks what the tower writes
    monkeypatch.setattr(certcheck, "SCHEMA_VERSION", certcheck.SCHEMA_VERSION + 1)
    cert = make_certificate(tower, 8)
    assert cert["schema_version"] == certcheck.SCHEMA_VERSION
    assert check_certificate(cert) == []


def test_verify_tower_dict_refuses_schema_1():
    tower, _ = build_tower(PLAN)
    data = tower_to_json_dict(tower)
    assert data["schema_version"] == 2
    data["schema_version"] = 1
    with pytest.raises(SchemaError, match=r"X -> X\^\(D/d\)"):
        verify_tower_dict(data)


def test_make_certificate_small_d_top():
    tower, _ = build_tower(PLAN)
    cert = make_certificate(tower, 3)
    assert cert["d_top"] == 3
    assert check_certificate(cert) == []


@pytest.mark.parametrize("plan", [PLAN, TAME_PLAN_5, replace(PLAN, escape=False)],
                         ids=["free_4", "tame_5", "free_4_no_escape"])
def test_logged_traces_and_field_of_definition_follow_the_tower(plan):
    tower, cert = build_tower(plan)
    group = plan.rhobar.group
    # the logged trace is each level's target, which the twist hit exactly
    assert logged_traces(tower) == [
        (lvl.r_label, i, evaluate_word(lvl.rho, group.place(lvl.r_label).sigma).trace())
        for i, lvl in enumerate(tower.levels[1:], start=2)]
    # one witness rule: the field of definition is the first uncovered degree
    traces = [tr for _, _, tr in logged_traces(tower)]
    uncovered = [e["d"] for e in cert["entries"] if e["kind"] == "uncovered"]
    assert field_of_definition(traces, cert["d_top"]) == (uncovered or [None])[0]
