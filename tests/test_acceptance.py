"""Acceptance suite: exhaustive finite-level counts and property checks
with explicit runtime budgets."""

import hashlib
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wittlift.coeffring as cr
from wittlift.certcheck import check_certificate
from wittlift.cohomology import (
    apply_adjustment,
    build_module,
    cocycle_eval,
    cocycle_space,
    coboundary_of,
    invariants_dim,
    lift_solve,
    normalize_det,
    relator_defects,
)
from wittlift.density import Monomial, TubeQuery, det_minus_one_query, tube_measure
from wittlift.errors import UnboundedGroup
from wittlift.galois_model import Deformation, evaluate_word, validate_deformation
from wittlift.lifting import (
    TowerPlan,
    build_tower,
    field_of_definition,
    logged_traces,
    trace_delta_digit,
    twist,
)
from wittlift.matlin import (
    KElem,
    Mat,
    find_split_diagonal,
    hensel_diagonalize,
    integral_model,
    jordan_decompose,
    kelem_from_rational,
    check_tame_relation,
)
from wittlift.presets import (
    deformation_tame,
    finite_groups,
    module_suite,
    residual_free,
    surrogate_free,
    surrogate_tame,
)
from helpers_bruteforce import brute_force_h1, conjugate_is_integral, matrix_order


# ---------------------------------------------------------------------------
# 1. coefficient rings


def test_acceptance_1_coefficient_rings():
    start = time.monotonic()
    # exhaustive Frobenius fixed-point counts: 5^(m * gcd(d0, d))
    import math
    for d in (1, 2):
        for m in (1, 2):
            ring = cr.make_witt_ring(5, d, m)
            for d0 in (1, 2):
                fixed = sum(1 for x in cr.witt_elements(ring)
                            if cr.witt_frobenius_power(x, d0) == x)
                assert fixed == 5 ** (m * math.gcd(d0, d)), (d, m, d0)
    # Teichmuller multiplicativity, exhaustive over F_25 pairs at m = 3
    f25 = cr.make_field(5, 2)
    elements = [cr.FFElem(f25, (a, b)) for a in range(5) for b in range(5)]
    teich = {x.coeffs: cr.teichmuller(x, 3) for x in elements}
    for x in elements:
        for y in elements:
            assert teich[(x * y).coeffs] == teich[x.coeffs] * teich[y.coeffs]
    # hensel_root plug-back on 500 random quadratics with simple residual roots
    ring = cr.make_witt_ring(5, 1, 4)
    f5 = cr.make_field(5, 1)
    rng = random.Random(42)
    done = 0
    while done < 500:
        a = cr.witt_from_int(ring, rng.randrange(625))
        b = cr.witt_from_int(ring, rng.randrange(625))
        if a.residue() == b.residue():
            continue
        # (x - a)(x - b) = ab - (a+b) x + x^2
        poly = [a * b, -(a + b), cr.witt_one(ring)]
        r = cr.hensel_root(poly, a.residue())
        assert r == a
        assert (poly[0] + poly[1] * r + r * r).is_zero()
        done += 1
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. matrix toolkit


def _all_gl2_f5():
    f5 = cr.make_field(5, 1)
    out = []
    for a, b, c, d in itertools.product(range(5), repeat=4):
        if (a * d - b * c) % 5 != 0:
            out.append(Mat.from_ints(f5, [[a, b], [c, d]]))
    return out


def test_acceptance_2_matrix_toolkit():
    start = time.monotonic()
    # hensel_diagonalize exact reconstruction on 1000 matrices over W(F_25)/5^4
    ring = cr.make_witt_ring(5, 2, 4)
    rng = random.Random(7)

    def rand_elem():
        return cr.WittElem(ring, tuple(rng.randrange(ring.q)
                                       for _ in range(2)))

    def rand_invertible():
        while True:
            m = Mat.from_rows(ring, [[rand_elem(), rand_elem()],
                                     [rand_elem(), rand_elem()]])
            if m.det().is_unit():
                return m

    for _ in range(1000):
        while True:
            e1, e2 = rand_elem(), rand_elem()
            if e1.residue() != e2.residue():
                break
        p = rand_invertible()
        d = Mat.from_rows(ring, [[e1, cr.witt_zero(ring)],
                                 [cr.witt_zero(ring), e2]])
        g = p * d * p.inverse()
        pp, dd = hensel_diagonalize(g)
        assert pp * dd * pp.inverse() == g
        assert sorted(x.coeffs for x in (dd.rows[0][0], dd.rows[1][1])) == \
            sorted(x.coeffs for x in (e1, e2))

    # jordan_decompose uniqueness, exhaustive over GL_2(F_5)
    gl2 = _all_gl2_f5()
    assert len(gl2) == 480
    orders = {g.entries: matrix_order(g) for g in gl2}
    # on integer arrays: matrix i is ints[i], and [i, j] below is (y_i, a_j)
    ints = np.array([[c for (c,) in g.entries] for g in gl2]).reshape(-1, 2, 2)
    index = np.zeros(5 ** 4, dtype=int)
    index[ints.reshape(-1, 4) @ 5 ** np.arange(4)] = np.arange(len(gl2))
    inv = np.array([[c for (c,) in g.inverse().entries] for g in gl2]).reshape(-1, 2, 2)
    b = inv[None, :] @ ints[:, None] % 5  # a^-1 y
    b_index = index[b.reshape(len(gl2), len(gl2), 4) @ 5 ** np.arange(4)]
    order = np.array([orders[g.entries] for g in gl2])
    commuting = (ints[None, :] @ b % 5 == b @ ints[None, :] % 5).all(axis=(2, 3))
    # no other commuting (semisimple, 5-power-order) pair
    unique = (order[None, :] % 5 != 0) & np.isin(order[b_index], (1, 5)) & commuting
    for i, y in enumerate(gl2):
        y_s, y_u = jordan_decompose(y)
        assert y_s * y_u == y and y_u * y_s == y
        assert orders[_find_key(y_s, orders)] % 5 != 0
        assert matrix_order(y_u) in (1, 5)
        (j,) = np.flatnonzero(unique[i])
        assert gl2[j] == y_s and gl2[b_index[i, j]] == y_u

    # tame-relation dichotomy, every satisfying pair with q = 2, found on
    # integer arrays: [i, j] holds x_i y_j and y_j^2 x_i
    xy = ints[:, None] @ ints[None, :] % 5
    y2x = (ints @ ints % 5)[None, :] @ ints[:, None] % 5
    pairs = np.argwhere((xy == y2x).all(axis=(2, 3)))  # x y x^-1 = y^2
    assert len(pairs) > 0
    for i, j in pairs:
        x, y = gl2[i], gl2[j]
        branch = check_tame_relation(x, y, 2)
        assert branch.kind in ("semisimple_finite_order",
                               "eigenvalue_ratio")
        if branch.kind == "semisimple_finite_order":
            _, y_u = jordan_decompose(y)
            assert y_u.is_identity()
            assert orders[y.entries] % 5 != 0
        else:
            lam1, lam2 = branch.pair
            q = cr.ff_from_int(lam1.params, 2)
            assert lam1 == lam2 * q
    assert time.monotonic() - start < 120.0


def _find_key(mat, orders):
    k = mat.entries
    assert k in orders
    return k


# ---------------------------------------------------------------------------
# 3. split diagonal extraction


def _worked_split_generators(m):
    """Trivial lifts of diag(2, 1), e12 and e21 to W(F_5)/5^m."""
    ring = cr.make_witt_ring(5, 1, m)
    return [Mat.from_ints(ring, [[2, 0], [0, 1]]),
            Mat.from_ints(ring, [[1, 1], [0, 1]]),
            Mat.from_ints(ring, [[1, 0], [1, 1]])]


def _split_configurations():
    """200 random configurations at m in {2, 3}: the worked generators
    conjugated by a random unit, each perturbed by I + 5 * (random)."""
    rng = random.Random(99)
    for trial in range(200):
        m = rng.choice([2, 3])
        ring = cr.make_witt_ring(5, 1, m)
        gens = _worked_split_generators(m)
        while True:
            cmat = Mat.from_ints(ring, [[rng.randrange(5 ** m)
                                         for _ in range(2)]
                                        for _ in range(2)])
            if cmat.det().is_unit():
                break
        perturbed = []
        for g in gens:
            noise = Mat.from_ints(ring, [[1 + 5 * rng.randrange(5 ** (m - 1)),
                                          5 * rng.randrange(5 ** (m - 1))],
                                         [5 * rng.randrange(5 ** (m - 1)),
                                          1 + 5 * rng.randrange(5 ** (m - 1))]])
            perturbed.append(cmat * (noise * g) * cmat.inverse())
        yield ring, perturbed


def test_acceptance_3_split_diagonal():
    # worked instance: trivial lifts of diag(2,1), e12, e21 at m = 2 give a = 7
    ring2 = cr.make_witt_ring(5, 1, 2)
    c, d = find_split_diagonal(_worked_split_generators(2))
    assert d.rows[0][0].coeffs[0] == 7
    assert d.rows[1][1] == cr.witt_one(ring2)

    for ring, perturbed in _split_configurations():
        _, diag = find_split_diagonal(perturbed)
        a = diag.rows[0][0]
        assert diag.rows[1][0].is_zero() and diag.rows[0][1].is_zero()
        assert diag.rows[1][1] == cr.witt_one(ring)
        assert cr.in_subring(a, 1)
        assert a.residue().coeffs[0] not in (0, 1, 4)


# sha256 over the C and D entries of find_split_diagonal on the finite
# benchmark workload's split trials for seeds 1-10, the 200 configurations
# above and the worked generators at m = 1 and m = 4, recorded while the
# eigenvalues still came from Hensel diagonalization of the word itself
SPLIT_DIAGONAL_SHA256 = "4008d46f626713fb2b67d397356a8fde7879c4d30175b1b4506a1414c11465fd"


def test_split_diagonal_outputs_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    from workloads import Finite

    cases = [[Mat.from_ints(cr.make_witt_ring(5, 1, trial["m"]), [list(r) for r in g])
              for g in trial["gens"]]
             for seed in range(1, 11) for trial in Finite.spec(seed)["split"]]
    cases += [gens for _, gens in _split_configurations()]
    cases += [_worked_split_generators(m) for m in (1, 4)]
    digest = hashlib.sha256()
    for gens in cases:
        c, d = find_split_diagonal(gens)
        digest.update(repr((c.entries, d.entries)).encode())
    assert digest.hexdigest() == SPLIT_DIAGONAL_SHA256


# ---------------------------------------------------------------------------
# 4. cohomology against the brute-force oracle


def test_acceptance_4_cohomology():
    mismatches = []
    for name, group, images, order in finite_groups():
        for mod_name, module in module_suite(group, images):
            z1, b1, h1 = cocycle_space(group, module)
            bz, bb, bh = brute_force_h1(group, images, module)
            if (len(z1), len(b1), h1) != (bz, bb, bh):
                mismatches.append((name, mod_name))
            if len(b1) != module.dim - invariants_dim(group, module):
                mismatches.append((name, mod_name, "b1-identity"))
    assert mismatches == []

    # lift_solve plug-back on seeded defects, surrogate (b)
    rng = random.Random(4242)
    group = surrogate_tame()
    for trial in range(20):
        m = rng.choice([1, 2, 3])
        rho = deformation_tame(m)
        lifts = {}
        for gname in group.generators:
            lifted = rho.image(gname).lift_trivial(m + 1)
            lifts[gname] = normalize_det(group, gname, lifted)
        name = rng.choice(group.generators)
        ring1 = lifts[name].ring
        lm = 5 ** m
        a, b, c = (rng.randrange(5) for _ in range(3))
        seed = Mat.from_ints(ring1, [[1 + lm * a, lm * b],
                                     [lm * c, 1 - lm * a]])
        lifts[name] = seed * lifts[name]
        module = build_module(rho.reduce(1), 1)
        defects = relator_defects(rho, lifts)
        res = lift_solve(group, module, defects)
        assert res.ok
        fixed = apply_adjustment(lifts, res.adjustment, m)
        for rel in group.relators:
            acc = Mat.identity(ring1, 2)
            for gname, e in rel:
                acc = acc * (fixed[gname] ** e)
            assert acc.is_identity()


# ---------------------------------------------------------------------------
# 5. the deformation tower


TOWER_PLAN = TowerPlan(residual_free(), 4, {2: "p01", 3: "p03", 4: "p07"})


def test_acceptance_5_tower():
    start = time.monotonic()
    tower, cert = build_tower(TOWER_PLAN)
    assert [lvl.rho.ring.d for lvl in tower.levels] == [1, 2, 4, 8]
    assert [lvl.rho.ring.m for lvl in tower.levels] == [1, 2, 3, 4]
    for i, lvl in enumerate(tower.levels, start=1):
        rep = validate_deformation(lvl.rho)
        assert rep.ok
        if i > 1:
            prev = tower.levels[i - 2].rho
            assert lvl.rho.reduce(i - 1).images == \
                prev.embed(lvl.rho.ring.d).images
    for label, level, tr in logged_traces(tower):
        assert not cr.in_subring(tr, 2 ** (level - 2))
    traces = [tr for _, _, tr in logged_traces(tower)]
    assert field_of_definition(traces, 8) is None
    # the certificate re-verifies through the standalone checker
    assert check_certificate(cert) == []
    # negative control: no escape -> everything stays rational
    control = TowerPlan(residual_free(), 4, {2: "p01", 3: "p03", 4: "p07"},
                        escape=False)
    ctower, _ = build_tower(control)
    ctraces = [tr for _, _, tr in logged_traces(ctower)]
    assert field_of_definition(ctraces, 8) == 1
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 6. twist calculus


def test_acceptance_6_twist_calculus():
    # exhaustive cocycle <-> homomorphism equivalence at m = 2, d = 1:
    # assignments supported on the generators of one tame relation
    from wittlift.cohomology import Cocycle, relator_system
    from wittlift import linalg
    rho_free = Deformation(
        surrogate_free(), cr.make_witt_ring(5, 1, 2),
        {g: m.lift_trivial(2) for g, m in residual_free().images.items()})
    module_free = build_module(rho_free.reduce(1), 1)
    # free surrogate: every assignment twists to a homomorphism (no relators)
    zero = (0,)
    span = [(v,) for v in range(5)]
    count_free = 0
    for combo in itertools.product(range(5), repeat=6):
        vals = {"s": (span[combo[0]], span[combo[1]], span[combo[2]]),
                "t": (span[combo[3]], span[combo[4]], span[combo[5]]),
                "u": (zero, zero, zero), "w": (zero, zero, zero)}
        f = Cocycle(module_free, vals)
        out = twist(rho_free, f)  # raises NotACocycle on failure
        assert validate_deformation(out).ok
        count_free += 1
    assert count_free == 5 ** 6

    # tame surrogate: homomorphism-validity <=> relator system annihilates f
    rho = deformation_tame(2)
    group = rho.group
    module = build_module(rho.reduce(1), 1)
    rows = relator_system(group, module)
    restricted = [row[:6] for row in rows]
    expected_valid = 5 ** (6 - linalg.rank(restricted, module.field))
    valid = 0
    for combo in itertools.product(range(5), repeat=6):
        vals = {"s": (span[combo[0]], span[combo[1]], span[combo[2]]),
                "t": (span[combo[3]], span[combo[4]], span[combo[5]]),
                "u": (zero, zero, zero), "w": (zero, zero, zero)}
        flat = [x for gname in group.generators for x in vals[gname]]
        in_z1 = all(
            sum((cr.element(module.field, r) * cr.element(module.field, x)
                 for r, x in zip(row, flat)),
                cr.ff_zero(module.field)).is_zero() for row in rows)
        images = {}
        lm = 5
        for gname in group.generators:
            bb, aa, cc = vals[gname]
            add = Mat.from_rows(rho.ring, [
                [cr.witt_from_int(rho.ring, lm * aa[0]),
                 cr.witt_from_int(rho.ring, lm * bb[0])],
                [cr.witt_from_int(rho.ring, lm * cc[0]),
                 cr.witt_from_int(rho.ring, -lm * aa[0])]])
            images[gname] = (Mat.identity(rho.ring, 2) + add) * rho.image(gname)
        cand = Deformation(group, rho.ring, images)
        is_hom = all(evaluate_word(cand, rel).is_identity()
                     for rel in group.relators)
        assert is_hom == in_z1, combo
        if is_hom:
            valid += 1
    assert valid == expected_valid

    # 100 random coboundary twists leave every trace unchanged; the
    # trace-effect identity holds exactly
    rng = random.Random(606)
    rho3 = deformation_tame(3)
    module3 = build_module(rho3.reduce(1), 1)
    words = [p.sigma for p in group.places] + [
        tuple((rng.choice(group.generators), rng.choice([1, -1, 2]))
              for _ in range(4)) for _ in range(10)]
    for _ in range(100):
        m = tuple((rng.randrange(5),) for _ in range(3))
        cob = coboundary_of(group, module3, m)
        rho_t = twist(rho3, cob)
        for w in words:
            assert evaluate_word(rho_t, w).trace() == \
                evaluate_word(rho3, w).trace()
    z1, _, _ = cocycle_space(group, module3)
    for z in z1:
        from wittlift.cohomology import Cocycle as Coc
        f = Coc.from_flat(group, module3, z)
        rho_t = twist(rho3, f)
        for w in words:
            old = evaluate_word(rho3, w).trace()
            new = evaluate_word(rho_t, w).trace()
            delta = trace_delta_digit(rho3, f, w)
            expect = old + cr.witt_from_int(rho3.ring,
                                            25 * delta[0])
            assert new == expect


# ---------------------------------------------------------------------------
# 7. density


def test_acceptance_7_density():
    start = time.monotonic()
    assert tube_measure(det_minus_one_query(5, 1, 0)).fraction == \
        Fraction(1, 4)
    assert tube_measure(det_minus_one_query(5, 2, 1)).fraction == \
        Fraction(1, 20)
    rng = random.Random(1001)
    for _ in range(50):
        m = rng.choice([1, 2])
        monos = tuple(
            Monomial(rng.randrange(-4, 5),
                     tuple(rng.randrange(3) for _ in range(4)))
            for _ in range(rng.randrange(1, 4)))
        prev = None
        for alpha in range(m + 1):
            res = tube_measure(TubeQuery(5, 2, m, alpha, monos))
            assert res.exact
            if prev is not None:
                assert res.fraction <= prev
            prev = res.fraction
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 8. integral models


RK = cr.make_witt_ring(5, 1, 30)


def _k(num, den=1):
    return kelem_from_rational(RK, num, den)


def _kmat_int(rng):
    """A random matrix in GL_2 of the 5-adic integers with small entries,
    as Fractions."""
    while True:
        a, b, c, d = (rng.randrange(-10, 11) for _ in range(4))
        if (a * d - b * c) % 5 != 0:
            return [[Fraction(a), Fraction(b)], [Fraction(c), Fraction(d)]]


def _kmat_mul(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
            for i in range(2)]


def _conjugate(p, g):
    """p^-1 g p for 2 x 2 matrices of Fractions."""
    det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
    inv = [[p[1][1] / det, -p[0][1] / det],
           [-p[1][0] / det, p[0][0] / det]]
    return _kmat_mul(_kmat_mul(inv, g), p)


def _kelems(g):
    return [[KElem(RK, x) for x in row] for row in g]


def _values(g):
    return [[x.value for x in row] for row in g]


def _is_integral(g):
    return all(x.denominator % 5 for row in g for x in row)


def test_acceptance_8_integral_model():
    # worked example: the order-2 element [[0,5],[1/5,0]]
    g = [[_k(0), _k(5)], [_k(1, 5), _k(0)]]
    p = integral_model([g])
    assert p[0][0].value == 1
    assert p[1][1].value == Fraction(1, 5)
    assert _is_integral(_conjugate(_values(p), _values(g)))
    assert conjugate_is_integral(p, g, 5, RK.m)

    # 100 random bounded groups: conjugates of integral generator sets
    rng = random.Random(2024)
    for trial in range(100):
        frame = _kmat_int(rng)
        # scale the frame by diag(1, 5^k) to create denominators
        k = rng.randrange(0, 3)
        frame = [[frame[0][0], frame[0][1] / 5 ** k],
                 [frame[1][0], frame[1][1] / 5 ** k]]
        gens = []
        for _ in range(rng.randrange(1, 4)):
            gens.append(_kelems(_conjugate(frame, _kmat_int(rng))))
        p = integral_model(gens)
        for g in gens:
            assert _is_integral(_conjugate(_values(p), _values(g)))
            assert conjugate_is_integral(p, g, 5, RK.m)

    # unbounded generator
    with pytest.raises(UnboundedGroup):
        integral_model([[[_k(5), _k(0)], [_k(0), _k(1, 5)]]])
