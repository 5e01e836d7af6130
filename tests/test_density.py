"""Tests for tube measures and Frobenius valuation scans."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wittlift.coeffring as cr
from wittlift.density import (
    Monomial,
    TubeQuery,
    _uniform_rows,
    det_minus_one_query,
    frobenius_scan,
    tube_measure,
)
from wittlift.errors import (
    AlphaExceedsPrecision,
    EllTooSmall,
    InputError,
    InvalidQuery,
    NotConjugationInvariant,
    NotPrime,
    ParamMismatch,
)
from wittlift.galois_model import Deformation, ModelGroup, Place, parse_word
from wittlift.matlin import Mat, closure_word, group_closure
from wittlift.presets import deformation_tame


def test_det_minus_one_level_one():
    res = tube_measure(det_minus_one_query(5, 1, 0))
    assert res.exact
    assert res.fraction == Fraction(1, 4)
    assert res.population == 480  # |GL_2(F_5)|


def test_det_minus_one_level_two():
    res = tube_measure(det_minus_one_query(5, 2, 1))
    assert res.exact
    assert res.fraction == Fraction(1, 20)


def test_constant_unit_polynomial_measures_zero():
    q = TubeQuery(5, 2, 1, 0, (Monomial(1, (0, 0, 0, 0)),))
    assert tube_measure(q).fraction == 0


def test_zero_polynomial_measures_one():
    q = TubeQuery(5, 2, 1, 0, (Monomial(5, (0, 0, 0, 0)),))
    assert tube_measure(q).fraction == 1


def test_alpha_at_precision_measures_zero():
    q = det_minus_one_query(5, 2, 2)
    assert tube_measure(q).fraction == 0


def test_alpha_validation():
    with pytest.raises(AlphaExceedsPrecision):
        det_minus_one_query(5, 2, 3)
    with pytest.raises(AlphaExceedsPrecision):
        TubeQuery(5, 2, 1, -1, ())


def test_ell_validation():
    # the same rule as make_field, with and without generators
    with pytest.raises(NotPrime):
        det_minus_one_query(4, 1, 0)
    with pytest.raises(NotPrime):
        TubeQuery(4, 2, 1, 0, (), generators=(((1, 0), (0, 1)),))
    with pytest.raises(EllTooSmall):
        det_minus_one_query(3, 1, 0)


def test_shape_validation():
    with pytest.raises(ParamMismatch):
        TubeQuery(5, 2, 0, 0, ())
    with pytest.raises(ParamMismatch):
        TubeQuery(5, 2, 1, 0, (), generators=(((1, 0, 0), (0, 1, 0)),))


def test_generators_must_be_invertible():
    # a singular generator would make the closure a monoid, not a subgroup
    with pytest.raises(ParamMismatch, match="generator 1 is not invertible"):
        TubeQuery(5, 2, 2, 0, (), generators=(((2, 0), (0, 1)),
                                              ((5, 0), (0, 1))))
    with pytest.raises(ParamMismatch, match="generator 0 is not invertible"):
        TubeQuery(5, 1, 2, 0, (), generators=(((10,),),))


def test_sampled_needs_a_sample():
    for count in (0, -1):
        with pytest.raises(ParamMismatch, match="sample_count"):
            tube_measure(det_minus_one_query(5, 4, 0), sample_count=count)


def test_monomial_arity_validation():
    with pytest.raises(ParamMismatch):
        TubeQuery(5, 2, 1, 0, (Monomial(1, (1, 0)),))


def test_measure_monotone_in_alpha():
    rng = random.Random(77)
    for _ in range(10):
        monos = tuple(
            Monomial(rng.randrange(-3, 4),
                     tuple(rng.randrange(3) for _ in range(4)))
            for _ in range(rng.randrange(1, 4)))
        prev = None
        for alpha in range(3):
            res = tube_measure(TubeQuery(5, 2, 2, alpha, monos))
            assert res.exact
            if prev is not None:
                assert res.fraction <= prev
            prev = res.fraction


def test_sampled_agrees_with_exact_value():
    # 25^16 matrices at m=4 force the sampling path; det-1 tube has exact
    # measure 1/(4 * 5^alpha) at every level
    res = tube_measure(det_minus_one_query(5, 4, 0), seed=11,
                       sample_count=50000)
    assert not res.exact
    assert abs(float(res.fraction) - 0.25) < 5 * max(res.std_error, 1e-3)
    again = tube_measure(det_minus_one_query(5, 4, 0), seed=11,
                         sample_count=50000)
    assert again.fraction == res.fraction  # seeded determinism


@pytest.mark.parametrize("m", [14, 20, 30])
def test_sampled_det_minus_one_at_high_level(m):
    # past int64 at level m; counted at level alpha + 1 = 1
    res = tube_measure(det_minus_one_query(5, m, 0), seed=m, sample_count=50000)
    assert not res.exact and res.sample_count == 50000
    se = (0.25 * 0.75 / res.sample_count) ** 0.5
    assert abs(float(res.fraction) - 0.25) < 4 * se


def test_sampled_past_int64_at_counting_level():
    # 5^29 > 2^63: entries and values are Python ints.  f = 5^28 (det - 1)
    # has v(f) > 28 exactly when det = 1 mod 5, a measure of 1/4.
    big = 5 ** 28
    q = TubeQuery(5, 2, 30, 28, tuple(
        Monomial(c * big, mono.exps)
        for c, mono in zip((1, -1, -1), det_minus_one_query(5, 1, 0).monomials)))
    res = tube_measure(q, seed=5, sample_count=20000)
    assert not res.exact and res.sample_count == 20000
    assert abs(float(res.fraction) - 0.25) < 4 * (0.25 * 0.75 / 20000) ** 0.5
    assert tube_measure(q, seed=5, sample_count=20000) == res  # seeded
    tiny = tube_measure(det_minus_one_query(5, 30, 28), seed=1, sample_count=2000)
    assert not tiny.exact and tiny.sample_count == 2000


def test_uniform_rows_past_int64_cover_every_digit():
    # 5^29 is drawn as int64 digits summed in Python ints; every base-5
    # digit, the top one included, must be uniform
    rows = _uniform_rows(np.random.default_rng(3), 2000, 2, 5, 29)
    assert rows.dtype == object and rows.shape == (2000, 4)
    entries = [int(x) for x in rows.ravel()]
    assert all(0 <= x < 5 ** 29 for x in entries)
    for pos in (0, 13, 25, 26, 28):
        counts = [0] * 5
        for x in entries:
            counts[x // 5 ** pos % 5] += 1
        assert all(abs(c - 1600) < 200 for c in counts), (pos, counts)


def _det3_terms():
    """det of a 3x3 matrix as (sign, entry indices), entries row-major."""
    return [(1, (0, 4, 8)), (-1, (0, 5, 7)), (-1, (1, 3, 8)),
            (1, (1, 5, 6)), (1, (2, 3, 7)), (-1, (2, 4, 6))]


def _mono3(coeff, indices):
    exps = [0] * 9
    for i in indices:
        exps[i] += 1
    return Monomial(coeff, tuple(exps))


def test_full_group_n3_det_minus_one():
    det_minus_one = tuple(_mono3(c, idx) for c, idx in _det3_terms()) + (
        _mono3(-1, ()),)
    res = tube_measure(TubeQuery(5, 3, 1, 0, det_minus_one))
    assert res.exact
    assert res.population == 1488000  # |GL_3(F_5)|
    assert res.fraction == Fraction(1, 4)


def test_full_group_n3_det_squared_minus_one():
    # det^2 = 1 mod 5 for det = +-1, two of the four unit classes
    det_sq_minus_one = tuple(
        _mono3(c1 * c2, idx1 + idx2)
        for c1, idx1 in _det3_terms() for c2, idx2 in _det3_terms()) + (
        _mono3(-1, ()),)
    res = tube_measure(TubeQuery(5, 3, 1, 0, det_sq_minus_one))
    assert res.exact
    assert res.population == 1488000
    assert res.fraction == Fraction(1, 2)


def test_full_group_n4_is_refused():
    for m, alpha in ((1, 0), (1, 1), (2, 0)):
        with pytest.raises(InvalidQuery, match="support n <= 3, got n = 4"):
            tube_measure(TubeQuery(5, 4, m, alpha, ()))


def test_full_group_population_is_level_m_order():
    for alpha in range(3):
        res = tube_measure(det_minus_one_query(5, 2, alpha))
        assert res.exact
        assert res.population == 300000  # |GL_2(Z/25)| = 480 * 5^4


def test_subgroup_past_int64():
    # the dihedral group of order 8 at level 30, where l^m passes 2^63
    trace = (Monomial(1, (1, 0, 0, 0)), Monomial(1, (0, 0, 0, 1)))
    gens = (((0, -1), (1, 0)), ((-1, 0), (0, 1)))
    for alpha, want in ((0, Fraction(3, 4)), (29, Fraction(3, 4)), (30, 0)):
        res = tube_measure(TubeQuery(5, 2, 30, alpha, trace, gens))
        assert res.exact and res.population == 8
        assert res.fraction == want


def test_subgroup_mode_diagonal():
    q = TubeQuery(5, 2, 1, 0, det_minus_one_query(5, 1, 0).monomials,
                  generators=(((2, 0), (0, 1)),))
    res = tube_measure(q)
    assert res.exact
    assert res.population == 4  # <diag(2,1)> mod 5
    assert res.fraction == Fraction(1, 4)


# ---------------------------------------------------------------------------
# the m <-> alpha + 1 identity, against a plain-int counter at level m


def _det(x, n):
    return x[0] if n == 1 else x[0] * x[3] - x[1] * x[2]


def _closure(gens, n, mod):
    gens = [tuple(v % mod for r in g for v in r) for g in gens]
    ident = tuple(int(i == j) for i in range(n) for j in range(n))
    seen = {ident}
    todo = [ident]
    while todo:
        x = todo.pop()
        for g in gens:
            y = tuple(sum(x[i * n + t] * g[t * n + j] for t in range(n)) % mod
                      for i in range(n) for j in range(n))
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def _oracle(ell, n, m, monomials, generators):
    """(population, [measure at alpha for alpha in 0..m]) by counting every
    element at level m."""
    mod = ell ** m
    if generators:
        elems = _closure(generators, n, mod)
    else:
        elems = (x for x in itertools.product(range(mod), repeat=n * n)
                 if _det(x, n) % ell)
    pows = [[x ** e % mod for x in range(mod)] for e in range(4)]
    # valuation of f(x) mod l^m, which is m when f(x) = 0 mod l^m
    vals = [next(v for v in range(m + 1) if v == m or y % ell ** (v + 1))
            for y in range(mod)]
    at = [0] * (m + 1)  # at[v] = #{x : v(f(x)) = v}
    for x in elems:
        y = 0
        for mono in monomials:
            term = mono.coeff
            for xi, e in zip(x, mono.exps):
                term *= pows[e][xi]
            y += term
        at[vals[y % mod]] += 1
    population = sum(at)
    return population, [Fraction(sum(at[a + 1:]), population) for a in range(m + 1)]


def _monomials(n):
    return st.lists(st.builds(Monomial, st.integers(-6, 6),
                              st.tuples(*[st.integers(0, 3)] * (n * n))),
                    min_size=1, max_size=3).map(tuple)


def _check_every_alpha(ell, n, m, monos, gens):
    population, want = _oracle(ell, n, m, monos, gens)
    for alpha in range(m + 1):
        res = tube_measure(TubeQuery(ell, n, m, alpha, monos, gens))
        assert res.exact
        assert res.population == population
        assert res.fraction == want[alpha]


def _poly_mul(p, q):
    """The product of two polynomials given as monomial tuples."""
    acc = {}
    for a in p:
        for b in q:
            e = tuple(x + y for x, y in zip(a.exps, b.exps))
            acc[e] = acc.get(e, 0) + a.coeff * b.coeff
    return tuple(Monomial(c, e) for e, c in acc.items() if c)


def _scaled(c, p):
    return tuple(Monomial(c * mono.coeff, mono.exps) for mono in p)


_DET_MINUS_ONE = det_minus_one_query(5, 1, 0).monomials
_X_MINUS_ONE = (Monomial(1, (1,)), Monomial(-1, (0,)))
_TRACE = (Monomial(1, (1, 0, 0, 0)), Monomial(1, (0, 0, 0, 1)))


@settings(max_examples=12, deadline=None, derandomize=True)
@example(((5, 2, 2), _DET_MINUS_ONE))
# cubes of units mod 7 take three values and squares two, so these examples
# tell an exponent of 3 from 2 or 4; the last one has no non-constant term
@example(((7, 2, 1), (Monomial(1, (0, 0, 0, 3)), Monomial(-1, (0, 0, 0, 0)))))
@example(((7, 1, 2), (Monomial(1, (3,)), Monomial(-1, (0,)))))
@example(((5, 2, 2), (Monomial(5, (0, 0, 0, 0)),)))
# singular zeros: every zero of (det - 1)^2 and of x1^2 x4^2 is singular with
# v(f) >= 2 at its integer representative; tr^2 - 4 det has both kinds
@example(((5, 2, 2), _poly_mul(_DET_MINUS_ONE, _DET_MINUS_ONE)))
@example(((5, 2, 2), _poly_mul(_TRACE, _TRACE) + _scaled(-4, _DET_MINUS_ONE[:2])))
@example(((5, 2, 2), (Monomial(1, (2, 0, 0, 2)),)))
# content 5 and 25, the zero polynomial and a unit constant
@example(((5, 2, 2), _scaled(5, _DET_MINUS_ONE)))
@example(((5, 2, 2), _scaled(25, _poly_mul(_DET_MINUS_ONE, _DET_MINUS_ONE))))
@example(((5, 2, 2), ()))
@example(((5, 2, 1), (Monomial(1, (0, 0, 0, 0)),)))
# levels 3 to 6 recurse at the singular zero x = 1: (x - 1)^2 - 125 has
# v(f(1)) = 3, and (x - 1 + 5)(x - 1)^2 vanishes to order 3 at x = 1
@example(((5, 1, 6), _poly_mul(_X_MINUS_ONE, _X_MINUS_ONE)))
@example(((5, 1, 6), _poly_mul(_X_MINUS_ONE, _X_MINUS_ONE) + (Monomial(-125, (0,)),)))
@example(((5, 1, 5), _poly_mul(_X_MINUS_ONE, _poly_mul(_X_MINUS_ONE, _X_MINUS_ONE))))
@example(((5, 1, 6), _poly_mul(_X_MINUS_ONE + (Monomial(5, (0,)),),
                               _poly_mul(_X_MINUS_ONE, _X_MINUS_ONE))))
@example(((5, 1, 4), _scaled(25, _poly_mul(_X_MINUS_ONE, _X_MINUS_ONE))))
@given(st.sampled_from([(5, 1, 1), (5, 1, 2), (5, 1, 3), (5, 1, 4), (5, 1, 6),
                        (5, 2, 1), (5, 2, 2), (7, 1, 1), (7, 1, 2), (7, 2, 1)]).flatmap(
    lambda lnm: st.tuples(st.just(lnm), _monomials(lnm[1]))))
def test_full_group_counts_at_alpha_plus_one(case):
    (ell, n, m), monos = case
    _check_every_alpha(ell, n, m, monos, ())


@pytest.mark.parametrize("monos, want", [
    # det = 1 mod 7 on 1/6 of GL_2(F_7), each residue smooth: 1/(l^alpha (l - 1))
    (_DET_MINUS_ONE, (Fraction(1, 6), Fraction(1, 42))),
    # every zero singular with v(f) >= 2, so all its l^4 lifts count
    (_poly_mul(_DET_MINUS_ONE, _DET_MINUS_ONE), (Fraction(1, 6), Fraction(1, 6))),
    # x1 x4 = 0 mod 7 on 252 + 252 - 36 = 468 of the 2016 residues
    ((Monomial(1, (2, 0, 0, 2)),), (Fraction(13, 56), Fraction(13, 56))),
    # (det - 1) x1 + 7 vanishes mod 7 on 252 + 336 - 42 = 546 residues; the 42
    # with x1 = 0 and det = 1 are singular with v(f) = 1, the other 504 smooth
    # and each has 7^3 of its 7^4 lifts: 504 / (7 * 2016)
    (_poly_mul(_DET_MINUS_ONE, (Monomial(1, (1, 0, 0, 0)),)) + (Monomial(7, (0, 0, 0, 0)),),
     (Fraction(13, 48), Fraction(1, 28))),
    ((Monomial(7, (0, 0, 0, 0)),), (1, 0)),
    ((Monomial(49, (0, 0, 0, 0)),), (1, 1)),
])
def test_full_group_closed_forms_at_7_2_2(monos, want):
    # the oracle would enumerate all 49^4 matrices at level 2
    for alpha, frac in enumerate(want + (0,)):
        res = tube_measure(TubeQuery(7, 2, 2, alpha, monos))
        assert res.exact and res.population == 2016 * 7 ** 4
        assert res.fraction == frac, alpha


def test_full_group_count_stays_on_the_residues(monkeypatch):
    """At level k = 2 no full-group array has more than l^(n^2) cells."""
    import wittlift.density as den
    sizes = []
    poly_eval = den._poly_eval

    def checked(monomials, entries, modulus):
        out = poly_eval(monomials, entries, modulus)
        sizes.extend([np.size(x) for x in entries] + [np.size(out)])
        return out

    monkeypatch.setattr(den, "_poly_eval", checked)
    cases = [(5, 2, _DET_MINUS_ONE), (5, 2, _poly_mul(_DET_MINUS_ONE, _DET_MINUS_ONE)),
             (7, 2, _DET_MINUS_ONE), (5, 1, _poly_mul(_X_MINUS_ONE, _X_MINUS_ONE))]
    for ell, n, monos in cases:
        sizes.clear()
        assert tube_measure(TubeQuery(ell, n, 2, 1, monos)).exact
        assert sizes and max(sizes) <= ell ** (n * n), (ell, n, max(sizes))


# generator sets whose closures stay below ~2 * 10^4 elements at m <= 3
_SMALL_CLOSURES = (
    (((2, 0), (0, 1)), ((1, 1), (0, 1))),  # a Borel subgroup, 12500 at m = 3
    (((2, 0), (0, 1)), ((1, 0), (0, 2))),  # the diagonal torus
    (((0, -1), (1, 0)), ((-1, 0), (0, 1))),  # dihedral of order 8
    (((-1, 0), (0, 1)), ((1, 1), (0, 1))),
    (((2, 0), (0, 3)),),
)


@st.composite
def _subgroup_cases(draw):
    m = draw(st.integers(1, 3))
    mod = 5 ** m
    n = draw(st.sampled_from([1, 2]))
    if n == 1:
        gens = (((draw(st.integers(1, mod - 1).map(lambda u: u + (u % 5 == 0))),),),)
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        while True:  # a conjugator in GL_2(Z/l^m)
            a, b, c, d = (rng.randrange(mod) for _ in range(4))
            if (a * d - b * c) % 5:
                break
        det_inv = pow(a * d - b * c, -1, mod)
        cinv = ((d * det_inv, -b * det_inv), (-c * det_inv, a * det_inv))

        def mul(x, y):
            return tuple(tuple(sum(x[i][t] * y[t][j] for t in range(2)) % mod
                               for j in range(2)) for i in range(2))
        gens = tuple(mul(mul(((a, b), (c, d)), g), cinv)
                     for g in draw(st.sampled_from(_SMALL_CLOSURES)))
    return n, m, draw(_monomials(n)), gens


@settings(max_examples=25, deadline=None, derandomize=True)
@example((2, 3, det_minus_one_query(5, 3, 0).monomials, _SMALL_CLOSURES[0]))
@given(_subgroup_cases())
def test_subgroup_counts_at_alpha_plus_one(case):
    n, m, monos, gens = case
    _check_every_alpha(5, n, m, monos, gens)


def _word_product(gens, word, n, mod):
    x = tuple(int(i == j) for i in range(n) for j in range(n))
    for gi in word:
        g = tuple(v % mod for r in gens[gi] for v in r)
        x = tuple(sum(x[i * n + t] * g[t * n + j] for t in range(n)) % mod
                  for i in range(n) for j in range(n))
    return x


@st.composite
def _closure_cases(draw):
    """(n, modulus, generators): conjugated small closures mod 5, 25 and 125,
    or any one to three matrices mod 5."""
    if draw(st.booleans()):
        n, m, _, gens = draw(_subgroup_cases())
        return n, 5 ** m, gens
    n = draw(st.sampled_from([1, 2]))
    mat = st.tuples(*[st.tuples(*[st.integers(0, 4)] * n)] * n)
    return n, 5, tuple(draw(st.lists(mat, min_size=1, max_size=3)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_closure_cases())
def test_group_closure_matches_plain_closure(case):
    n, mod, gens = case
    closure = group_closure(gens, mod)
    assert set(closure) == _closure(gens, n, mod)
    for x in closure:
        word = closure_word(closure, gens, mod, x)
        assert _word_product(gens, word, n, mod) == x


def test_frobenius_scan_constant_unit():
    rho = deformation_tame(2)
    frac, per_place = frobenius_scan(rho, rho.group.places,
                                     (Monomial(1, (0, 0, 0, 0)),), 0)
    assert frac == 0
    assert all(v == 0 for _, v in per_place)


def test_frobenius_scan_trace_on_trivial_rep():
    group = ModelGroup(("a",), (), (
        Place("v1", parse_word("a"), parse_word(""), 2),), {"a": 1})
    ring = cr.make_witt_ring(5, 1, 2)
    rho = Deformation(group, ring, {"a": Mat.identity(ring, 2)})
    monos = (Monomial(1, (1, 0, 0, 0)), Monomial(1, (0, 0, 0, 1)),
             Monomial(-2, (0, 0, 0, 0)))  # trace - 2, zero on the identity
    frac, per_place = frobenius_scan(rho, group.places, monos, 1)
    assert frac == 1
    assert per_place == [("v1", 2)]


def test_frobenius_scan_alpha_out_of_range_is_input_error():
    rho = deformation_tame(2)
    monos = (Monomial(1, (0, 0, 0, 0)),)
    for alpha in (-1, rho.ring.m + 1):
        with pytest.raises(AlphaExceedsPrecision, match="outside 0.."):
            frobenius_scan(rho, rho.group.places, monos, alpha)
    assert issubclass(AlphaExceedsPrecision, InputError)


@pytest.mark.parametrize("exps", [(0, 0, 0, 0, 1), (1, 0)])
def test_frobenius_scan_checks_monomial_arity(exps):
    # (0, 0, 0, 0, 1) used to lose its fifth exponent and scan the constant 1
    rho = deformation_tame(2)
    with pytest.raises(InvalidQuery, match=f"monomial arity {len(exps)} != n\\^2 = 4"):
        frobenius_scan(rho, rho.group.places, (Monomial(1, exps),), 0)


def test_frobenius_scan_rejects_non_invariant():
    rho = deformation_tame(2)
    with pytest.raises(NotConjugationInvariant):
        frobenius_scan(rho, rho.group.places,
                       (Monomial(1, (0, 1, 0, 0)),), 0)  # a single off-diagonal


def test_tube_query_refuses_n_below_one():
    # n = 0 used to be accepted, and tube_measure then died with an IndexError
    with pytest.raises(InvalidQuery, match="matrix size n = 0 must be >= 1"):
        TubeQuery(5, 0, 1, 0, ())


@pytest.mark.parametrize("exps", [(-2, 0, 0, 0), (-5, 0, 0, 0)])
def test_negative_exponents_are_refused(exps):
    # both used to measure 1/30, the tube of x itself: e < 1 was read as 1
    with pytest.raises(InvalidQuery, match=r"monomial exponents \[-\d, 0, 0, 0\] must be >= 0"):
        TubeQuery(5, 2, 2, 1, (Monomial(1, exps),))
    rho = deformation_tame(2)
    with pytest.raises(InvalidQuery, match="must be >= 0"):
        frobenius_scan(rho, rho.group.places, (Monomial(1, exps),), 0)
