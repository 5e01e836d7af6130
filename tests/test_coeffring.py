"""Tests for the truncated Witt-ring and finite-field arithmetic."""

import functools
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittlift.coeffring as cr
from wittlift.errors import (
    NonDivisibleDegrees,
    NotASimpleRoot,
    NotPrime,
    ParamMismatch,
    ZeroInverse,
)
from wittlift.linalg import nullspace, rref, solve


def test_make_field_rejects_bad_params():
    with pytest.raises(NotPrime):
        cr.make_field(6, 1)
    with pytest.raises(NotPrime):
        cr.make_field(4, 2)


def test_field_basic_arithmetic():
    f = cr.make_field(5, 2)
    a = cr.ff_gen(f)
    assert a ** 24 == cr.ff_one(f)
    assert a ** 25 == a  # Frobenius order
    b = cr.ff_from_int(f, 3)
    assert (a + b) - b == a
    assert (a * b) / b == a


def test_param_mismatch_is_still_detected():
    with pytest.raises(ParamMismatch):
        cr.ff_one(cr.make_field(5, 2)) + cr.ff_one(cr.make_field(7, 2))
    with pytest.raises(ParamMismatch):
        cr.witt_one(cr.make_witt_ring(5, 2, 2)) * cr.witt_one(cr.make_witt_ring(5, 2, 3))
    # equal but not identical params still combine
    f = cr.make_field(5, 2)
    twin = cr.WittRingParams(f.ell, f.d, 1, f.modulus)
    assert twin is not f
    assert cr.ff_gen(f) + cr.FFElem(twin, (1, 0)) == cr.FFElem(f, (1, 1))


def test_field_inverse_of_zero_fails():
    f = cr.make_field(5, 1)
    with pytest.raises(ZeroInverse):
        cr.ff_zero(f).inverse()


@pytest.mark.parametrize("cls,one,make", [
    (cr.FFElem, cr.ff_one, lambda rng: cr.FFElem(
        cr.make_field(5, 4), tuple(rng.randrange(5) for _ in range(4)))),
    (cr.WittElem, cr.witt_one, lambda rng: cr.WittElem(
        cr.make_witt_ring(5, 2, 3), tuple(rng.randrange(125) for _ in range(2)))),
])
def test_power_products(monkeypatch, cls, one, make):
    x = make(random.Random(23))
    params = x.params if cls is cr.FFElem else x.ring
    expect = one(params)
    products = []
    mul = cls.__mul__
    monkeypatch.setattr(cls, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert x ** 0 == one(params) and not products
    for e in range(1, 40):
        expect = mul(expect, x)
        products.clear()
        assert x ** e == expect
        # one squaring per bit below the top, one product per further set bit
        assert len(products) == e.bit_length() - 1 + bin(e).count("1") - 1
    assert x ** 1 is x


def test_large_field_inverse_makes_no_products(monkeypatch):
    f = cr.make_field(5, 16)
    a = cr.FFElem(f, tuple(range(16)))
    products = []
    mul = cr.FFElem.__mul__
    monkeypatch.setattr(cr.FFElem, "__mul__",
                        lambda x, y: products.append(1) or mul(x, y))
    inv = a.inverse()
    # extended Euclid on coefficients: no element products at all
    assert products == []
    assert inv.coeffs == _oracle_field_inverse(a.coeffs, f.modulus, 5)
    assert mul(a, inv) == cr.ff_one(f)


def test_unreduced_zero_has_no_inverse():
    f = cr.make_field(5, 1)
    z = cr.FFElem(f, (5,))
    assert z.is_zero()
    with pytest.raises(ZeroInverse):
        z.inverse()
    f16 = cr.make_field(5, 16)
    z16 = cr.FFElem(f16, (10, -5) + (0,) * 14)
    assert z16.is_zero()
    with pytest.raises(ZeroInverse):
        z16.inverse()
    ring = cr.make_witt_ring(5, 2, 2)
    assert cr.WittElem(ring, (25, -50)).is_zero()
    for coeffs in ((25, -50), (5, 0), (0, -10)):
        x = cr.WittElem(ring, coeffs)
        assert not x.is_unit()
        with pytest.raises(ZeroInverse):
            x.inverse()
    with pytest.raises(ZeroInverse):
        cr.WittElem(cr.make_witt_ring(5, 1, 3), (250,)).inverse()


def test_elements_are_canonical_by_construction():
    # at the parent these kept their raw tuples: equal to zero by is_zero
    # only, hashed apart from it, and printed as 5^2:2:[30,-1]
    f = cr.make_field(5, 1)
    for z in (cr.element(f, (5,)), cr.FFElem(f, (5,))):
        assert z == cr.ff_zero(f) and hash(z) == hash(cr.ff_zero(f))
        assert z.coeffs == (0,)
    ring = cr.make_witt_ring(5, 2, 2)
    for x in (cr.WittElem(ring, (30, -1)), cr.element(ring, (30, -1))):
        assert x.coeffs == (5, 24)
        assert cr.witt_to_str(x) == "5^2:2:[5,24]"
        assert cr.witt_from_str("5^2:2:[30,-1]") == x
    assert len({cr.element(ring, (c, 0)) for c in (1, 26, -24, 51)}) == 1


def test_witt_ring_arithmetic_round_trip():
    ring = cr.make_witt_ring(5, 2, 3)
    rng = random.Random(7)
    for _ in range(50):
        x = cr.WittElem(ring, (rng.randrange(125), rng.randrange(125)))
        y = cr.WittElem(ring, (rng.randrange(125), rng.randrange(125)))
        assert (x + y) - y == x
        if y.is_unit():
            assert (x * y) / y == x


def test_witt_unit_inverse():
    ring = cr.make_witt_ring(5, 2, 4)
    x = cr.witt_from_int(ring, 7)
    assert x * x.inverse() == cr.witt_one(ring)


def _euclid_newton_inverse(ring, x):
    """The inverse of x as non-constant units get it: the extended Euclid's
    residual inverse, then Newton's y <- y(2 - xy) in element arithmetic."""
    xe = cr.element(ring, x)
    y = cr.element(ring, cr._poly_inverse(x, ring.lifted_modulus, ring.ell))
    two = cr.witt_from_int(ring, 2)
    for _ in range(ring.m.bit_length()):  # each step doubles the correct digits
        y = y * (two - xe * y)
    return y.coeffs


@pytest.mark.parametrize("d", [2, 4, 16, 2048])
def test_constant_unit_inverse_matches_euclid_and_newton(d):
    rng = random.Random(d)
    for m in (1, 2, 3, 7, 12):
        ring = cr.make_witt_ring(5, d, m)
        for c in [1, ring.q - 1] + [rng.randrange(ring.q) for _ in range(6)]:
            x = (c,) + (0,) * (d - 1)
            if c % 5:
                assert cr._unit_inverse(ring, x) == _euclid_newton_inverse(ring, x)
            else:
                with pytest.raises(ZeroInverse):
                    cr._unit_inverse(ring, x)
        with pytest.raises(ZeroInverse):
            cr._unit_inverse(ring, (5 % ring.q,) + (0,) * (d - 1))


def test_reduce_is_ring_map():
    ring = cr.make_witt_ring(5, 2, 3)
    x = cr.WittElem(ring, (17, 93))
    y = cr.WittElem(ring, (44, 6))
    assert (x * y).reduce(2) == x.reduce(2) * y.reduce(2)
    assert (x + y).reduce(1) == x.reduce(1) + y.reduce(1)
    with pytest.raises(ParamMismatch):
        x.reduce(4)


def test_serialization_round_trip():
    ring = cr.make_witt_ring(5, 2, 2)
    for x in list(cr.witt_elements(ring))[:40]:
        assert cr.witt_from_str(cr.witt_to_str(x)) == x


def test_teichmuller_fixed_point_and_reduction():
    # teich(2) mod 25 is 7: the unique lift of 2 with a^4 = 1... a^5 = a
    f = cr.make_field(5, 1)
    t = cr.teichmuller(cr.ff_from_int(f, 2), 2)
    assert t.coeffs[0] == 7
    assert t ** 5 == t
    assert t.residue() == cr.ff_from_int(f, 2)


def test_frobenius_is_ring_endomorphism():
    ring = cr.make_witt_ring(5, 2, 2)
    rng = random.Random(3)
    for _ in range(30):
        x = cr.WittElem(ring, (rng.randrange(25), rng.randrange(25)))
        y = cr.WittElem(ring, (rng.randrange(25), rng.randrange(25)))
        assert cr.witt_frobenius(x * y) == cr.witt_frobenius(x) * cr.witt_frobenius(y)
        assert cr.witt_frobenius(x + y) == cr.witt_frobenius(x) + cr.witt_frobenius(y)


def test_frobenius_reduces_to_power_map():
    ring = cr.make_witt_ring(5, 2, 2)
    for x in list(cr.witt_elements(ring))[::37]:
        assert cr.witt_frobenius(x).residue() == x.residue() ** 5


def test_frobenius_order_is_degree():
    ring = cr.make_witt_ring(5, 2, 2)
    x = cr.WittElem(ring, (3, 11))
    assert cr.witt_frobenius_power(x, 2) == x


def test_hensel_root_quadratic():
    ring = cr.make_witt_ring(5, 1, 4)
    # x^2 + 1 has residual roots 2, 3; the lift of 2 squares to -1 exactly
    f = cr.make_field(5, 1)
    poly = [cr.witt_one(ring), cr.witt_zero(ring), cr.witt_one(ring)]
    r = cr.hensel_root(poly, cr.ff_from_int(f, 2))
    assert r * r == cr.witt_from_int(ring, -1)


def test_hensel_root_rejects_repeated_root():
    ring = cr.make_witt_ring(5, 1, 3)
    f = cr.make_field(5, 1)
    # (x - 2)^2: residual derivative vanishes at 2
    poly = [cr.witt_from_int(ring, 4), cr.witt_from_int(ring, -4),
            cr.witt_one(ring)]
    with pytest.raises(NotASimpleRoot):
        cr.hensel_root(poly, cr.ff_from_int(f, 2))


def test_factorize_multiplies_back():
    f = cr.make_field(5, 2)
    rng = random.Random(11)
    for _ in range(20):
        poly = [cr.FFElem(f, (rng.randrange(5), rng.randrange(5)))
                for _ in range(4)] + [cr.ff_one(f)]
        factors = cr.ff_factorize(poly)
        prod = [cr.ff_one(f)]
        for fac, mult in factors:
            for _ in range(mult):
                prod = cr.poly_mul(prod, fac)
        assert cr.poly_monic(prod) == cr.poly_monic(poly)


def test_roots_of_split_quadratic():
    f = cr.make_field(5, 1)
    # (x - 2)(x - 3)
    poly = [cr.ff_from_int(f, 6), cr.ff_from_int(f, -5), cr.ff_one(f)]
    roots = [r.coeffs[0] for r, _ in cr.ff_roots(poly)]
    assert sorted(roots) == [2, 3]


def test_embed_is_ring_map_and_chain_compatible():
    ring2 = cr.make_witt_ring(5, 2, 2)
    rng = random.Random(5)
    for _ in range(20):
        x = cr.WittElem(ring2, (rng.randrange(25), rng.randrange(25)))
        y = cr.WittElem(ring2, (rng.randrange(25), rng.randrange(25)))
        assert cr.embed(x * y, 4) == cr.embed(x, 4) * cr.embed(y, 4)
        assert cr.embed(x + y, 4) == cr.embed(x, 4) + cr.embed(y, 4)
        # 2 -> 4 -> 8 equals 2 -> 8
        assert cr.embed(cr.embed(x, 4), 8) == cr.embed(x, 8)


@pytest.mark.parametrize("ell, d, d_big, composed", [
    (5, 2, 4, True), (5, 4, 8, True), (5, 8, 16, True), (13, 2, 4, True),
    (13, 4, 8, True),
    # x^4 + x + 1 is not x^2 + 1 composed with x^2: factorization fallback
    (7, 2, 4, False),
])
def test_residual_root_matches_factorization(monkeypatch, ell, d, d_big, composed):
    calls = []
    factorize = cr.ff_factorize
    cr._residual_root.cache_clear()
    monkeypatch.setattr(cr, "ff_factorize",
                        lambda poly: calls.append(1) or factorize(poly))
    root = cr._residual_root(ell, d, d_big)
    assert bool(calls) is not composed
    assert cr._composed(ell, d, d_big) is composed
    big = cr.make_field(ell, d_big)
    oracle = cr.ff_roots([cr.ff_from_int(big, c)
                          for c in cr.make_field(ell, d).modulus])
    assert len(oracle) == d
    if composed:  # X^(D/d), one of the roots
        assert root == cr.ff_gen(big) ** (d_big // d)
        assert root in [r for r, _ in oracle]
    else:  # the smallest root
        assert root == oracle[0][0]
    assert cr._residual_root(ell, d, d_big) is root  # cached per (l, d, D)


@pytest.mark.parametrize("ell, d, d_big", [(5, 8, 16), (13, 8, 16), (23, 16, 32)])
def test_composed_pair_embeds_x_to_its_power(monkeypatch, ell, d, d_big):
    def refuse(*args):
        raise AssertionError("embed on a composed pair took a table or a root")

    for name in ("_monomial_table", "_embedding_powers", "_residual_root"):
        monkeypatch.setattr(cr, name, refuse)
    for m in (1, 3):
        x = cr.witt_gen(cr.make_witt_ring(ell, d, m))
        image = [0] * d_big
        image[d_big // d] = 1
        assert cr.embed(x, d_big).coeffs == tuple(image)


@st.composite
def _composed_cases(draw):
    ell = draw(st.sampled_from((5, 13)))
    d = draw(st.sampled_from((2, 4, 8, 16)))
    m = draw(st.integers(1, 4))
    rings = [cr.make_witt_ring(ell, d * k, m) for k in (1, 2, 4)]

    def elem(r):
        return cr.WittElem(r, tuple(draw(st.integers(0, r.q - 1)) for _ in range(r.d)))

    return rings, elem(rings[0]), elem(rings[0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_composed_cases())
def test_composed_embed_is_a_frobenius_equivariant_ring_map(case):
    (small, mid, big), x, y = case
    assert cr._composed(small.ell, small.d, mid.d)
    assert cr._composed(small.ell, small.d, big.d)
    for ring in (mid, big):
        e = cr.embed(x, ring.d)
        assert cr.embed(x + y, ring.d) == e + cr.embed(y, ring.d)
        assert cr.embed(x * y, ring.d) == e * cr.embed(y, ring.d)
        assert cr.embed(cr.witt_one(small), ring.d) == cr.witt_one(ring)
        assert cr.witt_frobenius(e) == cr.embed(cr.witt_frobenius(x), ring.d)
        assert e == cr._substitute(x, cr._embedding_powers(small, ring), ring)
    # d -> 2d -> 4d equals d -> 4d
    assert cr.embed(cr.embed(x, mid.d), big.d) == cr.embed(x, big.d)


def test_embed_from_degree_one_is_coefficientwise():
    ring1 = cr.make_witt_ring(7, 1, 3)
    x = cr.witt_from_int(ring1, 200)
    assert cr.embed(x, 4) == cr.witt_from_int(cr.make_witt_ring(7, 4, 3), 200)


def test_embed_rejects_non_divisible():
    ring2 = cr.make_witt_ring(5, 2, 2)
    with pytest.raises(NonDivisibleDegrees):
        cr.embed(cr.witt_one(ring2), 3)


def test_in_subring_detects_base_ring():
    ring2 = cr.make_witt_ring(5, 1, 2)
    big = cr.embed(cr.witt_from_int(ring2, 7), 2)
    assert cr.in_subring(big, 1)
    gen = cr.witt_gen(cr.make_witt_ring(5, 2, 2))
    assert not cr.in_subring(gen, 1)


def test_in_subring_reads_coefficients_mod_q():
    # (0, q, 0, 0) is 0 and (q + 1, 0, 0, 0) is 1: both lie in every subring
    for ell in (5, 7):  # binomial modulus x^4 + 2, then x^4 + x + 1
        ring = cr.make_witt_ring(ell, 4, 2)
        assert (cr._monomial_table(ell, 4, 2, 1) is None) is (ell == 7)
        for coeffs in ((0, ring.q, 0, 0), (ring.q + 1, 0, 0, 0)):
            for d0 in (1, 2, 4):
                assert cr.in_subring(cr.WittElem(ring, coeffs), d0)
        assert not cr.in_subring(cr.WittElem(ring, (0, ring.q + 1, 0, 0)), 2)


def test_binomial_criterion_matches_irreducibility():
    for ell in (5, 7, 11, 13):
        for d in range(2, 65):
            for c in range(1, ell):
                modulus = (c,) + (0,) * (d - 1) + (1,)
                assert cr._binomial_is_irreducible(ell, d, c) == \
                    cr._int_poly_is_irreducible(modulus, ell), (ell, d, c)


# nonzero (power, coefficient) pairs of make_field's modulus at 2-power d,
# recorded before the binomial criterion replaced the x^(l^k) test on
# binomials; l = 7 at d = 32, 64 and l = 11 at d = 16, 32 were recorded before
# Ben-Or's test replaced the x^(l^k) test on the other candidates
MAKE_FIELD_CHOICES = {
    (5, 1): [(1, 1)], (13, 1): [(1, 1)], (7, 1): [(1, 1)], (11, 1): [(1, 1)],
    (7, 2): [(0, 1), (2, 1)], (7, 4): [(0, 1), (1, 1), (4, 1)],
    (7, 8): [(0, 3), (1, 1), (8, 1)], (7, 16): [(0, 3), (1, 2), (16, 1)],
    (7, 32): [(0, 4), (1, 1), (32, 1)], (7, 64): [(0, 3), (1, 2), (64, 1)],
    (11, 2): [(0, 1), (2, 1)], (11, 4): [(0, 2), (1, 1), (4, 1)],
    (11, 8): [(0, 4), (1, 1), (8, 1)], (11, 16): [(0, 5), (1, 1), (2, 1), (16, 1)],
    (11, 32): [(0, 9), (1, 1), (2, 8), (32, 1)],
    **{(ell, 2 ** k): [(0, 2), (2 ** k, 1)] for ell in (5, 13) for k in range(1, 11)},
}


def test_make_field_choice_is_unchanged():
    for (ell, d), expect in MAKE_FIELD_CHOICES.items():
        modulus = cr.make_field(ell, d).modulus
        assert [(i, c) for i, c in enumerate(modulus) if c] == expect, (ell, d)


def _hensel_power(x, k):
    for _ in range(k):
        x = cr.hensel_frobenius(x)
    return x


@st.composite
def _frobenius_cases(draw):
    ell = draw(st.sampled_from((5, 7, 13)))
    D = draw(st.sampled_from((1, 2, 4, 8, 16, 32)))
    m = draw(st.integers(1, 6))
    d = draw(st.sampled_from([e for e in (1, 2, 4, 8, 16, 32) if e <= D]))
    ring, small = cr.make_witt_ring(ell, D, m), cr.make_witt_ring(ell, d, m)

    def elem(r):
        return cr.WittElem(r, tuple(draw(st.integers(0, r.q - 1)) for _ in range(r.d)))

    return ring, elem(ring), elem(ring), elem(small), elem(small), draw(st.integers(0, 40))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_frobenius_cases())
def test_monomial_frobenius_matches_hensel_path(case):
    ring, x, y, xs, ys, k = case
    D, d = ring.d, xs.ring.d
    # Frobenius and its powers against the generic Hensel path
    assert cr.witt_frobenius(x) == cr.hensel_frobenius(x)
    assert cr.witt_frobenius_power(x, k) == _hensel_power(x, k % D)
    assert cr.witt_frobenius(x * y) == cr.witt_frobenius(x) * cr.witt_frobenius(y)
    z = x
    for _ in range(D):
        z = cr.witt_frobenius(z)
    assert z == x
    # embed against the Hensel-lifted generator powers, and as a ring map
    e = cr.embed(xs, D)
    if 1 < d < D:
        assert e == cr._substitute(xs, cr._embedding_powers(xs.ring, ring), ring)
    assert cr.embed(xs * ys, D) == e * cr.embed(ys, D)
    # in_subring against Frobenius^d0-fixedness on the generic path
    assert cr.in_subring(e, d)
    for z in (x, e, e + cr.witt_scale(x, ring.ell ** (ring.m - 1))):
        for d0 in [t for t in range(1, D + 1) if D % t == 0]:
            assert cr.in_subring(z, d0) == (_hensel_power(z, d0 % D) == z)


# (l, d, d_big) pairs whose big modulus has no monomial Frobenius table, so
# embed, Frobenius and in_subring all take the Hensel path; 2 -> 8 at l = 7
# composes through degree 4
HENSEL_PATH_CASES = ((7, 1, 4), (7, 2, 4), (7, 2, 8), (7, 4, 8),
                     (5, 1, 3), (5, 2, 6), (5, 3, 6), (11, 4, 8))
# sha256 of _hensel_path_lines(), recorded while Frobenius and embed each
# carried their own Hensel substitution and cache
HENSEL_PATH_SHA256 = "d14c1bb2a1376449a1337bc298de978e6faa10fcbafdd73d64f777c210b735c8"


def _hensel_path_lines():
    """embed, hensel_frobenius, witt_frobenius_power(., 2) and in_subring on
    seeded elements of every HENSEL_PATH_CASES pair at m = 1 and m = 3."""
    rng = random.Random(19)
    lines = []
    for ell, d, d_big in HENSEL_PATH_CASES:
        for m in (1, 3):
            small, big = cr.make_witt_ring(ell, d, m), cr.make_witt_ring(ell, d_big, m)
            assert cr._monomial_table(ell, d_big, m, 1) is None
            for _ in range(3):
                xs = cr.WittElem(small, tuple(rng.randrange(small.q) for _ in range(d)))
                x = cr.WittElem(big, tuple(rng.randrange(big.q) for _ in range(d_big)))
                e = cr.embed(xs, d_big)
                lines.append("(" + ", ".join(cr.witt_to_str(z) for z in (
                    e, cr.hensel_frobenius(xs), cr.hensel_frobenius(x),
                    cr.witt_frobenius_power(x, 2), cr.witt_frobenius_power(e, 2))) + ")")
                lines.append(repr([(cr.in_subring(z, d0), d0) for z in (x, e)
                                   for d0 in range(1, d_big + 1) if d_big % d0 == 0]))
    return lines


def test_hensel_path_outputs_are_pinned():
    import hashlib
    digest = hashlib.sha256("\n".join(_hensel_path_lines()).encode()).hexdigest()
    assert digest == HENSEL_PATH_SHA256


def test_teichmuller_naturality_under_embedding():
    f2 = cr.make_field(5, 2)
    a = cr.ff_gen(f2)
    t_small = cr.teichmuller(a, 3)
    t_big = cr.teichmuller(cr.embed(a, 4), 3)
    assert cr.embed(t_small, 4) == t_big


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from((5, 7)), st.sampled_from((1, 2, 4)), st.integers(1, 4), st.data())
def test_witt_digits_rebuild_the_element(ell, d, m, data):
    ring = cr.make_witt_ring(ell, d, m)
    x = cr.WittElem(ring, tuple(data.draw(st.integers(0, ring.q - 1)) for _ in range(d)))
    acc = cr.witt_zero(ring)
    for k in range(m):
        digit = cr.witt_digit(x, k)
        assert digit.params == ring.residue_field
        assert digit.coeffs == tuple((c // ell ** k) % ell for c in x.coeffs)
        acc = acc + cr.witt_scale(cr.lift_trivial(digit, m), ell ** k)
    assert acc == x


def test_valuation():
    ring = cr.make_witt_ring(5, 2, 3)
    assert cr.witt_from_int(ring, 25).valuation() == 2
    assert cr.witt_from_int(ring, 7).valuation() == 0
    assert cr.witt_zero(ring).valuation() == 3


# ---------------------------------------------------------------------------
# kernel oracles: plain schoolbook arithmetic written here, never calling the
# library's product or inverse


def _oracle_mulmod(a, b, modulus, q):
    """Schoolbook product of coefficient tuples mod (monic modulus, q)."""
    d = len(modulus) - 1
    prod = [0] * (2 * d - 1) if d > 1 else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % q
    # monic modulus: x^d == -(lower part)
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(d):
                prod[i - d + j] = (prod[i - d + j] - c * modulus[j]) % q
    return tuple(c % q for c in prod[:d])


def _oracle_field_inverse(a, modulus, ell):
    """a^(l^d - 2) by square and multiply on schoolbook products."""
    d = len(modulus) - 1
    result = (1,) + (0,) * (d - 1)
    base = tuple(c % ell for c in a)
    e = ell ** d - 2
    while e:
        if e & 1:
            result = _oracle_mulmod(result, base, modulus, ell)
        base = _oracle_mulmod(base, base, modulus, ell)
        e >>= 1
    return result


def test_kernel_cases_cover_a_non_binomial_modulus():
    modulus = cr.make_field(7, 4).modulus
    assert sum(1 for c in modulus[:-1] if c) > 1


@st.composite
def _kernel_cases(draw):
    ell = draw(st.sampled_from([5, 7, 13]))
    d = draw(st.sampled_from([1, 2, 3, 4, 8, 16]))
    m = draw(st.sampled_from([1, 3, 30]))
    q = ell ** m
    # unreduced and negative coefficients, which the constructors reduce mod q
    coeff = st.one_of(st.integers(0, q - 1), st.integers(-3 * q, 3 * q))
    a = tuple(draw(st.lists(coeff, min_size=d, max_size=d)))
    b = tuple(draw(st.lists(coeff, min_size=d, max_size=d)))
    return ell, d, m, a, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_products_match_schoolbook(case):
    ell, d, m, a, b = case
    f = cr.make_field(ell, d)
    ring = cr.make_witt_ring(ell, d, m)
    q = ring.q
    expect = _oracle_mulmod(a, b, f.modulus, q)
    assert cr._mul(ring, tuple(c % q for c in a), tuple(c % q for c in b)) == expect
    assert (cr.WittElem(ring, a) * cr.WittElem(ring, b)).coeffs == expect
    assert (cr.FFElem(f, a) * cr.FFElem(f, b)).coeffs == \
        _oracle_mulmod(a, b, f.modulus, ell)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_inverses_match_oracle(case):
    ell, d, m, a, _ = case
    f = cr.make_field(ell, d)
    x = cr.FFElem(f, a)
    if x.is_zero():
        with pytest.raises(ZeroInverse):
            x.inverse()
    else:
        assert x.inverse().coeffs == _oracle_field_inverse(a, f.modulus, ell)
    ring = cr.make_witt_ring(ell, d, m)
    y = cr.WittElem(ring, a)
    if not y.is_unit():
        with pytest.raises(ZeroInverse):
            y.inverse()
        return
    # the inverse in (Z/l^m)[x]/(f) is unique: its schoolbook product is 1
    inv = y.inverse().coeffs
    assert all(0 <= c < ring.q for c in inv)
    assert _oracle_mulmod(a, inv, ring.lifted_modulus, ring.q) == \
        (1,) + (0,) * (d - 1)


@st.composite
def _multiword_cases(draw):
    # at 5^28 and 5^40 a product coefficient needs three or four 64-bit words
    m = draw(st.sampled_from([28, 40]))
    d = draw(st.sampled_from([1, 2, 3, 8]))
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))
    q = 5 ** m
    coeff = st.one_of(st.integers(0, q - 1), st.just(q - 1))

    def entries(count):
        return [tuple(draw(st.lists(coeff, min_size=d, max_size=d))) for _ in range(count)]
    return m, d, inner, cols, entries(rows * inner), entries(inner * cols)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_multiword_cases())
def test_multiword_slots_match_schoolbook(case):
    m, d, inner, cols, a, b = case
    ring = cr.make_witt_ring(5, d, m)
    modulus, q = ring.lifted_modulus, ring.q
    if d > 1:
        assert cr._kronecker_plan(modulus, q, inner)[3] >= 24
    assert cr._mul(ring, a[0], b[0]) == _oracle_mulmod(a[0], b[0], modulus, q)
    expect = []
    for i in range(0, len(a), inner):
        for j in range(cols):
            terms = [_oracle_mulmod(a[i + k], b[k * cols + j], modulus, q) for k in range(inner)]
            expect.append(tuple(sum(cs) % q for cs in zip(*terms)))
    assert list(cr._matmul(ring, a, b, inner, cols)) == expect


def _oracle_is_irreducible(f, ell):
    """Trial division of the monic f by every monic polynomial of degree
    1 .. deg(f) / 2 over F_ell."""
    d = len(f) - 1
    for k in range(1, d // 2 + 1):
        for low in itertools.product(range(ell), repeat=k):
            rem = list(f)
            for i in range(d, k - 1, -1):  # divide by the monic low + x^k
                c = rem[i] % ell
                for j, gj in enumerate(low):
                    rem[i - k + j] -= c * gj
            if all(c % ell == 0 for c in rem[:k]):
                return False
    return True


def test_ben_or_matches_trial_division():
    for ell in (5, 7):
        for d in range(1, 5):
            for low in itertools.product(range(ell), repeat=d):
                f = (*low, 1)
                assert cr._int_poly_is_irreducible(f, ell) == \
                    _oracle_is_irreducible(f, ell), (ell, f)


def _oracle_rref(rows):
    """Reduced row echelon form updating every column of every row."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


@st.composite
def _sparse_matrices(draw):
    d = draw(st.sampled_from([1, 2, 4]))
    f = cr.make_field(5, d)
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 9))
    entry = st.one_of(st.just((0,) * d),
                      st.lists(st.integers(0, 4), min_size=d, max_size=d).map(tuple))
    rows = [[cr.FFElem(f, draw(entry)) for _ in range(ncols)] for _ in range(nrows)]
    # repeat some rows as combinations of others so that ranks drop
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        k = cr.FFElem(f, draw(entry))
        rows.append([x + k * y for x, y in zip(rows[i], rows[j])])
    return f, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sparse_matrices())
def test_rref_and_nullspace_match_full_row_update(case):
    # linalg runs on canonical values; the oracle stays on elements
    f, rows = case
    values = [[x.coeffs for x in r] for r in rows]
    before = [list(r) for r in values]
    red, pivots = rref(values, f)
    expect, expect_pivots = _oracle_rref(rows)
    assert values == before  # the input is not modified
    assert pivots == expect_pivots
    assert red == [[x.coeffs for x in r] for r in expect]
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in expect_pivots]
    basis = nullspace(values, f)
    assert len(basis) == len(free)
    for vec, fc in zip(basis, free):
        assert vec[fc] == cr.ff_one(f).coeffs
        for c in free:
            if c != fc:
                assert not any(vec[c])
        for i, pc in enumerate(expect_pivots):
            assert vec[pc] == (-expect[i][fc]).coeffs


def _dot(row, x):
    return functools.reduce(lambda s, t: s + t, [a * b for a, b in zip(row, x)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sparse_matrices(), st.data())
def test_solve_matches_oracle_consistency(case, data):
    # a random rhs, or A x0 for a random x0 (always consistent); checked
    # with element arithmetic against the oracle's echelon form
    f, rows = case
    ncols = len(rows[0])
    elem = st.lists(st.integers(0, 4), min_size=f.d, max_size=f.d).map(
        lambda cs: cr.element(f, tuple(cs)))
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(elem, min_size=ncols, max_size=ncols))
        rhs = [_dot(r, x0) for r in rows]
    else:
        rhs = data.draw(st.lists(elem, min_size=len(rows), max_size=len(rows)))
    _, pivots = _oracle_rref([r + [b] for r, b in zip(rows, rhs)])
    x = solve([[a.coeffs for a in r] for r in rows], [b.coeffs for b in rhs], f)
    if ncols in pivots:
        assert x is None
        return
    assert len(x) == ncols and all(0 <= c < 5 for v in x for c in v)
    assert [_dot(r, [cr.element(f, v) for v in x]) for r in rows] == rhs


# ---------------------------------------------------------------------------
# one ring type: F_{l^d} is W(F_{l^d})/l, and FFElem is WittElem at m = 1


def test_element_picks_the_class_from_the_ring():
    f, ring = cr.make_field(5, 2), cr.make_witt_ring(5, 2, 3)
    x, y = cr.element(f, (1, 2)), cr.element(ring, (1, 2))
    assert type(x) is cr.FFElem and x.ring is f and x.params is f
    assert type(y) is cr.WittElem and y.ring is ring


@pytest.mark.parametrize("make", [cr.witt_zero, cr.witt_one, cr.witt_gen,
                                  lambda ring: cr.witt_from_int(ring, 7)],
                         ids=["zero", "one", "gen", "from_int"])
def test_witt_constructors_over_a_field_build_field_elements(make):
    for d in (1, 3):
        f = cr.make_field(5, d)
        x = make(f)
        assert type(x) is cr.FFElem and x.ring is f
        ring = cr.make_witt_ring(5, d, 2)
        assert type(make(ring)) is cr.WittElem


def test_field_constructors_are_the_witt_constructors():
    assert cr.ff_zero is cr.witt_zero
    assert cr.ff_one is cr.witt_one
    assert cr.ff_from_int is cr.witt_from_int
    assert cr.ff_gen is cr.witt_gen


@pytest.mark.parametrize("ell, d", [(5, 1), (5, 2), (7, 3), (13, 4)])
def test_the_field_is_the_witt_ring_at_m_1(ell, d):
    f = cr.make_field(ell, d)
    assert cr.make_witt_ring(ell, d, 1) is f
    assert f.m == 1 and f.q == ell and f.modulus == f.lifted_modulus
    assert repr(f) == f"GF({ell}^{d})"
    assert cr.make_witt_ring(ell, d, 3).residue_field is f


def test_residue_and_reduce_1_of_a_field_element_are_the_element():
    f = cr.make_field(5, 2)
    x = cr.ff_gen(f)
    for y in (x.residue(), x.reduce(1)):
        assert type(y) is cr.FFElem and y.ring is f and y == x


def test_witt_literal_at_m_1_is_a_field_element():
    x = cr.witt_from_str("5^1:2:[0,1]")
    assert type(x) is cr.FFElem and x == cr.ff_gen(cr.make_field(5, 2))
    assert cr.witt_to_str(x) == "5^1:2:[0,1]"


def test_element_equality_does_not_depend_on_the_class():
    f = cr.make_field(5, 2)
    w, x = cr.WittElem(f, (3, 1)), cr.FFElem(f, (3, 1))
    assert w == x and x == w and hash(w) == hash(x)
    assert len({w, x}) == 1
    assert w != cr.FFElem(f, (3, 2))
    assert cr.WittElem(cr.make_witt_ring(5, 2, 2), (3, 1)) != x
    assert x != (3, 1)


def test_embed_of_a_field_element_is_embed_at_m_1():
    rng = random.Random(5)
    for ell, d, d_big in ((5, 1, 4), (5, 2, 8), (7, 2, 4), (5, 3, 6)):
        f = cr.make_field(ell, d)
        for _ in range(4):
            a = cr.element(f, tuple(rng.randrange(ell) for _ in range(d)))
            e = cr.embed(a, d_big)
            assert e == cr.embed(cr.lift_trivial(a, 1), d_big)
            assert type(e) is cr.FFElem and e.ring is cr.make_field(ell, d_big)


def test_field_and_witt_ring_at_m_1_combine_and_other_rings_do_not():
    x = cr.ff_gen(cr.make_field(5, 2))
    y = cr.witt_gen(cr.make_witt_ring(5, 2, 1))
    assert x + y == x * cr.ff_from_int(x.ring, 2)
    assert y * x == x * x and x - y == cr.ff_zero(x.ring)
    for other in (cr.witt_gen(cr.make_witt_ring(5, 2, 2)), cr.ff_gen(cr.make_field(5, 4))):
        for op in ("__add__", "__sub__", "__mul__"):
            with pytest.raises(ParamMismatch):
                getattr(x, op)(other)
            with pytest.raises(ParamMismatch):
                getattr(other, op)(x)


_TRACED_ARITHMETIC = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
import wittlift.coeffring as cr
f, ring = cr.make_field(5, 4), cr.make_witt_ring(5, 4, 2)
x, y = cr.FFElem(f, (1, 2, 3, 4)), cr.FFElem(f, (0, 1, 0, 2))
u, v = cr.WittElem(ring, (6, 0, 11, 3)), cr.WittElem(ring, (1, 5, 0, 24))
x * y, x * x, y * x, x.inverse(), y.inverse()
u * v, v * u, u.inverse()
w = cr.witt_gen(cr.make_witt_ring(5, 4, 1))
w * x, w * w
print(json.dumps({f"{agg}.d{d}": calls for (agg, d), (calls, _) in tracer.hot.items()}))
"""


def test_tracer_counts_each_element_product_and_inverse_once():
    """The benchmark tracer wraps FFElem's and WittElem's own __mul__ and
    inverse: 3 + 2 field and 2 + 1 Witt-ring operations at d = 4, and two
    products over make_witt_ring(5, 4, 1), the field itself, count as 7
    products and 3 inverses."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cr.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_ARITHMETIC,
                           str(root / "benchmarks" / "tracing.py")],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout) == {"mul.d4": 7, "inverse.d4": 3}
