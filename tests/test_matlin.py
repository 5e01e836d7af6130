"""Tests for the matrix toolkit: diagonalization, Jordan, tame relations,
split diagonals, and the fraction-field lattice algorithms."""

import functools
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittlift.coeffring as cr
from helpers_bruteforce import conjugate_is_integral, fraction_integral_model, matrix_order
from wittlift.errors import (
    DoesNotSpan,
    EigenvaluesNotInField,
    InvalidQuery,
    NonDivisibleDegrees,
    ParamMismatch,
    RepeatedResidualEigenvalues,
    ResidualImageTooSmall,
    Singular,
    UnboundedGroup,
    Undecided,
)
from wittlift.matlin import (
    KElem,
    Mat,
    char_poly,
    check_tame_relation,
    closure_word,
    find_split_diagonal,
    group_closure,
    hensel_diagonalize,
    integral_model,
    jordan_decompose,
    kelem_from_rational,
    module_basis,
    ratio_pair,
    splitting_roots,
)

R54 = cr.make_witt_ring(5, 1, 4)
F5 = cr.make_field(5, 1)


def random_invertible(ring, rng, n=2):
    while True:
        m = Mat.from_rows(ring, [[cr.WittElem(ring, tuple(
            rng.randrange(ring.q) for _ in range(ring.d)))
            for _ in range(n)] for _ in range(n)])
        if m.det().is_unit():
            return m


def test_matrix_inverse_and_power():
    g = Mat.from_ints(R54, [[2, 1], [0, 3]])
    assert (g * g.inverse()).is_identity()
    assert g ** 0 == Mat.identity(R54, 2)
    assert g ** -2 == (g * g).inverse()


def test_matrix_power_products(monkeypatch):
    rng = random.Random(17)
    g = random_invertible(R54, rng)
    expect = Mat.identity(R54, 2)
    products = []
    mul = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    for e in range(1, 20):
        expect = mul(expect, g)
        products.clear()
        assert g ** e == expect
        # one squaring per bit below the top, one product per further set bit
        assert len(products) == e.bit_length() - 1 + bin(e).count("1") - 1
    assert g ** 1 is g


def test_singular_matrix_has_no_inverse():
    g = Mat.from_ints(R54, [[5, 0], [0, 1]])
    with pytest.raises(Singular):
        g.inverse()


def test_mat_equality_is_canonical():
    five, six = cr.FFElem(F5, (5,)), cr.FFElem(F5, (6,))
    assert Mat.from_rows(F5, [[five, five], [five, five]]) == Mat.zero(F5, 2)
    g = Mat.from_rows(F5, [[six, five], [cr.FFElem(F5, (-5,)), cr.ff_one(F5)]])
    assert g == Mat.identity(F5, 2)
    assert g.is_identity() and matrix_order(g) == 1
    ring = cr.make_witt_ring(5, 2, 3)
    x = Mat.from_rows(ring, [[cr.WittElem(ring, (126, -125))]])
    assert x == Mat.identity(ring, 1)
    assert Mat.from_ints(ring, [[-124]]) == x


def test_mat_constructor_reduces_its_entries():
    # Mat(...) used to keep (7,) over F_5, unequal to the reduced (2,)
    assert Mat(F5, 1, ((7,),)) == Mat.from_ints(F5, [[2]])
    ring = cr.make_witt_ring(5, 2, 3)
    assert Mat(ring, 1, ((126, -125),)).entries == ((1, 0),)


def test_lift_trivial_refuses_a_lower_precision():
    ring = cr.make_witt_ring(5, 2, 2)
    g = Mat.from_ints(ring, [[7, 1], [24, 1]])
    with pytest.raises(ParamMismatch):
        g.lift_trivial(1)
    for m in (2, 3, 5):
        lifted = g.lift_trivial(m)
        assert lifted.ring is cr.make_witt_ring(5, 2, m)
        assert lifted.entries == g.entries and lifted.reduce(2) == g


def test_mat_embed_is_the_entrywise_embed():
    rng = random.Random(11)
    # from degree 1, on composed pairs and on moduli that are not composed
    for ell, d, d_big, m in ((5, 1, 4, 2), (5, 2, 8, 3), (7, 2, 4, 2), (5, 3, 6, 2), (7, 4, 8, 1)):
        ring = cr.make_witt_ring(ell, d, m)
        g = Mat.from_rows(ring, [[cr.element(ring, tuple(rng.randrange(ring.q) for _ in range(d)))
                                  for _ in range(2)] for _ in range(2)])
        e = g.embed(d_big)
        assert e.ring is cr.make_witt_ring(ell, d_big, m)
        assert e.rows == tuple(tuple(cr.embed(a, d_big) for a in r) for r in g.rows)
        assert g.embed(d) == g
    with pytest.raises(NonDivisibleDegrees):
        Mat.identity(cr.make_witt_ring(5, 2, 2), 2).embed(3)


# ---------------------------------------------------------------------------
# Mat on coefficient tuples against an element-object oracle


def _elem(ring, coeffs):
    return (cr.FFElem if ring.m == 1 else cr.WittElem)(ring, coeffs)


def _canon(ring, x):
    q = ring.ell if ring.m == 1 else ring.q
    return tuple(c % q for c in x.coeffs)


def _canon_rows(ring, rows):
    return [[_canon(ring, x) for x in r] for r in rows]


def _o_unit(x):
    return not x.is_zero() if isinstance(x, cr.FFElem) else x.is_unit()


def _o_mul(a, b):
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = a[i][0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _o_det(a):
    n = len(a)
    acc = None
    for perm in itertools.permutations(range(n)):
        term = a[0][perm[0]]
        for i in range(1, n):
            term = term * a[i][perm[i]]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        if inversions % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _o_identity(ring, n):
    one, zero = _elem(ring, (1,) + (0,) * (ring.d - 1)), _elem(ring, (0,) * ring.d)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _o_inverse(ring, a):
    """Gaussian elimination with unit pivots on element objects."""
    n = len(a)
    a = [list(r) for r in a]
    inv = _o_identity(ring, n)
    for c in range(n):
        pr = next((i for i in range(c, n) if _o_unit(a[i][c])), None)
        if pr is None:
            raise Singular("matrix is not invertible")
        a[c], a[pr] = a[pr], a[c]
        inv[c], inv[pr] = inv[pr], inv[c]
        piv = a[c][c].inverse()
        a[c] = [v * piv for v in a[c]]
        inv[c] = [v * piv for v in inv[c]]
        for i in range(n):
            if i != c:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[c])]
    return inv


def _o_pow(ring, a, e):
    if e < 0:
        a, e = _o_inverse(ring, a), -e
    acc = _o_identity(ring, len(a))
    for _ in range(e):
        acc = _o_mul(acc, a)
    return acc


@st.composite
def _mat_cases(draw):
    ell = draw(st.sampled_from([5, 7, 13]))
    d = draw(st.sampled_from([1, 2, 3, 4, 16]))
    m = draw(st.sampled_from([1, 3, 6]))
    ring = cr.make_field(ell, d) if draw(st.booleans()) else cr.make_witt_ring(ell, d, m)
    q = ring.ell if ring.m == 1 else ring.q
    n = draw(st.sampled_from([1, 2, 3]))
    # unreduced and negative coefficients, as the element constructors accept
    coeff = st.one_of(st.integers(0, q - 1), st.integers(-3 * q, 3 * q))

    def draw_mat():
        return [[_elem(ring, tuple(draw(st.lists(coeff, min_size=d, max_size=d))))
                 for _ in range(n)] for _ in range(n)]
    a, b = draw_mat(), draw_mat()
    if draw(st.booleans()):
        # l times the first row: the determinant is not a unit
        a[0] = [_elem(ring, tuple(ell * c for c in x.coeffs)) for x in a[0]]
    return ring, a, b, draw(st.integers(-3, 4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mat_cases())
def test_mat_matches_element_oracle(case):
    ring, a_el, b_el, e = case
    a, b = Mat.from_rows(ring, a_el), Mat.from_rows(ring, b_el)
    assert _canon_rows(ring, a.rows) == _canon_rows(ring, a_el)
    assert _canon_rows(ring, (a * b).rows) == _canon_rows(ring, _o_mul(a_el, b_el))
    assert _canon_rows(ring, (a + b).rows) == _canon_rows(
        ring, [[x + y for x, y in zip(r, s)] for r, s in zip(a_el, b_el)])
    assert _canon_rows(ring, (a - b).rows) == _canon_rows(
        ring, [[x - y for x, y in zip(r, s)] for r, s in zip(a_el, b_el)])
    assert _canon_rows(ring, a.transpose().rows) == _canon_rows(ring, list(zip(*a_el)))
    # the matrix times a column of canonical values, as cohomology runs it
    col = [[r[0]] for r in b_el]
    assert [list(cr._matmul(ring, a.entries, [_canon(ring, x) for (x,) in col], a.n, 1))] == \
        _canon_rows(ring, [[x for (x,) in _o_mul(a_el, col)]])
    det = _o_det(a_el)
    assert _canon(ring, a.det()) == _canon(ring, det)
    if _o_unit(det):
        assert _canon_rows(ring, a.inverse().rows) == _canon_rows(ring, _o_inverse(ring, a_el))
    else:
        with pytest.raises(Singular):
            a.inverse()
        with pytest.raises(Singular):
            _o_inverse(ring, a_el)
    if e >= 0 or _o_unit(det):
        assert _canon_rows(ring, (a ** e).rows) == _canon_rows(ring, _o_pow(ring, a_el, e))


@st.composite
def _format_cases(draw):
    ell = draw(st.sampled_from([5, 7]))
    d = draw(st.sampled_from([1, 2, 4]))
    ring = cr.make_field(ell, d) if draw(st.booleans()) else \
        cr.make_witt_ring(ell, d, draw(st.sampled_from([1, 3])))
    q = ring.ell if ring.m == 1 else ring.q
    n = draw(st.sampled_from([1, 2, 3]))
    coeff = st.integers(-2 * q, 2 * q)

    def draw_mat():
        return [[_elem(ring, tuple(draw(st.lists(coeff, min_size=d, max_size=d))))
                 for _ in range(n)] for _ in range(n)]
    return ring, draw_mat(), draw_mat()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_format_cases())
def test_mat_entries_are_the_elements_reduced_coeffs(case):
    # one entry format at every d: the elements' coefficient tuples mod q
    ring, a_el, b_el = case
    a, b = Mat.from_rows(ring, a_el), Mat.from_rows(ring, b_el)
    assert a.entries == tuple(_canon(ring, x) for r in a_el for x in r)
    assert tuple(x.coeffs for r in a.rows for x in r) == a.entries
    assert Mat.from_rows(ring, a.rows) == a
    assert (a + b).entries == tuple(_canon(ring, x + y)
                                    for r, s in zip(a_el, b_el) for x, y in zip(r, s))
    assert (a * b).entries == tuple(_canon(ring, x) for r in _o_mul(a_el, b_el) for x in r)
    det = _o_det(a_el)
    assert a.det().coeffs == _canon(ring, det)
    trace = functools.reduce(lambda x, y: x + y, [a_el[i][i] for i in range(len(a_el))])
    assert a.trace().coeffs == _canon(ring, trace)
    if _o_unit(det):
        assert a.inverse().entries == tuple(
            _canon(ring, x) for r in _o_inverse(ring, a_el) for x in r)
    else:
        with pytest.raises(Singular):
            a.inverse()


def test_mat_product_worst_case_slots():
    # every entry q - 1 at n = 3, d = 16: a product coefficient sums to
    # 3 * 16 * (q - 1)^2, and at q = 13^8 only that factor 3 takes it past
    # the 64 bits of 16 * (q - 1)^2
    ring = cr.make_witt_ring(13, 16, 8)
    el = [[cr.WittElem(ring, (ring.q - 1,) * 16)] * 3] * 3
    a = Mat.from_rows(ring, el)
    assert _canon_rows(ring, (a * a).rows) == _canon_rows(ring, _o_mul(el, el))
    assert a.det() == _o_det(el) == cr.witt_zero(ring)
    with pytest.raises(Singular):
        a.inverse()
    with pytest.raises(Singular):
        _o_inverse(ring, el)


def test_char_poly_of_triangular():
    g = Mat.from_ints(R54, [[2, 1], [0, 3]])
    cp = char_poly(g)
    # (x-2)(x-3) = 6 - 5x + x^2
    assert cp[0] == cr.witt_from_int(R54, 6)
    assert cp[1] == cr.witt_from_int(R54, -5)
    assert cp[2] == cr.witt_one(R54)


def _random_mat(ring, rng, n):
    mod = ring.ell if ring.m == 1 else ring.q
    return Mat.from_rows(ring, [[_elem(ring, tuple(rng.randrange(mod) for _ in range(ring.d)))
                                 for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("ring", [F5, cr.make_field(5, 2), cr.make_witt_ring(5, 2, 4),
                                  cr.make_witt_ring(7, 3, 3)],
                         ids=["F5", "F25", "W(F25)/5^4", "W(F343)/7^3"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_char_poly_matches_laplace_det(ring, n):
    # sum_k c_k t^k = det(t I - g) at t = 0..n, det by Laplace expansion
    rng = random.Random(n)
    for _ in range(4):
        g = _random_mat(ring, rng, n)
        cp = char_poly(g)
        assert len(cp) == n + 1 and cp[n] == Mat.identity(ring, 1).rows[0][0]
        for t in range(n + 1):
            tt = Mat.from_ints(ring, [[t]]).rows[0][0]
            value = cp[n]
            for c in reversed(cp[:n]):
                value = value * tt + c
            assert value == (Mat.identity(ring, n).scale(tt) - g).det()


def test_char_poly_needs_n_below_ell():
    assert len(char_poly(Mat.identity(F5, 4))) == 5
    with pytest.raises(InvalidQuery, match="needs n < l, got n = 5"):
        char_poly(Mat.identity(F5, 5))


def _random_gl(field, rng, n, count):
    out = []
    while len(out) < count:
        g = _random_mat(field, rng, n)
        if not g.det().is_zero():
            out.append(g)
    return out


def test_splitting_roots_vieta():
    # the roots multiply to det and add up to the trace, in the splitting field
    gl2 = [Mat.from_ints(F5, [[a, b], [c, d]])
           for a, b, c, d in itertools.product(range(5), repeat=4) if (a * d - b * c) % 5]
    degrees = set()
    for g in gl2 + _random_gl(F5, random.Random(3), 3, 60):
        field, roots = splitting_roots(char_poly(g))
        degrees.add(field.d)
        lams = [r for r, mult in roots for _ in range(mult)]
        assert len(lams) == g.n
        assert [r for r, _ in roots] == sorted((r for r, _ in roots), key=cr.FFElem.sort_key)
        prod, total = cr.ff_one(field), cr.ff_zero(field)
        for lam in lams:
            prod, total = prod * lam, total + lam
        assert prod == cr.embed(g.det(), field.d)
        assert total == cr.embed(g.trace(), field.d)
    assert degrees == {1, 2, 3}


def test_ratio_pair_is_index_based():
    two, four = cr.ff_from_int(F5, 2), cr.ff_from_int(F5, 4)
    assert ratio_pair([two, four], two) == (four, two)
    assert ratio_pair([two, two], cr.ff_one(F5)) == (two, two)
    assert ratio_pair([two], cr.ff_one(F5)) is None


def test_hensel_diagonalize_reconstructs():
    g = Mat.from_ints(R54, [[2, 1], [0, 3]])
    p, d = hensel_diagonalize(g)
    assert p * d * p.inverse() == g
    assert d.rows[0][1].is_zero() and d.rows[1][0].is_zero()


def test_hensel_diagonalize_error_cases():
    with pytest.raises(RepeatedResidualEigenvalues):
        hensel_diagonalize(Mat.from_ints(R54, [[2, 1], [0, 2]]))
    with pytest.raises(EigenvaluesNotInField):
        hensel_diagonalize(Mat.from_ints(R54, [[0, -2], [1, 0]]))


def test_jordan_decompose_unipotent_times_semisimple():
    y = Mat.from_ints(F5, [[2, 1], [0, 2]])
    y_s, y_u = jordan_decompose(y)
    assert y_s * y_u == y
    assert y_u * y_s == y  # the parts commute
    assert y_s == Mat.from_ints(F5, [[2, 0], [0, 2]])
    assert matrix_order(y_u) in (1, 5)


def test_jordan_of_semisimple_is_itself():
    y = Mat.from_ints(F5, [[2, 0], [0, 3]])
    y_s, y_u = jordan_decompose(y)
    assert y_s == y and y_u.is_identity()


def _jordan_by_order(y):
    # y_s = y^(l^a u), l^a u = 1 mod e', from the order e = l^a e' of y
    e, la = matrix_order(y), 1
    while e % (la * y.ring.ell) == 0:
        la *= y.ring.ell
    return y ** (la * pow(la, -1, e // la)) if e > la else Mat.identity(y.ring, y.n)


def test_jordan_decompose_matches_the_order_formula():
    rng, f25 = random.Random(11), cr.make_field(5, 2)
    mats = [Mat.from_ints(f25, [[1, 1], [0, 1]]),
            Mat.from_ints(F5, [[3, 1, 0], [0, 3, 1], [0, 0, 3]])]
    for y in mats + _random_gl(f25, rng, 2, 40) + _random_gl(F5, rng, 3, 40):
        y_s, y_u = jordan_decompose(y)
        assert y_s == _jordan_by_order(y)
        assert y_s * y_u == y and y_u * y_s == y


def test_jordan_decompose_needs_a_field():
    w51 = cr.make_witt_ring(5, 1, 1)
    assert jordan_decompose(Mat.from_ints(w51, [[2, 1], [0, 2]]))[0] == \
        Mat.from_ints(w51, [[2, 0], [0, 2]])
    with pytest.raises(ParamMismatch, match="over a field"):
        jordan_decompose(Mat.from_ints(R54, [[2, 1], [0, 2]]))


def test_tame_relation_branches():
    x = Mat.from_ints(F5, [[2, 0], [0, 1]])
    y = Mat.from_ints(F5, [[1, 1], [0, 1]])
    br = check_tame_relation(x, y, 2)
    assert br.kind == "eigenvalue_ratio"
    lam1, lam2 = br.pair
    assert lam1 == lam2 * cr.ff_from_int(lam1.params, 2)

    y2 = Mat.from_ints(F5, [[2, 0], [0, 2]])
    br2 = check_tame_relation(Mat.from_ints(F5, [[1, 2], [3, 4]]), y2, 5)
    assert br2.kind == "semisimple_finite_order"

    br3 = check_tame_relation(x, y2, 2)
    assert br3.kind == "not_conjugate_relation"


def test_splitting_roots_degree():
    poly = [cr.ff_from_int(F5, 2), cr.ff_zero(F5), cr.ff_one(F5)]  # x^2 + 2
    fld, roots = splitting_roots(poly)
    assert fld.d == 2
    assert len(roots) == 2


def test_find_split_diagonal_worked_instance():
    ring = cr.make_witt_ring(5, 1, 2)
    gens = [Mat.from_ints(ring, [[2, 0], [0, 1]]),
            Mat.from_ints(ring, [[1, 1], [0, 1]]),
            Mat.from_ints(ring, [[1, 0], [1, 1]])]
    c, d = find_split_diagonal(gens)
    a = d.rows[0][0]
    assert d.rows[1][1] == cr.witt_one(ring)
    assert cr.in_subring(a, 1)
    assert a.residue().coeffs[0] not in (0, 1, 4)
    # the worked instance: the first split diagonal found reduces to diag(2,1)
    assert a.coeffs[0] == 7


def test_find_split_diagonal_takes_no_eigenvalue_path(monkeypatch):
    # the word's residue diag(abar, 1) gives the eigenvalues of its
    # l^(m-1) power: no characteristic polynomial, factorization or root
    def refuse(*args):
        raise AssertionError("an eigenvalue path ran")
    for name in ("hensel_diagonalize", "lifted_eigenvalues", "char_poly",
                 "splitting_roots"):
        monkeypatch.setattr(f"wittlift.matlin.{name}", refuse)
    monkeypatch.setattr(cr, "ff_factorize", refuse)
    monkeypatch.setattr(cr, "hensel_root", refuse)
    ring = cr.make_witt_ring(5, 1, 2)
    gens = [Mat.from_ints(ring, [[2, 0], [0, 1]]),
            Mat.from_ints(ring, [[1, 1], [0, 1]]),
            Mat.from_ints(ring, [[1, 0], [1, 1]])]
    c, d = find_split_diagonal(gens)
    assert d == Mat.from_ints(ring, [[7, 0], [0, 1]])
    assert c * d * c.inverse() == gens[0] ** 5


def test_find_split_diagonal_needs_full_image():
    ring = cr.make_witt_ring(5, 1, 2)
    with pytest.raises(ResidualImageTooSmall):
        find_split_diagonal([Mat.from_ints(ring, [[1, 1], [0, 1]])])


def test_find_split_diagonal_residue_outside_prime_field(monkeypatch):
    # diag(x, 1) over W(F_25)/25 has a residue outside F_5: refused from the
    # generators alone, without closing them in GL_2(F_25)
    ring = cr.make_witt_ring(5, 2, 2)
    zero, one = cr.witt_zero(ring), cr.witt_one(ring)
    x = cr.WittElem(ring, (0, 1))
    gens = [Mat.from_ints(ring, [[1, 1], [0, 1]]),
            Mat.from_rows(ring, [[x, zero], [zero, one]])]

    def no_closure(*args):
        raise AssertionError("closure enumerated")
    monkeypatch.setattr("wittlift.matlin.group_closure", no_closure)
    with pytest.raises(ResidualImageTooSmall,
                       match="generator 1 has a residue entry outside F_5"):
        find_split_diagonal(gens)


def test_find_split_diagonal_refuses_large_ell_before_closing(monkeypatch):
    # |GL_2(F_59)| = 11 908 560 > ENUM_LIMIT: refused before any BFS
    def no_closure(*args):
        raise AssertionError("closure enumerated")
    monkeypatch.setattr("wittlift.matlin.group_closure", no_closure)
    ring = cr.make_witt_ring(59, 1, 2)
    gens = [Mat.from_ints(ring, [[2, 0], [0, 1]]), Mat.from_ints(ring, [[1, 1], [0, 1]])]
    with pytest.raises(InvalidQuery, match="11908560 exceeds ENUM_LIMIT = 10000000"):
        find_split_diagonal(gens)


# ---------------------------------------------------------------------------
# group closure


def _imat_mul(x, y, n, mod):
    return tuple(sum(x[i * n + t] * y[t * n + j] for t in range(n)) % mod
                 for i in range(n) for j in range(n))


def _first_words_by_length(gens, mod):
    """Each element's lexicographically smallest shortest word, found by
    evaluating every word of each length in lexicographic order."""
    n = len(gens[0])
    flat = [tuple(v % mod for r in g for v in r) for g in gens]
    ident = tuple(int(i == j) for i in range(n) for j in range(n))
    first = {ident: ()}
    layer = [((), ident)]  # every word of the current length, in order
    while True:
        layer = [(w + (gi,), _imat_mul(x, g, n, mod))
                 for w, x in layer for gi, g in enumerate(flat)]
        new = [(w, x) for w, x in layer if x not in first]
        if not new:
            return first
        for w, x in new:
            first.setdefault(x, w)


@pytest.mark.parametrize("gens, mod, order", [
    # the worked instance: GL_2(F_5)
    ((((2, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 0), (1, 1))), 5, 480),
    # dihedral of order 8 at m = 2
    ((((0, -1), (1, 0)), ((1, 0), (0, -1))), 25, 8),
    # quaternion of order 8 at m = 2 (7^2 = -1 mod 25)
    ((((7, 0), (0, -7)), ((0, -1), (1, 0))), 25, 8),
    # diag(7, -7) and j generate 40 elements mod 125
    ((((7, 0), (0, -7)), ((0, -1), (1, 0))), 125, 40),
])
def test_group_closure_words_are_smallest_shortest(gens, mod, order):
    closure = group_closure(gens, mod)
    assert len(closure) == order
    # same words, and discovery order is (length, word) order
    assert [(x, closure_word(closure, gens, mod, x)) for x in closure] == \
        list(_first_words_by_length(gens, mod).items())


def test_group_closure_limit(monkeypatch):
    monkeypatch.setattr("wittlift.matlin.ENUM_LIMIT", 479)
    gens = (((2, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 0), (1, 1)))
    with pytest.raises(ParamMismatch, match="enumeration limit"):
        group_closure(gens, 5)
    monkeypatch.setattr("wittlift.matlin.ENUM_LIMIT", 480)
    assert len(group_closure(gens, 5)) == 480


# ---------------------------------------------------------------------------
# fraction-field lattices

RK = cr.make_witt_ring(5, 1, 30)


def K(num, den=1):
    return kelem_from_rational(RK, num, den)


def _at(ring, rows):
    """A matrix of rationals as rows of KElem over ring."""
    return [[KElem(ring, Fraction(x)) for x in row] for row in rows]


def _values(rows):
    return [[x.value for x in row] for row in rows]


def _v(x, ell):
    """v_l of the nonzero Fraction x."""
    v = 0
    while x.numerator % ell == 0:
        x, v = x / ell, v + 1
    while x.denominator % ell == 0:
        x, v = x * ell, v - 1
    return v


def _integral(rows, ell):
    return all(x == 0 or _v(x, ell) >= 0 for row in rows for x in row)


def _qmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _qinv(a):
    """The inverse of a square matrix of Fractions, by Gauss-Jordan."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def _conjugates_integral(p, gens, ell):
    """Whether P^-1 g P is integral for every g, in exact rationals."""
    pinv = _qinv(p)
    return all(_integral(_qmul(_qmul(pinv, g), p), ell) for g in gens)


def test_kelem_arithmetic():
    assert K(25).valuation() == 2
    assert K(1, 25).valuation() == -2


@st.composite
def _kelem_cases(draw):
    """A ring W(F_l)/l^m and a rational: 0, or l^v * u / w with |v| <= 12
    and u, w that may share factors with l or pass l^m."""
    ell = draw(st.sampled_from([5, 7]))
    ring = cr.make_witt_ring(ell, 1, draw(st.sampled_from([1, 7, 30])))
    nonzero = st.builds(lambda v, u, w: Fraction(ell) ** v * u / w, st.integers(-12, 12),
                        st.integers(-10 ** 25, 10 ** 25).filter(bool), st.integers(1, 10 ** 6))
    rational = st.one_of(st.just(Fraction(0)), nonzero)
    return ring, draw(rational)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_kelem_cases())
def test_kelem_matches_fraction_arithmetic(case):
    ring, fa = case
    a = KElem(ring, fa)
    if not fa:
        assert a.is_exact_zero() and a.num is None and a.den == 0
        return
    ell, q, v = ring.ell, ring.q, a.valuation()
    unit = fa / Fraction(ell) ** v
    assert unit.numerator % ell and unit.denominator % ell
    # the (num, den) view: den = max(0, -v), num = value * l^den mod l^m
    assert a.den == max(0, -v)
    x = fa * ell ** a.den
    assert 0 <= a.num.coeffs[0] < q
    assert (x.numerator - a.num.coeffs[0] * x.denominator) % q == 0


def test_module_basis_worked_example():
    basis = module_basis([[1, 0], [5, 0], [0, 5]], 5)
    assert basis == [[1, 0], [0, 5]]


def test_module_basis_does_not_span():
    with pytest.raises(DoesNotSpan):
        module_basis([[1, 0], [3, 0]], 5)


def test_module_basis_change_of_basis_is_integral():
    rng = random.Random(19)
    for _ in range(20):
        # vectors with entries a / 5^e, e <= 1, over the common denominator 5
        gens = [[rng.randrange(-20, 21) * 5 ** rng.randrange(2) for _ in range(2)]
                for _ in range(4)]
        try:
            basis = module_basis(gens, 5)
        except DoesNotSpan:
            continue
        # pivot i at row i, the vector pivoted second zero at the first's row,
        # and each vector's content a power of 5
        assert basis[0][0] and basis[1][1] and 0 in (basis[0][1], basis[1][0])
        for vec in basis:
            content = math.gcd(*vec)
            assert content == 5 ** _v(Fraction(content), 5)
        # every generator is an integral combination of the basis vectors
        (a, c), (b, d) = basis
        det = a * d - b * c
        for s, t in gens:
            assert _integral([[Fraction(s * d - b * t, det), Fraction(a * t - s * c, det)]], 5)


def test_integral_model_worked_example():
    g = [[K(0), K(5)], [K(1, 5), K(0)]]
    p = integral_model([g])
    # P = diag(1, 1/5)
    assert p[0][0].value == 1
    assert p[1][1].value == Fraction(1, 5)
    assert p[0][1].is_exact_zero() and p[1][0].is_exact_zero()
    assert conjugate_is_integral(p, g, 5, RK.m)
    # the integer oracle refuses the identity, which leaves g non-integral
    ident = [[K(1), K(0)], [K(0), K(1)]]
    assert not conjugate_is_integral(ident, g, 5, RK.m)


def test_kelem_rings_must_match():
    other = cr.make_witt_ring(5, 1, 20)
    with pytest.raises(ParamMismatch):
        integral_model([[[K(1), K(0)], [K(0), kelem_from_rational(other, 1)]]])


def test_integral_model_unbounded():
    with pytest.raises(UnboundedGroup, match="^generator 0: trace 26/5 is not 5-integral$"):
        integral_model([[[K(5), K(0)], [K(0), K(1, 5)]]])


def test_integral_model_conjugated_finite_order():
    # Q^-1 [[0,-1],[1,0]] Q with Q = diag(1, 5) has entries of valuation +-1
    h = [[K(0), K(-1, 5)], [K(5), K(0)]]
    p = integral_model([h])
    assert conjugate_is_integral(p, h, 5, RK.m)


F = Fraction


# Bounded one-generator groups that the truncated saturation misjudged:
# UnboundedGroup at precision 12, Singular at precision 7.
@pytest.mark.parametrize("m, g", [
    (12, [[0, 5 ** 5], [F(1, 5 ** 5), 0]]),
    (12, [[1, F(1, 5 ** 5)], [0, 1]]),
    (7, [[0, 5], [F(1, 5), 0]]),
    (7, [[1, F(1, 5)], [0, 1]]),
    (7, [[0, F(-1, 5)], [5, 0]]),
], ids=["m12_order_2", "m12_unipotent", "m7_order_2", "m7_unipotent", "m7_order_4"])
def test_integral_model_precision_regressions(m, g):
    p = integral_model([_at(cr.make_witt_ring(5, 1, m), g)])
    # P is exact; its view at precision 30 holds the digits the integer check reads
    assert conjugate_is_integral(_at(RK, _values(p)), _at(RK, g), 5, RK.m)


def _fixes_vertex(a, ell):
    """A 2 x 2 rational matrix with unit det fixes a vertex of the tree of
    PGL_2(Q_l) iff its trace is l-integral."""
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    trace = a[0][0] + a[1][1]
    return det != 0 and _v(det, ell) == 0 and (trace == 0 or _v(trace, ell) >= 0)


def _tree_bounded(gens, ell):
    """Serre, Trees, I.6.5, Cor. 2: the group fixes a vertex iff every s_i
    and every s_i s_j does."""
    return all(_fixes_vertex(g, ell) for g in gens) and all(
        _fixes_vertex(_qmul(g, h), ell) for g, h in itertools.combinations(gens, 2))


def _random_gens(rng, ell):
    """1 to 3 nonsingular matrices with entries a / l^k, |a| <= l^2, k <= 2."""
    gens = []
    while len(gens) < rng.randrange(1, 4):
        g = [[F(rng.randrange(-ell ** 2, ell ** 2 + 1), ell ** rng.randrange(3))
              for _ in range(2)] for _ in range(2)]
        if g[0][0] * g[1][1] != g[0][1] * g[1][0]:
            gens.append(g)
    return gens


def _bounded_conjugates(rng, ell, k):
    """1 to 3 conjugates F^-1 h F of integral h with unit det, where
    F = U diag(1, l^k) with U in SL_2(Z): denominators up to l^k."""
    u = [[1, 0], [0, 1]]
    for _ in range(4):
        t = rng.randrange(-3, 4)
        u = _qmul(u, [[1, t], [0, 1]] if rng.randrange(2) else [[1, 0], [t, 1]])
    frame = _qmul(u, [[1, 0], [0, ell ** k]])
    gens = []
    while len(gens) < rng.randrange(1, 4):
        h = [[rng.randrange(-10, 11) for _ in range(2)] for _ in range(2)]
        if (h[0][0] * h[1][1] - h[0][1] * h[1][0]) % ell:
            gens.append(_qmul(_qmul(_qinv(frame), h), frame))
    return gens


def test_integral_model_agrees_with_tree_oracle():
    # 100 bounded conjugates, 100 groups whose generators are bounded one by
    # one (each conjugated by its own frame), 100 random groups
    rng = random.Random(12)
    verdicts = []
    for trial in range(300):
        ell = (5, 7)[trial % 2]
        if trial < 100:
            gens = _bounded_conjugates(rng, ell, trial % 11)
        elif trial < 200:
            gens = [_bounded_conjugates(rng, ell, rng.randrange(11))[0]
                    for _ in range(rng.randrange(2, 4))]
        else:
            gens = _random_gens(rng, ell)
        bounded = _tree_bounded(gens, ell)
        assert bounded or trial >= 100
        try:
            p = integral_model([_at(cr.make_witt_ring(ell, 1, 30), g) for g in gens])
        except UnboundedGroup as exc:
            assert not bounded
            # the named word fails the oracle too
            word = [gens[int(i)] for i in re.findall(r"\d+", str(exc).split(":")[0])]
            assert not _fixes_vertex(word[0] if len(word) == 1 else _qmul(*word), ell)
        else:
            assert bounded
            assert _conjugates_integral(_values(p), gens, ell)
        verdicts.append(bounded)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


_D = (1, 5, 25)
# diag(1, 5, 25)^-1 (a 3-cycle) diag(1, 5, 25)
_CYCLE = [[F(int((i + 1) % 3 == j) * _D[j], _D[i]) for j in range(3)] for i in range(3)]


def test_integral_model_3x3():
    p = integral_model([_at(RK, _CYCLE)])
    assert _conjugates_integral(_values(p), [_CYCLE], 5)
    assert not _integral(_CYCLE, 5)
    # each unipotent generator is bounded, their product is not
    g0 = [[1, F(1, 5), 0], [0, 1, 0], [0, 0, 1]]
    g1 = [[1, 0, 0], [F(1, 5), 1, 0], [0, 0, 1]]
    with pytest.raises(UnboundedGroup, match=r"^generators 0 \* 1: trace 76/25 is not 5-integral$"):
        integral_model([_at(RK, g0), _at(RK, g1)])


def test_integral_model_3x3_round_cap(monkeypatch):
    monkeypatch.setattr("wittlift.matlin.SATURATION_ROUNDS", 1)
    with pytest.raises(Undecided, match="did not close in 1 rounds"):
        integral_model([_at(RK, _CYCLE)])


def _unimodular(draw, n, dens):
    """A product of four elementary matrices I + t E_ij, t = a / b with b drawn
    from dens (units of Z_(l) when every b is prime to l)."""
    u = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = draw(st.permutations(range(n)))[:2]
        t = F(draw(st.integers(-3, 3)), draw(st.sampled_from(dens)))
        u = _qmul(u, [[int(r == c) + (t if (r, c) == (i, j) else 0) for c in range(n)]
                      for r in range(n)])
    return u


def _integer_matrix(draw, n, ell):
    """Mostly L U with L unipotent lower and U upper triangular with unit
    diagonal, so that det is an l-adic unit; sometimes any small matrix."""
    if draw(st.integers(0, 9)) == 0:
        return [[draw(st.integers(-10, 10)) for _ in range(n)] for _ in range(n)]
    low = [[1 if i == j else draw(st.integers(-3, 3)) if j < i else 0 for j in range(n)]
           for i in range(n)]
    up = [[draw(st.sampled_from([1, -1, 2, -2, ell + 1])) if i == j else
           draw(st.integers(-3, 3)) if j > i else 0 for j in range(n)] for i in range(n)]
    return _qmul(low, up)


@st.composite
def _integral_model_cases(draw):
    """(l, generators as Fraction matrices, saturation round cap).  Families:
    conjugates F^-1 h F of integral h with F = U diag(l^k_i), one frame for
    the group (bounded when every det h is a unit) or one per generator,
    with U over Z or with denominators prime to l; random matrices with
    denominators l^k, or with denominators prime to l; and any of these with
    generator 0 made singular."""
    ell = draw(st.sampled_from([5, 7]))
    n = draw(st.sampled_from([2, 3]))
    count = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["group_frame", "own_frames", "random", "prime_to_l"]))
    dens = draw(st.sampled_from([(1,), (1, 2, 3, 4, 6)]))

    def frame():
        ks = [draw(st.integers(0, 4)) for _ in range(n)]
        return _qmul(_unimodular(draw, n, dens), [[F(ell ** ks[i]) if i == j else F(0)
                                                   for j in range(n)] for i in range(n)])

    def conjugate(f):
        return _qmul(_qmul(_qinv(f), _integer_matrix(draw, n, ell)), f)

    if family == "group_frame":
        f = frame()
        gens = [conjugate(f) for _ in range(count)]
    elif family == "own_frames":
        gens = [conjugate(frame()) for _ in range(count)]
    else:
        pool = ([ell ** k for k in range(3)] if family == "random"
                else [b * ell ** k for b in (1, 2, 3, 11) for k in range(2)])
        gens = [[[F(draw(st.integers(-ell ** 2, ell ** 2)), draw(st.sampled_from(pool)))
                  for _ in range(n)] for _ in range(n)] for _ in range(count)]
    if draw(st.integers(0, 9)) == 0:
        # generator 0 singular: its last row a multiple of its first
        gens[0][-1] = [x * draw(st.integers(-2, 2)) for x in gens[0][0]]
    return ell, gens, draw(st.sampled_from([1, 2, 50]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_integral_model_cases())
def test_integral_model_matches_fraction_reference(case):
    ell, gens, cap = case
    want = fraction_integral_model(gens, ell, cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("wittlift.matlin.SATURATION_ROUNDS", cap)
        try:
            got = "ok", _values(integral_model([_at(cr.make_witt_ring(ell, 1, 30), g)
                                                for g in gens]))
        except (InvalidQuery, UnboundedGroup, Undecided, DoesNotSpan) as exc:
            got = type(exc).__name__, str(exc)
    assert got == want
