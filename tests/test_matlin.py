"""Tests for the matrix toolkit: diagonalization, Jordan, tame relations,
split diagonals, and the fraction-field lattice algorithms."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittlift.coeffring as cr
from helpers_bruteforce import conjugate_is_integral
from wittlift.errors import (
    DoesNotSpan,
    EigenvaluesNotInField,
    ParamMismatch,
    PrecisionExhausted,
    RepeatedResidualEigenvalues,
    ResidualImageTooSmall,
    Singular,
    UnboundedGroup,
)
from wittlift.matlin import (
    KElem,
    Mat,
    char_poly,
    char_poly_eigs,
    check_tame_relation,
    closure_word,
    elem_matmul,
    find_split_diagonal,
    group_closure,
    hensel_diagonalize,
    integral_model,
    jordan_decompose,
    kelem_from_rational,
    matrix_order,
    module_basis,
    root_of_unity_bound,
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


# ---------------------------------------------------------------------------
# Mat on coefficient tuples against an element-object oracle


def _elem(ring, coeffs):
    return (cr.FFElem if isinstance(ring, cr.FieldParams) else cr.WittElem)(ring, coeffs)


def _canon(ring, x):
    q = ring.ell if isinstance(ring, cr.FieldParams) else ring.q
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
    q = ring.ell if isinstance(ring, cr.FieldParams) else ring.q
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
    col = [[r[0]] for r in b_el]
    assert _canon_rows(ring, [a.apply([x for (x,) in col])]) == _canon_rows(
        ring, [[x for (x,) in _o_mul(a_el, col)]])
    assert _canon_rows(ring, elem_matmul(ring, a_el[:1], b_el)) == _canon_rows(
        ring, _o_mul(a_el[:1], b_el))
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


def test_char_poly_eigs_extension_tagging():
    # companion of x^2 + 2, irreducible over F_5
    g = Mat.from_ints(F5, [[0, -2], [1, 0]])
    _, eigs = char_poly_eigs(g)
    assert len(eigs) == 2
    assert all(e.ext_degree == 2 for e in eigs)


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


def test_root_of_unity_bound():
    assert root_of_unity_bound(cr.make_witt_ring(5, 2, 3)) == 1


# ---------------------------------------------------------------------------
# fraction-field lattices

RK = cr.make_witt_ring(5, 1, 30)


def K(num, den=1):
    return kelem_from_rational(RK, num, den)


def test_kelem_arithmetic():
    a = K(7, 5)
    b = K(3)
    assert ((a + b) - b).key() == a.key()
    assert (a * a.inverse()).key() == K(1).key()
    assert K(25).valuation() == 2
    assert K(1, 25).valuation() == -2


def test_module_basis_worked_example():
    basis = module_basis([(K(1), K(0)), (K(5), K(0)), (K(0), K(5))])
    assert len(basis) == 2
    assert [x.key() for x in basis[0]] == [K(1).key(), K(0).key()]
    assert [x.key() for x in basis[1]] == [K(0).key(), K(5).key()]


def test_module_basis_does_not_span():
    with pytest.raises(DoesNotSpan):
        module_basis([(K(1), K(0)), (K(3), K(0))])


def test_module_basis_change_of_basis_is_integral():
    rng = random.Random(19)
    for _ in range(20):
        gens = [tuple(K(rng.randrange(-20, 21), 5 ** rng.randrange(2))
                      for _ in range(2)) for _ in range(4)]
        try:
            basis = module_basis(gens)
        except DoesNotSpan:
            continue
        # every generator is an integral combination of the basis
        from wittlift.matlin import _ksolve
        cols = [tuple(x.pair(RK) for x in b) for b in basis]
        for g in gens:
            sol = _ksolve(RK, cols, [x.pair(RK) for x in g], RK.m - 6)
            assert sol is not None
            assert all(KElem.from_pair(RK, x).valuation() >= 0 for x in sol)


def test_integral_model_worked_example():
    g = [[K(0), K(5)], [K(1, 5), K(0)]]
    p = integral_model([g])
    # P = diag(1, 1/5)
    assert p[0][0].key() == K(1).key()
    assert p[1][1].key() == K(1, 5).key()
    assert p[0][1].is_exact_zero() and p[1][0].is_exact_zero()
    assert conjugate_is_integral(p, g, 5, RK.m)
    # the integer oracle refuses the identity, which leaves g non-integral
    ident = [[K(1), K(0)], [K(0), K(1)]]
    assert not conjugate_is_integral(ident, g, 5, RK.m)


def test_kelem_rings_must_match():
    other = cr.make_witt_ring(5, 1, 20)
    with pytest.raises(ParamMismatch):
        K(1) + kelem_from_rational(other, 1)
    with pytest.raises(ParamMismatch):
        integral_model([[[K(1), K(0)], [K(0), kelem_from_rational(other, 1)]]])


def test_integral_model_unbounded():
    with pytest.raises(UnboundedGroup):
        integral_model([[[K(5), K(0)], [K(0), K(1, 5)]]])


def test_integral_model_conjugated_finite_order():
    # Q^-1 [[0,-1],[1,0]] Q with Q = diag(1, 5) has entries of valuation +-1
    h = [[K(0), K(-1, 5)], [K(5), K(0)]]
    p = integral_model([h])
    assert conjugate_is_integral(p, h, 5, RK.m)


# The fraction-field arithmetic KElem had on WittElem objects before it ran
# on (coeffs, den) pairs, kept as the oracle for the pair functions; the
# valuation loop is copied too, so the oracle does not call the
# coefficient valuation it checks.

def _old_valuation(num):
    ell, m = num.ring.ell, num.ring.m
    best = m
    for c in num.coeffs:
        if c:
            v = 0
            while c % ell == 0:
                c //= ell
                v += 1
            best = min(best, v)
    return best


class _OldKElem:
    def __init__(self, ring, num, den):
        self.ring, self.num, self.den = ring, num, den

    def valuation(self):
        if self.num is None:
            return 10 ** 9
        return _old_valuation(self.num) - self.den

    def __add__(self, other):
        if self.num is None:
            return other
        if other.num is None:
            return self
        den = max(self.den, other.den)
        ell = self.ring.ell
        a = cr.witt_scale(self.num, ell ** (den - self.den))
        b = cr.witt_scale(other.num, ell ** (den - other.den))
        return _OldKElem(self.ring, a + b, den)

    def __neg__(self):
        if self.num is None:
            return self
        return _OldKElem(self.ring, -self.num, self.den)

    def __mul__(self, other):
        if self.num is None or other.num is None:
            return _OldKElem(self.ring, None, 0)
        return _OldKElem(self.ring, self.num * other.num, self.den + other.den)

    def inverse(self):
        if self.num is None:
            raise Singular("division by zero")
        v = _old_valuation(self.num)
        if v >= self.ring.m:
            raise PrecisionExhausted("cannot invert an (effectively) zero element")
        ell = self.ring.ell
        unit = cr.WittElem(self.ring, tuple((c // ell ** v) % self.ring.q
                                            for c in self.num.coeffs))
        inv_unit = unit.inverse()
        if self.den >= v:
            return _OldKElem(self.ring, cr.witt_scale(inv_unit, ell ** (self.den - v)), 0)
        return _OldKElem(self.ring, inv_unit, v - self.den)

    def key(self):
        if self.num is None:
            return ("zero",)
        v = min(_old_valuation(self.num), self.den)
        ell = self.ring.ell
        num = cr.WittElem(self.ring, tuple((c // ell ** v) % self.ring.q
                                           for c in self.num.coeffs)) if v else self.num
        return (num.coeffs, self.den - v)


@st.composite
def _kelem_pairs(draw):
    """A ring and two elements given as (coefficients or None, den): the
    exact zero, a zero numerator (0 mod l^m), numerators l^v * u with v up
    to m + 1, and raw integers, some negative or past l^m."""
    ring = cr.make_witt_ring(draw(st.sampled_from([5, 7])), draw(st.sampled_from([1, 2])),
                             draw(st.sampled_from([7, 30])))
    q = ring.q

    def coeff():
        v = draw(st.integers(0, ring.m + 1))
        u = draw(st.integers(1, q))
        return draw(st.one_of(st.just(ring.ell ** v * u % q),
                              st.integers(-q, 2 * q)))
    elems = []
    for _ in range(2):
        kind = draw(st.sampled_from(["exact", "zero", "num", "num", "num"]))
        coeffs = (None if kind == "exact" else (0,) * ring.d if kind == "zero"
                  else tuple(coeff() for _ in range(ring.d)))
        elems.append((coeffs, 0 if kind == "exact" else draw(st.integers(0, 3))))
    return ring, elems


def _both(ring, a):
    num = None if a[0] is None else cr.WittElem(ring, a[0])
    return KElem(ring, num, a[1]), _OldKElem(ring, num, a[1])


def _same(new, old):
    assert (None if new.num is None else new.num.coeffs, new.den) == \
        (None if old.num is None else old.num.coeffs, old.den)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_kelem_pairs())
def test_kelem_pair_arithmetic_matches_wittelem_oracle(case):
    ring, (a, b) = case
    (a, a_old), (b, b_old) = _both(ring, a), _both(ring, b)
    _same(a + b, a_old + b_old)
    _same(a - b, a_old + (-b_old))
    _same(-a, -a_old)
    _same(a * b, a_old * b_old)
    assert a.valuation() == a_old.valuation()
    assert a.key() == a_old.key()
    try:
        want = a_old.inverse()
    except (Singular, PrecisionExhausted) as exc:
        with pytest.raises(type(exc)):
            a.inverse()
    else:
        _same(a.inverse(), want)
