"""Matrix algebra over the coefficient rings W(F_{l^d})/l^m, F_{l^d} being
the ring at m = 1.

Mat holds its entries in the elements' own format, their coefficient
d-tuples reduced mod q at every d, and multiplies through coeffring._matmul,
one fused Kronecker dot product per output entry (coeffring._mul for one
product); Mat.entry_rows hands those values on to linalg as they are.
Elements appear only at the boundary (Mat.from_rows, Mat.rows, scale, det
and trace), built by coeffring._elem and read by _entry_value, which checks
the ring and takes the coefficients as every element holds them, canonical.
The module also covers characteristic polynomials and eigenvalues, Hensel
diagonalization of 2x2 matrices over truncated Witt rings, multiplicative
Jordan decomposition, the tame-relation branch test, the BFS closure of
integer matrix groups, split-diagonal extraction from subgroups with full
residual image, and the integral-model decision (witness checks and lattice
saturation) on integers; KElem is a (num, den) view of an exact rational
without arithmetic, used only at the boundary.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coeffring as cr
from .errors import (
    DoesNotSpan,
    EigenvaluesNotInField,
    InvalidQuery,
    ParamMismatch,
    RepeatedResidualEigenvalues,
    ResidualImageTooSmall,
    Singular,
    UnboundedGroup,
    Undecided,
)

_INF = 10 ** 9
ENUM_LIMIT = 10 ** 7


def _entry_value(ring, x):
    """The canonical Mat entry of the element x over ring: its coefficient
    tuple, which every element holds reduced mod q = l^m."""
    if x.ring is not ring and x.ring != ring:
        raise ParamMismatch(f"{x.ring} vs {ring}")
    return x.coeffs


def _one_zero(ring):
    zeros = (0,) * (ring.d - 1)
    return (1,) + zeros, (0,) + zeros


def _mod_entries(entries, q):
    """Entries with every coefficient reduced mod q."""
    return tuple([tuple([c % q for c in x]) for x in entries])


def _flatten_square(rows):
    """(n, the entries row-major) of n rows that must have n entries each."""
    rows = [list(r) for r in rows]
    if any(len(r) != len(rows) for r in rows):
        raise ParamMismatch(f"matrix rows must have {len(rows)} entries")
    return len(rows), [x for r in rows for x in r]


def _is_unit(ring, v):
    ell = ring.ell
    return any(c % ell for c in v)


def _product(ring, xs):
    """The product of the entries xs, 1 for none."""
    return functools.reduce(lambda x, y: cr._mul(ring, x, y), xs) if xs else _one_zero(ring)[0]


def _imul(v, s, q):
    """The entry v times the integer s."""
    return tuple([c * s % q for c in v])


def _sum(ring, xs):
    """The sum of the entries xs."""
    q = ring.q
    return tuple([sum(cs) % q for cs in zip(*xs)])


def _det(ring, a, n):
    """det of the n x n matrix of entries a: a0 a3 - a1 a2 at n = 2, else by
    Laplace expansion along the first row; each step one fused dot product."""
    if n == 1:
        return a[0]
    q = ring.q
    if n == 2:
        cof = (a[3], _imul(a[2], -1, q))
    else:
        cof = [_det(ring, [a[r * n + c] for r in range(1, n) for c in range(n) if c != j],
                    n - 1) for j in range(n)]
        cof = [m if j % 2 == 0 else _imul(m, -1, q) for j, m in enumerate(cof)]
    return cr._matmul(ring, a[:n], cof, n, 1)[0]


def _mat(ring, n, entries):
    """The Mat with these fields, filled into its __dict__: the frozen __init__'s
    three object.__setattr__ calls cost a third of a 2 x 2 product at d = 1."""
    m = object.__new__(Mat)
    d = m.__dict__
    d["ring"], d["n"], d["entries"] = ring, n, entries
    return m


@dataclass(frozen=True)
class Mat:
    """Square n x n matrix over W(F_{l^d})/l^m, the field F_{l^d} at m = 1.

    entries holds the n^2 entries row-major as canonical values: the
    elements' coefficient d-tuples with every coefficient in [0, q), q = l^m,
    at every d.  Every constructor reduces, so equal matrices have equal
    entries.  Products, determinants and inverses run on the entries through
    coeffring._matmul; entry_rows is a view of the entries as rows, and rows
    one of elements, built through coeffring._elem on each access.
    """

    ring: object
    n: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", _mod_entries(self.entries, self.ring.q))

    @classmethod
    def from_rows(cls, ring, rows):
        """The matrix with rows of elements over ring."""
        n, xs = _flatten_square(rows)
        return _mat(ring, n, tuple([_entry_value(ring, x) for x in xs]))

    @classmethod
    def from_ints(cls, ring, rows):
        n, xs = _flatten_square(rows)
        q, zeros = ring.q, (0,) * (ring.d - 1)
        return _mat(ring, n, tuple([(v % q,) + zeros for v in xs]))

    @classmethod
    def identity(cls, ring, n):
        one, zero = _one_zero(ring)
        return _mat(ring, n, tuple([one if i == j else zero
                                    for i in range(n) for j in range(n)]))

    @classmethod
    def zero(cls, ring, n):
        return _mat(ring, n, (_one_zero(ring)[1],) * (n * n))

    @property
    def entry_rows(self):
        """The entries as n rows of canonical values."""
        return tuple(self.entries[i:i + self.n] for i in range(0, len(self.entries), self.n))

    @property
    def rows(self):
        """The entries as rows of elements, built by coeffring._elem."""
        ring = self.ring
        return tuple(tuple([cr._elem(ring, v) for v in r]) for r in self.entry_rows)

    def _check(self, other):
        if (other.ring is not self.ring and other.ring != self.ring) \
                or other.n != self.n:
            raise ParamMismatch(f"{self.n} x {self.n} over {self.ring} vs "
                                f"{other.n} x {other.n} over {other.ring}")

    def _add(self, other, sign):
        self._check(other)
        q = self.ring.q
        ents = [tuple([(s + sign * t) % q for s, t in zip(x, y)])
                for x, y in zip(self.entries, other.entries)]
        return _mat(self.ring, self.n, tuple(ents))

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __mul__(self, other):
        self._check(other)
        n = self.n
        return _mat(self.ring, n, cr._matmul(self.ring, self.entries, other.entries, n, n))

    def transpose(self):
        n, a = self.n, self.entries
        return _mat(self.ring, n, tuple([a[j * n + i] for i in range(n) for j in range(n)]))

    def scale(self, s):
        """s times the matrix, for an element s over its ring."""
        return _mat(self.ring, self.n, cr._matmul(
            self.ring, (_entry_value(self.ring, s),), self.entries, 1, self.n ** 2))

    def trace(self):
        return cr._elem(self.ring, _sum(self.ring, self.entries[::self.n + 1]))

    def det(self):
        return cr._elem(self.ring, _det(self.ring, self.entries, self.n))

    def is_identity(self):
        return self.entries == Mat.identity(self.ring, self.n).entries

    def inverse(self):
        """At n = 2 the adjugate over the determinant: one fused determinant,
        one unit inverse and one 1 x 4 scaling product.  Otherwise
        Gauss-Jordan on [A | I] with unit pivots p and no division: each
        update row_i <- p row_i - a_ic row_c is one fused dot product per
        entry.  That leaves [D | R] with D diagonal, and A^-1 = D^-1 R, where
        1 / D_ii is the product of the other diagonal entries over the
        product of all of them, so one unit inverse serves every row.
        Singular unless det is a unit (valid over the local ring)."""
        ring, n = self.ring, self.n
        q = ring.q
        if n == 2:
            a = self.entries
            det = _det(ring, a, 2)
            if not _is_unit(ring, det):
                raise Singular("matrix is not invertible")
            return _mat(ring, 2, cr._matmul(
                ring, (cr._unit_inverse(ring, det),),
                (a[3], _imul(a[1], -1, q), _imul(a[2], -1, q), a[0]), 1, 4))
        one, zero = _one_zero(ring)
        rows = [list(self.entries[i * n:(i + 1) * n])
                + [one if j == i else zero for j in range(n)] for i in range(n)]
        for c in range(n):
            pr = next((i for i in range(c, n) if _is_unit(ring, rows[i][c])), None)
            if pr is None:
                raise Singular("matrix is not invertible")
            rows[c], rows[pr] = rows[pr], rows[c]
            for i in range(n):
                if i != c and rows[i][c] != zero:
                    rows[i] = list(cr._matmul(ring, (rows[c][c], _imul(rows[i][c], -1, q)),
                                              rows[i] + rows[c], 2, 2 * n))
        diag = [rows[i][i] for i in range(n)]
        others = [_product(ring, diag[:i] + diag[i + 1:]) for i in range(n)]
        dinv = cr._matmul(ring, (cr._unit_inverse(ring, cr._mul(ring, others[0], diag[0])),),
                          others, 1, n)
        return _mat(ring, n, cr._matmul(
            ring, [dinv[i] if i == j else zero for i in range(n) for j in range(n)],
            [x for r in rows for x in r[n:]], n, n))

    def __pow__(self, e):
        return Mat.identity(self.ring, self.n) if e == 0 else cr._power(self, e)

    def residue(self):
        return self.reduce(1)

    def reduce(self, m2):
        if m2 > self.ring.m:
            raise ParamMismatch("cannot reduce to higher precision")
        ring2 = cr.make_witt_ring(self.ring.ell, self.ring.d, m2)
        return _mat(ring2, self.n, _mod_entries(self.entries, ring2.q))

    def embed(self, d_big):
        """The entrywise embed into W(F_{l^d_big})/l^m, on the entries' values."""
        ring, image = cr._embedding(self.ring, d_big)
        return _mat(ring, self.n, tuple([image(x) for x in self.entries]))

    def lift_trivial(self, m):
        """The same entries over W(F_{l^d})/l^m, m at least the precision."""
        if m < self.ring.m:
            raise ParamMismatch("cannot lift to lower precision")
        return _mat(cr.make_witt_ring(self.ring.ell, self.ring.d, m), self.n, self.entries)

    def __repr__(self):
        return f"Mat({[[list(a.coeffs) for a in r] for r in self.rows]})"


# ---------------------------------------------------------------------------
# characteristic polynomial and eigenvalues


def char_poly(g):
    """det(xI - g) as an ascending list of elements of g's ring, by the
    Faddeev-LeVerrier recurrence of _int_char_poly: one Mat product and
    one division by k per step, and k is a unit because k <= n < l."""
    ring, n = g.ring, g.n
    if n >= ring.ell:
        raise InvalidQuery(f"char_poly divides by 1, ..., n, so it needs n < l, "
                           f"got n = {n} over {ring}")
    q = ring.q
    c, am = [_one_zero(ring)[0]], g
    for k in range(1, n + 1):
        c.append(_imul(_sum(ring, am.entries[::n + 1]), -pow(k, -1, q), q))
        if k < n:
            ents = list(am.entries)
            ents[::n + 1] = [_sum(ring, (x, c[k])) for x in ents[::n + 1]]
            am = g * _mat(ring, n, tuple(ents))
    return [cr._elem(ring, v) for v in reversed(c)]


def splitting_roots(poly_ff):
    """(the splitting field, the roots with multiplicity as (root, mult) in
    canonical order) of a polynomial over F_{l^d}.

    One ff_factorize in the base field; when every factor is linear the roots
    are read off, otherwise the whole polynomial is embedded into F_{l^(de)},
    e the lcm of the factor degrees, for one ff_roots there."""
    base = poly_ff[0].ring
    factors = cr.ff_factorize(poly_ff)
    e = math.lcm(*[cr.poly_deg(f) for f, _ in factors])
    if e == 1:
        roots = sorted([(-f[0], mult) for f, mult in factors],
                       key=lambda rm: rm[0].sort_key())
    else:
        roots = cr.ff_roots([cr.embed(c, base.d * e) for c in poly_ff])
    return cr.make_field(base.ell, base.d * e), roots


def ratio_pair(lams, q):
    """The first (lams[i], lams[j]) with i != j and lams[i] = lams[j] * q, or
    None.  Eigenvalues come with multiplicity, so a repeated one pairs with
    itself when q = 1."""
    return next(((a, b) for i, a in enumerate(lams) for j, b in enumerate(lams)
                 if i != j and a == b * q), None)


def lifted_eigenvalues(g):
    """The eigenvalues of g over W(F_{l^d})/l^m: the Hensel lifts of its
    residual eigenvalues, in their canonical order.  Each must be simple and
    in F_{l^d}, else EigenvaluesNotInField or RepeatedResidualEigenvalues; a
    simple residual root always lifts."""
    cp = char_poly(g)
    field, roots = splitting_roots([c.residue() for c in cp])
    if field.d != g.ring.d:
        raise EigenvaluesNotInField("residual eigenvalues not in the residue field")
    if any(mult > 1 for _, mult in roots):
        raise RepeatedResidualEigenvalues("residual eigenvalues coincide")
    return [cr.hensel_root(cp, r) for r, _ in roots]


# ---------------------------------------------------------------------------
# Hensel diagonalization (2x2 over a truncated Witt ring)


def _diagonalize(g, lams):
    """(P, D) with D = diag(lams) and P*D*P^{-1} = g exactly, for the 2x2
    matrix g and its eigenvalues lams, whose residues are distinct.

    P's columns are the eigenvectors with a unit coordinate set to 1, one
    per eigenline, so every matrix with g's eigenlines gets the same P.
    """
    ring = g.ring
    cols = []
    for lam in lams:
        a = g - Mat.identity(ring, 2).scale(lam)
        row = None
        for r in a.rows:
            if r[0].is_unit() or r[1].is_unit():
                row = r
                break
        if row is None:
            raise RepeatedResidualEigenvalues("kernel has no unit direction")
        v = (row[1], -row[0])
        if v[0].is_unit():
            v = (cr.witt_one(ring), v[1] * v[0].inverse())
        else:
            v = (v[0] * v[1].inverse(), cr.witt_one(ring))
        cols.append(v)
    p = Mat.from_rows(ring, [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])
    d = Mat.from_rows(ring, [[lams[0], cr.witt_zero(ring)],
                             [cr.witt_zero(ring), lams[1]]])
    if p * d * p.inverse() != g:
        raise RepeatedResidualEigenvalues("diagonalization failed to reconstruct")
    return p, d


def hensel_diagonalize(g):
    """(P, D) with P*D*P^{-1} = g exactly, for distinct residual eigenvalues.

    Eigenvalues are ordered by the canonical serialization of their residues,
    so the output is deterministic.
    """
    if g.n != 2:
        raise ParamMismatch("hensel_diagonalize is 2x2 only")
    return _diagonalize(g, lifted_eigenvalues(g))


# ---------------------------------------------------------------------------
# Jordan decomposition and the tame-relation branch test


def jordan_decompose(y):
    """Multiplicative Jordan decomposition y = y_s * y_u over F_{l^d}.

    y_s = y^t with t = 0 mod l^a, l^a >= n, and t = 1 mod L = lcm over
    k <= n of q^k - 1, q = l^d: (y_u - 1)^n = 0 gives y_u^(l^a) = 1, and each
    eigenvalue of y_s lies in some F_{q^k}, so y_s^L = 1.
    """
    if y.ring.m != 1:
        raise ParamMismatch("jordan_decompose needs a matrix over a field")
    if not _is_unit(y.ring, _det(y.ring, y.entries, y.n)):
        raise Singular("matrix is singular")
    ell, n = y.ring.ell, y.n
    la = ell ** next(a for a in itertools.count() if ell ** a >= n)
    big_l = math.lcm(*[ell ** (y.ring.d * k) - 1 for k in range(1, n + 1)])
    y_s = y ** (la * pow(la, -1, big_l))
    return y_s, y_s.inverse() * y


@dataclass(frozen=True)
class TameBranch:
    kind: str  # not_conjugate_relation | semisimple_finite_order | eigenvalue_ratio
    pair: tuple = None


def check_tame_relation(x, y, q):
    """Classify x*y*x^{-1} = y^q per the tame dichotomy.

    Either y is semisimple of finite order, or x has eigenvalues with ratio
    the image of q (computed over the splitting field of x's characteristic
    polynomial).
    """
    if x.n != y.n or x.n > 3:
        raise InvalidQuery(f"tame-check supports n x n matrices with n <= 3, got n = "
                           f"{x.n} for x and n = {y.n} for y (det costs n! products)")
    if x.ring != y.ring:
        raise InvalidQuery(f"x is over {x.ring} but y is over {y.ring}")
    if q <= 1:
        raise InvalidQuery(f"q must be > 1, got {q}")
    for name, a in (("x", x), ("y", y)):
        if not _is_unit(a.ring, _det(a.ring, a.entries, a.n)):
            raise InvalidQuery(f"{name} is not invertible: det {name} = {a.det()}")
    if x * y * x.inverse() != y ** q:
        return TameBranch("not_conjugate_relation")
    x, y = x.residue(), y.residue()
    if jordan_decompose(y)[1].is_identity():
        return TameBranch("semisimple_finite_order")
    field, roots = splitting_roots(char_poly(x))
    pair = ratio_pair([r for r, mult in roots for _ in range(mult)], cr.ff_from_int(field, q))
    if pair is None:
        raise RuntimeError("tame dichotomy violated (unexpected)")
    return TameBranch("eigenvalue_ratio", pair)


# ---------------------------------------------------------------------------
# group closures of integer matrices


def int_dtype(n, modulus):
    """int64 while every product and sum of n of them stays below 2^63."""
    return np.int64 if n * modulus * modulus < 2 ** 63 else object


def group_closure(gens, modulus):
    """The closure of n x n integer matrices (nested lists) mod modulus.

    Returns a dict over the elements, row-major int tuples, in discovery
    order, mapping each element to its BFS parent (the identity to None);
    closure_word reads an element's word off the parents.  Each BFS layer is
    one numpy product, parents major and generators minor, so every
    element's word is its lexicographically smallest shortest word and
    discovery order is the order of (len(word), word).
    """
    n, ngen = len(gens[0]), len(gens)
    dtype = int_dtype(n, modulus)
    gmats = np.array([[[v % modulus for v in r] for r in g] for g in gens],
                     dtype=dtype)[None]
    ident = tuple(int(i == j) for i in range(n) for j in range(n))
    closure = {ident: None}
    frontier = [ident]
    while frontier:
        mats = np.array(frontier, dtype=dtype).reshape(-1, 1, n, n)
        prods = (mats @ gmats % modulus).reshape(-1, n * n).tolist()
        parents, frontier = frontier, []
        for j, y in enumerate(map(tuple, prods)):
            if y not in closure:
                if len(closure) >= ENUM_LIMIT:
                    raise ParamMismatch("group closure exceeds the "
                                        "enumeration limit")
                closure[y] = parents[j // ngen]
                frontier.append(y)
    return closure


def closure_word(closure, gens, modulus, x):
    """x's word in group_closure(gens, modulus), a tuple of generator
    indices: at each step the first generator that takes the parent to the
    element, as in the BFS."""
    n = len(gens[0])

    def times(p, g):
        return tuple(sum(p[i * n + t] * g[t][j] for t in range(n)) % modulus
                     for i in range(n) for j in range(n))
    word = []
    while closure[x] is not None:
        p = closure[x]
        word.append(next(gi for gi, g in enumerate(gens) if times(p, g) == x))
        x = p
    return tuple(reversed(word))


# ---------------------------------------------------------------------------
# split-diagonal extraction (the full-residual-image subgroup lemma)


def full_residual_image_size(ell):
    """|GL_2(F_l)|, refused with InvalidQuery before any closure when it
    exceeds ENUM_LIMIT."""
    size = (ell ** 2 - 1) * (ell ** 2 - ell)
    if size > ENUM_LIMIT:
        raise InvalidQuery(f"|GL_2(F_{ell})| = {size} exceeds ENUM_LIMIT = {ENUM_LIMIT}, "
                           f"so the residual image cannot be enumerated")
    return size


def find_split_diagonal(gens):
    """Locate a conjugate of diag(a, 1) with a Frobenius-fixed, a != +-1 mod l.

    gens generate a subgroup of GL_2(W(F_{l^d})/l^m) whose mod-l reduction
    must be all of GL_2(F_l).  Returns (C, D) with C * D * C^{-1} equal to the
    l^(m-1) power of a word in the generators, and D = diag(a, 1) exactly,
    a the Teichmuller lift of the word's residual eigenvalue abar.
    """
    ring = gens[0].ring
    ell, m = ring.ell, ring.m
    target_size = full_residual_image_size(ell)
    for i, g in enumerate(gens):
        if any(c % ell for row in g.rows for a in row for c in a.coeffs[1:]):
            raise ResidualImageTooSmall(
                f"generator {i} has a residue entry outside F_{ell}, so the "
                f"residual image is not GL_2(F_{ell})")
    res = [[[a.coeffs[0] for a in row] for row in g.rows] for g in gens]
    closure = group_closure(res, ell)
    if len(closure) != target_size:
        raise ResidualImageTooSmall(
            f"residual image has {len(closure)} elements, need GL_2(F_{ell})")
    # first BFS element of the form diag(abar, 1) with abar not 0, +-1
    x = next((x for x in closure if x[1] == x[2] == 0 and x[3] == 1
              and x[0] not in (0, 1, ell - 1)), None)
    if x is None:
        raise ResidualImageTooSmall("no split residual diagonal found")
    g = Mat.identity(ring, 2)
    for gi in closure_word(closure, res, ell, x):
        g = g * gens[gi]
    # g = diag(abar, 1) mod l, so its l^(m-1) power has g's eigenlines and
    # the eigenvalues teichmuller(abar) and 1 exactly
    omega = cr.teichmuller(cr.ff_from_int(ring.residue_field, x[0]), m)
    return _diagonalize(g ** ell ** (m - 1), [omega, cr.witt_one(ring)])


# ---------------------------------------------------------------------------
# integral models, on integers
#
# Generators are integer matrices over the lcm of their denominators and the
# lattice's vectors integer vectors over a power of l; exact rationals appear
# only in KElem, the final basis normalisation and UnboundedGroup messages.

SATURATION_ROUNDS = 50


def _val(x, ell):
    """v_l of the nonzero int or Fraction x."""
    v, num, den = 0, x.numerator, x.denominator
    while num % ell == 0:
        num //= ell
        v += 1
    while den % ell == 0:
        den //= ell
        v -= 1
    return v


def _value(ring, x):
    """The exact rational value of the KElem x, which must be over ring."""
    if x.ring is not ring and x.ring != ring:
        raise ParamMismatch(f"{x.ring} vs {ring}")
    return x.value


@dataclass(frozen=True)
class KElem:
    """An exact rational at the boundary of the integral-model code.

    value is a Fraction.  ring, W(F_l)/l^m, sets l and the precision of the
    (num, den) view: den = max(0, -v_l(value)) and num = value * l^den mod
    l^m as a WittElem, a denominator prime to l inverted mod l^m; num is
    None for 0.  It has no arithmetic: integral_model and module_basis
    compute on integers, and build a KElem only for the conjugator.
    """

    ring: object
    value: Fraction

    @property
    def den(self):
        return max(0, -self.valuation()) if self.value else 0

    @property
    def num(self):
        if not self.value:
            return None
        x, q = self.value * self.ring.ell ** self.den, self.ring.q
        return cr.witt_from_int(self.ring, x.numerator * pow(x.denominator, -1, q))

    def is_exact_zero(self):
        return not self.value

    def valuation(self):
        """v_l of the value, _INF for 0."""
        return _val(self.value, self.ring.ell) if self.value else _INF

    def __repr__(self):
        if not self.value:
            return "K(0)"
        return f"K({list(self.num.coeffs)}/{self.ring.ell}^{self.den})"


def kelem_from_rational(ring, numerator, denominator=1):
    """The KElem numerator / denominator; the denominator must be a power of l."""
    rest = abs(denominator)
    while rest > 1 and rest % ring.ell == 0:
        rest //= ring.ell
    if rest != 1:
        raise InvalidQuery(f"denominator {denominator} is not a power of l = {ring.ell}")
    return KElem(ring, Fraction(numerator, denominator))


def module_basis(vecs, ell):
    """A basis of the Z_(l)-lattice spanned by vecs, integer vectors over one
    common denominator, as integer vectors over it: basis vector i has its
    pivot at row i and no prime-to-l content.

    Division-free minimal-valuation elimination (Bareiss): the nonzero entry
    of least valuation among the remaining vectors and rows is the pivot
    p_i = l^v u, u a unit; p joins the basis, and every other vector c loses
    that row by c <- u c - (c_i / l^v) p, a unit multiple of c - (c_i / p_i) p.
    Each basis vector is zero at the rows pivoted before it, so det is a unit
    times the product of the pivots.  Raises DoesNotSpan below full rank.
    """
    if not vecs:
        raise DoesNotSpan("no generators")
    n, vecs = len(vecs[0]), [list(v) for v in vecs]
    basis = {}
    while vecs and len(basis) < n:
        best = None
        for j, col in enumerate(vecs):
            for i, x in enumerate(col):
                if x and i not in basis:
                    v = _val(x, ell)
                    if best is None or v < best[0]:
                        best = (v, j, i)
        if best is None:
            break
        v, j, i = best
        pivot, t = vecs.pop(j), ell ** v
        u = pivot[i] // t
        for col in vecs:
            if col[i]:
                f = col[i] // t
                col[:] = [u * x - f * y for x, y in zip(col, pivot)]
        g = math.gcd(*pivot)
        basis[i] = [x // (g // ell ** _val(g, ell)) for x in pivot]
    if len(basis) < n:
        raise DoesNotSpan(f"generators span a module of rank {len(basis)} < {n}")
    return [basis[i] for i in range(n)]


def _int_matmul(a, b):
    return [[sum([x * y for x, y in zip(row, col)]) for col in zip(*b)] for row in a]


def _int_char_poly(b):
    """det(xI - b) as ascending ints c_0, ..., c_n, for a square integer
    matrix b, by Faddeev-LeVerrier: M_1 = I, M_k = b M_{k-1} + c_{n-k+1} I
    and c_{n-k} = -tr(b M_k) / k, an exact division.  det b = (-1)^n c_0."""
    n = len(b)
    c, am = [1], b
    for k in range(1, n + 1):
        c.append(-sum([am[i][i] for i in range(n)]) // k)
        if k < n:
            am = _int_matmul(b, [[x + c[k] if i == j else x for j, x in enumerate(row)]
                                 for i, row in enumerate(am)])
    return c[::-1]


def _refute(word, c, den, ell):
    """Raise UnboundedGroup naming word unless B / den, whose characteristic
    polynomial is sum c_k x^k / den^(n-k), has a unit det and l-integral coefficients."""
    n, vd = len(c) - 1, _val(den, ell)
    if _val(c[0], ell) != n * vd:
        raise UnboundedGroup(f"{word}: det {Fraction((-1) ** n * c[0], den ** n)} "
                             f"is not a {ell}-adic unit")
    for k in range(n - 1, 0, -1):
        if c[k] and _val(c[k], ell) < (n - k) * vd:
            what = (f"trace {Fraction(-c[k], den)}" if k == n - 1 else
                    f"x^{k} coefficient {Fraction(c[k], den ** (n - k))} of the "
                    f"characteristic polynomial")
            raise UnboundedGroup(f"{word}: {what} is not {ell}-integral")


def integral_model(gens):
    """Conjugator P (rows of KElem) with P^-1 g P integral for every
    generator g (n x n rows of KElem over one ring).

    Every generator s_i and every product s_i s_j (i < j) must have a unit
    determinant and an l-integral characteristic polynomial; the first word
    that fails is named in UnboundedGroup, and a generator with det 0 raises
    InvalidQuery.  Then L <- L + sum_i s_i L from Z_l^n until v_l(det L)
    stops changing, and the columns of L's basis form P; once det s_i is a
    unit, s_i L in L forces s_i L = L.  For n <= 2 the checks decide: a
    unit-determinant element of GL_2(Q_l) fixes a vertex of the tree iff its
    trace is integral, and the group fixes one when every s_i and s_i s_j
    does (Serre, Trees, I.6.5, Cor. 2), so the loop closes.  For n >= 3 it
    raises Undecided after SATURATION_ROUNDS rounds.
    """
    if not gens:
        raise InvalidQuery("integral_model needs at least one generator")
    n = len(gens[0])
    for gi, g in enumerate(gens):
        if not n or len(g) != n or any(len(row) != n for row in g):
            raise InvalidQuery(f"generator {gi} is not {n} x {n} (n is the row "
                               f"count of generator 0)" if n else
                               "generator 0 has no rows")
    ring = gens[0][0][0].ring
    ell = ring.ell
    # generator i is mats[i] / dens[i], with mats[i] integral
    vals = [[[_value(ring, x) for x in row] for row in g] for g in gens]
    dens = [math.lcm(*[x.denominator for row in a for x in row]) for a in vals]
    mats = [[[x.numerator * (den // x.denominator) for x in row] for row in a]
            for a, den in zip(vals, dens)]
    polys = [_int_char_poly(b) for b in mats]
    for gi, c in enumerate(polys):
        if not c[0]:
            raise InvalidQuery(f"generator {gi} is singular: det = 0")
    for gi, c in enumerate(polys):
        _refute(f"generator {gi}", c, dens[gi], ell)
    for i, j in itertools.combinations(range(len(mats)), 2):
        _refute(f"generators {i} * {j}", _int_char_poly(_int_matmul(mats[i], mats[j])),
                dens[i] * dens[j], ell)
    # s_i is a unit times B_i / l^e_i: over l^top it acts as l^(top - e_i) B_i
    es = [_val(den, ell) for den in dens]
    top, basis, e, vdet = max(es), [[int(i == j) for i in range(n)] for j in range(n)], 0, 0
    acts = [[[x * ell ** (top - ei) for x in row] for row in b] for b, ei in zip(mats, es)]
    for rounds in itertools.count(1):
        if n >= 3 and rounds > SATURATION_ROUNDS:
            raise Undecided(f"no word of length <= 2 is a witness and the saturation "
                            f"did not close in {SATURATION_ROUNDS} rounds (n = {n})")
        scale, e = ell ** top, e + top  # the lattice's vectors are over l^e
        basis = module_basis([[x * scale for x in b] for b in basis] + [
            [sum([x * y for x, y in zip(row, b)]) for row in a] for a in acts for b in basis], ell)
        ws = [_val(b[i], ell) for i, b in enumerate(basis)]
        new = sum(ws) - n * e
        if new == vdet:
            # b_i = l^w u makes b / (u l^e) the vector with pivot exactly l^(w - e)
            norm = [b[i] // ell ** w * ell ** e for i, (b, w) in enumerate(zip(basis, ws))]
            return [[KElem(ring, Fraction(basis[j][i], norm[j])) for j in range(n)]
                    for i in range(n)]
        vdet = new
