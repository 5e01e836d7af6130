"""Finite-level tube measures and Frobenius statistics.

The measure of {gamma : v(f(gamma)) > alpha} inside GL_n(Z/l^m) (or a
generated subgroup) is computed as an exact counting fraction, or as a
seeded unbiased estimate above a size threshold.

Whether v(f(gamma)) > alpha holds depends only on gamma mod l^(alpha+1), and
reduction from level m maps the full group onto GL_n(Z/l^k) with fibres of
equal size, so counts and samples are taken at level k = min(alpha + 1, m).
A full group is counted on its l^(n^2) residues by Hensel fibre counting
(Igusa, An Introduction to the Theory of Local Zeta Functions, 2000): entry
j of every residue is arange(l) laid along axis j, so a monomial is an outer
product of one-dimensional power tables and the det-unit mask is broadcast
the same way; only singular zeros recurse, on f(a + l y).  Subgroup
closures and samples pass their rows' columns to the same polynomial
evaluator.  Entries and values are int64 while n * l^(2k) fits, Python ints
past it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coeffring as cr
from .errors import AlphaExceedsPrecision, InvalidQuery, NotConjugationInvariant
from .galois_model import evaluate_word
from .matlin import ENUM_LIMIT, Mat, group_closure, int_dtype

_SAMPLE_BATCH = 1 << 16


@dataclass(frozen=True)
class Monomial:
    coeff: int
    exps: tuple  # one exponent per matrix entry, row-major


@dataclass(frozen=True)
class TubeQuery:
    """A tube {gamma : v(f(gamma)) > alpha} at level m."""

    ell: int
    n: int
    m: int
    alpha: int
    monomials: tuple  # of Monomial
    generators: tuple = ()  # empty = full GL_n(Z/l^m); else integer matrices

    def __post_init__(self):
        cr.check_ell(self.ell)
        if self.n < 1:
            raise InvalidQuery(f"matrix size n = {self.n} must be >= 1")
        if self.m < 1:
            raise InvalidQuery("precision level must be >= 1")
        if self.alpha > self.m or self.alpha < 0:
            raise AlphaExceedsPrecision(
                f"alpha = {self.alpha} outside 0..{self.m}")
        for mono in self.monomials:
            if len(mono.exps) != self.n * self.n:
                raise InvalidQuery(f"monomial arity {len(mono.exps)} != "
                                   f"n^2 = {self.n * self.n}")
            if any(e < 0 for e in mono.exps):
                raise InvalidQuery(f"monomial exponents {list(mono.exps)} must be >= 0")
        for i, g in enumerate(self.generators):
            if len(g) != self.n or any(len(r) != self.n for r in g):
                raise InvalidQuery(f"generator {i} is not {self.n} x {self.n}")
            if Mat.from_ints(cr.make_field(self.ell, 1), g).det().is_zero():
                raise InvalidQuery(f"generator {i} is not invertible: its "
                                   f"determinant is 0 mod {self.ell}")


def det_minus_one_query(ell, m, alpha):
    """The 2x2 query f = det - 1 over the full GL_2(Z/l^m)."""
    return TubeQuery(ell, 2, m, alpha, (
        Monomial(1, (1, 0, 0, 1)),
        Monomial(-1, (0, 1, 1, 0)),
        Monomial(-1, (0, 0, 0, 0)),
    ))


def gl_order(ell, n, m):
    """|GL_n(Z/l^m)| = |GL_n(F_l)| * l^((m-1) n^2)."""
    order = 1
    for i in range(n):
        order *= ell ** n - ell ** i
    return order * ell ** ((m - 1) * n * n)


def counts_exactly(query):
    """Whether tube_measure counts exactly (subgroups, and full groups whose
    l^(m n^2) matrices fit ENUM_LIMIT, though _fibre_count never builds the
    level-m grid) rather than samples."""
    return bool(query.generators) or \
        query.ell ** (query.m * query.n * query.n) <= ENUM_LIMIT


def _poly_eval(monomials, entries, modulus):
    """The monomials' sum mod modulus at the n^2 matrix entries (row-major),
    arrays below modulus that broadcast against each other.

    Each monomial is an outer product of its factors' power arrays, so on a
    broadcast grid only its last factor spans the whole grid.  The result has
    the broadcast shape of the monomials (a Python int if all are constant).
    """
    acc = 0
    for mono in monomials:
        term = mono.coeff % modulus
        for x, e in zip(entries, mono.exps):
            if e:
                power = x
                for _ in range(e - 1):
                    power = power * x % modulus
                term = term * power % modulus
        acc = acc + term  # below len(monomials) * modulus, far from 2^63
    return acc % modulus


def _tube_hits(query, entries, unit):
    """How many cells where the boolean array unit holds lie in the tube;
    entries are the matrix entries mod l^k, k = min(alpha + 1, m), as arrays
    broadcasting to unit's shape."""
    if query.alpha >= query.m:
        return 0
    vals = _poly_eval(query.monomials, entries, query.ell ** (query.alpha + 1))
    return int(np.count_nonzero((vals == 0) & unit))


def _shift(monomials, a, ell):
    """f(a + l y) as monomials in y, expanded in Python ints."""
    return [Monomial(mono.coeff * math.prod(math.comb(e, t) * ai ** (e - t) * ell ** t
                                            for ai, e, t in zip(a, mono.exps, ts)), ts)
            for mono in monomials
            for ts in itertools.product(*[range(e + 1) for e in mono.exps])]


def _fibre_count(monomials, ell, k, unit):
    """#{x over Z/l^k : f(x) = 0 mod l^k, unit[x mod l]}, f the monomials'
    sum, unit a boolean array with one axis of length l per variable (N).

    f's content l^c is divided out first.  Then one pass over the residues
    a: a zero with a nonzero gradient mod l has l^((N-1)(k-1)) zeros above
    it (Hensel); at a singular one f(a + l y) = f(a) mod l^2, so it has none
    if v(f(a)) = 1, l^N at k = 2, and otherwise those of f(a + l y), whose
    content is at least 2.
    """
    acc = {}
    for mono in monomials:
        acc[mono.exps] = (acc.get(mono.exps, 0) + mono.coeff) % ell ** k
    f = [Monomial(c, e) for e, c in acc.items() if c]
    nvars = unit.ndim
    c = min((next(v for v in itertools.count() if mono.coeff % ell ** (v + 1))
             for mono in f), default=k)
    if c >= k:
        return int(np.count_nonzero(unit)) * ell ** (nvars * (k - 1))
    if c:
        return ell ** (nvars * c) * _fibre_count(
            [Monomial(mono.coeff // ell ** c, mono.exps) for mono in f], ell, k - c, unit)
    grid = np.ix_(*[np.arange(ell)] * nvars)
    vals = _poly_eval(f, grid, ell ** min(k, 2))
    zero = (vals % ell == 0) & unit
    if k == 1:
        return int(np.count_nonzero(zero))
    flat = np.ones_like(unit)
    for j in range(nvars):
        flat &= _poly_eval([Monomial(mono.coeff * mono.exps[j], mono.exps[:j] + (
            mono.exps[j] - 1,) + mono.exps[j + 1:]) for mono in f if mono.exps[j]],
            grid, ell) == 0
    hits = int(np.count_nonzero(zero & ~flat)) * ell ** ((nvars - 1) * (k - 1))
    deep = zero & flat & (vals == 0)
    if k == 2:
        return hits + int(np.count_nonzero(deep)) * ell ** nvars
    for a in np.argwhere(deep):
        # f(a + l y) mod l^k depends on y mod l^(k-1) alone
        hits += _fibre_count(_shift(f, [int(x) for x in a], ell), ell, k,
                             np.ones_like(unit)) // ell ** nvars
    return hits


def _det_unit_mask(entries, n, ell):
    """Where the matrix with these entries (row-major, broadcasting against
    each other) is invertible: its determinant mod l is nonzero."""
    if n > 3:
        raise InvalidQuery(f"full-group tube queries support n <= 3, got n = {n}")
    a = [(x % ell).astype(np.int64) for x in entries]
    if n == 1:
        return a[0] != 0
    # det = 0 mod l compared as two residues, so that only the comparison
    # spans a whole broadcast grid
    if n == 2:
        return a[0] * a[3] % ell != a[1] * a[2] % ell
    return ((a[0] * (a[4] * a[8] - a[5] * a[7])
             + a[2] * (a[3] * a[7] - a[4] * a[6])) % ell
            != a[1] * (a[3] * a[8] - a[5] * a[6]) % ell)


def _uniform_rows(rng, count, n, ell, k):
    """count uniform matrices over Z/l^k, entries in int_dtype(n, l^k)."""
    modulus = ell ** k
    if int_dtype(n, modulus) is np.int64:
        return rng.integers(0, modulus, size=(count, n * n))
    # past int64: base-l^j digits drawn in int64, summed as Python ints
    j = 1
    while ell ** (j + 1) < 2 ** 62:
        j += 1
    rows = np.zeros((count, n * n), dtype=object)
    for low in range(0, k, j):
        step = ell ** min(j, k - low)
        rows += rng.integers(0, step, size=(count, n * n)).astype(object) * ell ** low
    return rows


@dataclass(frozen=True)
class TubeResult:
    fraction: Fraction
    exact: bool
    population: int
    sample_count: int = 0
    std_error: float = 0.0
    seed: int = 0


def tube_measure(query, seed=0, sample_count=200000):
    """Exact fraction by counting, or a seeded estimate when too large.

    Both count at level k = min(alpha + 1, m), a full group by _fibre_count.
    A full group's population is |GL_n(Z/l^m)|; a subgroup's is the size of
    its closure at level m.
    """
    ell, n, m = query.ell, query.n, query.m
    k = min(query.alpha + 1, m)
    if query.generators:
        rows = np.array(list(group_closure(query.generators, ell ** m)),
                        dtype=int_dtype(n, ell ** m))
        rows = (rows % ell ** k).astype(int_dtype(n, ell ** k))
        hits = _tube_hits(query, rows.T, np.ones(len(rows), dtype=bool))
        return TubeResult(Fraction(hits, len(rows)), True, len(rows))
    if counts_exactly(query):
        hits = 0
        if query.alpha < m:  # at alpha = m the tube is empty
            grid = np.ix_(*[np.arange(ell)] * (n * n))
            hits = _fibre_count(query.monomials, ell, k, _det_unit_mask(grid, n, ell))
        return TubeResult(Fraction(hits, gl_order(ell, n, k)), True,
                          gl_order(ell, n, m))
    if sample_count < 1:
        raise InvalidQuery(f"sample_count = {sample_count} must be >= 1")
    rng = np.random.default_rng(seed)
    hits = 0
    got = 0
    while got < sample_count:
        cand = _uniform_rows(rng, min(_SAMPLE_BATCH, sample_count - got),
                             n, ell, k).T
        unit = _det_unit_mask(cand, n, ell)
        hits += _tube_hits(query, cand, unit)
        got += int(np.count_nonzero(unit))
    p = hits / got
    se = (p * (1 - p) / got) ** 0.5
    return TubeResult(Fraction(hits, got), False, 0, got, se, seed)


# ---------------------------------------------------------------------------
# Frobenius scan over a deformation's places


def _eval_poly_witt(monomials, mat):
    ring = mat.ring
    entries = [x for row in mat.rows for x in row]
    acc = cr.witt_zero(ring)
    for mono in monomials:
        term = cr.witt_from_int(ring, mono.coeff)
        for x, e in zip(entries, mono.exps):
            for _ in range(e):
                term = term * x
        acc = acc + term
    return acc


def _check_conjugation_invariant(monomials, ring, n, rng):
    for _ in range(20):
        g = Mat.from_rows(ring, [[cr.element(ring, tuple(
            rng.randrange(ring.q) for _ in range(ring.d)))
            for _ in range(n)] for _ in range(n)])
        if not g.det().is_unit():
            continue
        h = Mat.from_rows(ring, [[cr.element(ring, tuple(
            rng.randrange(ring.q) for _ in range(ring.d)))
            for _ in range(n)] for _ in range(n)])
        if not h.det().is_unit():
            continue
        if _eval_poly_witt(monomials, g) != \
                _eval_poly_witt(monomials, h * g * h.inverse()):
            raise NotConjugationInvariant(
                "polynomial is not invariant under conjugation")


def frobenius_scan(rho, places, monomials, alpha, seed=0):
    """Fraction of places with v(f(rho(sigma_v))) > alpha, exactly."""
    ring = rho.ring
    if alpha > ring.m or alpha < 0:
        raise AlphaExceedsPrecision(f"alpha = {alpha} outside 0..{ring.m}")
    for mono in monomials:
        if len(mono.exps) != 4:
            raise InvalidQuery(f"monomial arity {len(mono.exps)} != n^2 = 4")
        if any(e < 0 for e in mono.exps):
            raise InvalidQuery(f"monomial exponents {list(mono.exps)} must be >= 0")
    rng = random.Random(seed)
    _check_conjugation_invariant(monomials, ring, 2, rng)
    hits = 0
    per_place = []
    for place in places:
        val = _eval_poly_witt(monomials, evaluate_word(rho, place.sigma))
        v = val.valuation()
        per_place.append((place.label, v))
        if v > alpha:
            hits += 1
    return Fraction(hits, len(places)) if places else Fraction(0), per_place
