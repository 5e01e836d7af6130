"""Exact arithmetic in truncated unramified Witt rings W(F_{l^d})/l^m.

The Witt ring W(F_{l^d})/l^m is realized as (Z/l^m)[x]/(f~) where f~ is the
coefficient-wise trivial lift of the monic irreducible modulus f of F_{l^d}.
One parameter type, WittRingParams, describes every ring: F_{l^d} is
W(F_{l^d})/l, the object that both make_field(l, d) and make_witt_ring(l, d,
1) return, so residue() is reduce(1).  One class, WittElem, does the
arithmetic, an FFElem (a WittElem with the field's repr) at m = 1.
Elements are length-d coefficient tuples (ascending powers of the class of
x) in [0, q), q = l^m: element(ring, coeffs) and the class reduce them once,
_elem builds results from such canonical values, and _mul is the one
product of two.  All values are immutable.  The module's caches are
functools.lru_cache functions, write-once and idempotent: the field and
ring parameters and the Kronecker plans; on a binomial modulus X^D + a (l
not dividing D) the per-ring Frobenius^k tables; per degree pair whether the
big modulus is the small one composed with x^(D/d), where embed is the
scatter X -> X^(D/d); on other moduli the powers of the generator's
Frobenius image and of its embedding images (one Hensel substitution serves
both), and the residual roots.  witt_digit reads the l-adic digits of an
element.

Canonical text form of a Witt element: ``l^m:d:[c0,...,c_{d-1}]``.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
import struct
from dataclasses import dataclass
from operator import attrgetter, mul

from .errors import (
    EllTooSmall,
    InvalidQuery,
    NonDivisibleDegrees,
    NotASimpleRoot,
    NotPrime,
    ParamMismatch,
    ZeroInverse,
    ZeroPolynomial,
)

_FACTOR_SEED = 0x5EED  # fixed seed: equal-degree splitting stays reproducible


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % p == 0:
            return n == p
    k, f = n - 1, 0
    while k % 2 == 0:
        k //= 2
        f += 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, k, n)
        if x in (1, n - 1):
            continue
        for _ in range(f - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# ring parameter types


@dataclass(frozen=True)
class WittRingParams:
    """W(F_{l^d})/l^m as (Z/l^m)[x]/(trivial lift of the field modulus); at
    m = 1 the field F_{l^d}, whose modulus has the same integers."""

    ell: int
    d: int
    m: int
    lifted_modulus: tuple  # length d+1, ascending, leading coefficient 1

    modulus = property(attrgetter("lifted_modulus"))

    @functools.cached_property
    def q(self):
        return self.ell ** self.m

    @property
    def residue_field(self):
        return make_field(self.ell, self.d)

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.ell}^{self.d})"
        return f"W(GF({self.ell}^{self.d}))/{self.ell}^{self.m}"


@functools.lru_cache(maxsize=None)
def _kronecker_plan(modulus, q, terms=1):
    """Slot layout and fold terms for sums of `terms` products mod (modulus, q).

    Such a sum of products of reduced operands with d coefficients has
    coefficients of at most terms * d * (q-1)^2, so a slot of k 64-bit words,
    k the fewest with 2^(64k) above that bound, holds each with no carry.
    Packing and unpacking are linear in d: struct calls on whole words when
    k = 1, one int.to_bytes or int.from_bytes per slot when k >= 2.
    Returns (pack, unpack, bytes of a product, bytes of a slot, fold terms,
    top slots, d).  The fold terms are (j - d, c_j) for the nonzero low
    coefficients c_j of the monic modulus, since
    x^d == -(c_0 + ... + c_{d-1} x^{d-1}).
    """
    d = len(modulus) - 1
    k = -(-(terms * d * (q - 1) ** 2).bit_length() // 64)
    fold = tuple((j - d, c) for j, c in enumerate(modulus[:-1]) if c)
    return (struct.Struct(f"<{d}Q").pack, struct.Struct(f"<{2 * d - 1}Q").unpack,
            8 * k * (2 * d - 1), 8 * k, fold, range(2 * d - 2, d - 1, -1), d)


def _kron_pack(x, plan):
    """The Kronecker integer of a canonical value (every coefficient in [0, q),
    as in every element and Mat entry), packed as it is."""
    width = plan[3]
    if width > 8:
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in x]),
                              "little")
    return int.from_bytes(plan[0](*x), "little")


def _kron_reduce(p, plan, q):
    """The d coefficients mod (modulus, q) of the polynomial packed in p.

    p is unpacked in one pass, its high coefficients are folded down through
    the modulus top-down, and the low d are reduced mod q once.
    """
    _, unpack, nbytes, width, fold, top, d = plan
    raw = p.to_bytes(nbytes, "little")
    if width > 8:
        prod = [int.from_bytes(raw[i:i + width], "little")
                for i in range(0, nbytes, width)]
    else:
        prod = list(unpack(raw))
    for i in top:
        c = prod[i]
        if c:
            for offset, mj in fold:
                prod[i + offset] -= c * mj
    return tuple([c % q for c in prod[:d]])


def _mul(ring, x, y):
    """The product of the canonical values x and y over ring: _matmul's
    one-term case with its own steps, one pack per operand, one big-integer
    product and one reduction (Kronecker substitution)."""
    q = ring.q
    if ring.d == 1:
        return (x[0] * y[0] % q,)
    plan = _kronecker_plan(ring.lifted_modulus, q)
    return _kron_reduce(_kron_pack(x, plan) * _kron_pack(y, plan), plan, q)


def _matmul(ring, a, b, inner, cols):
    """Row-major product of matrices of canonical values over ring.

    a has len(a) // inner rows and inner columns, b has inner rows and cols
    columns; a value is a d-tuple of ints in [0, q), as every element's
    coefficients and every Mat entry are, so none is checked.  Each output entry is one
    dot product: at d > 1 every input entry is packed once, the inner
    big-integer products of a row and a column are summed, and the sum is
    unpacked and folded once (Kronecker substitution applied to the whole dot
    product); at d = 1 the 1-tuples are unwrapped, a 2 x 2 product written out.
    """
    q = ring.q
    if ring.d == 1 and inner == cols == 2 and len(a) == 4:
        (a0,), (a1,), (a2,), (a3,), (b0,), (b1,), (b2,), (b3,) = *a, *b
        return (((a0 * b0 + a1 * b2) % q,), ((a0 * b1 + a1 * b3) % q,),
                ((a2 * b0 + a3 * b2) % q,), ((a2 * b1 + a3 * b3) % q,))
    if ring.d == 1:
        a, b = [x for (x,) in a], [y for (y,) in b]
    else:
        plan = _kronecker_plan(ring.lifted_modulus, q, inner)
        a = [_kron_pack(x, plan) for x in a]
        b = [_kron_pack(y, plan) for y in b]
    rows = [a[i:i + inner] for i in range(0, len(a), inner)]
    columns = [b[j::cols] for j in range(cols)]
    if ring.d == 1:
        return tuple([(sum(map(mul, r, c)) % q,) for r in rows for c in columns])
    return tuple([_kron_reduce(sum(map(mul, r, c)), plan, q)
                  for r in rows for c in columns])


def _poly_inverse(a, modulus, ell):
    """Inverse of a mod (modulus, ell), a given as d > 1 coefficients.

    The extended Euclidean algorithm over F_l[x] on the coefficients reduced
    mod l, tracking only the cofactor of a.  Raises ZeroInverse when a is 0
    mod l or, for a reducible modulus, shares a factor with it.
    """
    r1 = [c % ell for c in a]
    while r1 and not r1[-1]:
        r1.pop()
    if not r1:
        raise ZeroInverse("0 has no inverse")
    r0, s0, s1 = list(modulus), [], [1]
    while len(r1) > 1:
        # r0 = quot * r1 + rem, then (r0, r1) <- (r1, rem)
        lead = pow(r1[-1], -1, ell)
        n = len(r1) - 1
        quot = [0] * (len(r0) - n)
        for k in range(len(r0) - 1 - n, -1, -1):
            c = r0[k + n] * lead % ell
            quot[k] = c
            if c:
                for j in range(n):
                    r0[k + j] = (r0[k + j] - c * r1[j]) % ell
        del r0[n:]
        while r0 and not r0[-1]:
            r0.pop()
        # s0 - quot * s1, the cofactor of the new remainder
        s = s0 + [0] * (len(quot) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(quot):
            if qi:
                for j, sj in enumerate(s1):
                    s[i + j] = (s[i + j] - qi * sj) % ell
        while s and not s[-1]:
            s.pop()
        r0, r1, s0, s1 = r1, r0, s1, s
    if not r1:
        raise ZeroInverse("not invertible: shares a factor with the modulus")
    c = pow(r1[0], -1, ell)
    inv = [si * c % ell for si in s1]
    return tuple(inv) + (0,) * (len(a) - len(inv))


def _unit_inverse(ring, x):
    """Inverse of the unit with canonical value x over ring (q = l^m).  A
    constant x (every coefficient past the first 0, so every value at d = 1)
    is an integer unit mod q, inverted by pow at any d.  Otherwise the
    residual inverse by the extended Euclid, lifted by Newton steps (none
    when q = l, the field case).  Raises ZeroInverse when x is not a unit."""
    ell, q = ring.ell, ring.q
    if not any(x[1:]):
        if not x[0] % ell:
            raise ZeroInverse("not a unit")
        return (pow(x[0], -1, q),) + (0,) * (len(x) - 1)
    y = _poly_inverse(x, ring.lifted_modulus, ell)
    # y <- y(2 - xy) doubles the number of correct l-adic digits
    k = ell
    while k < q:
        t = _mul(ring, x, y)
        y = _mul(ring, y, ((2 - t[0]) % q,) + tuple([-c % q for c in t[1:]]))
        k *= k
    return y


def _power(x, e):
    """x^e for an element or a Mat, by binary powering.

    No product with 1, and no squaring past the top bit.
    """
    if e < 0:
        return _power(x.inverse(), -e)
    if e == 0:
        return witt_one(x.ring)
    result = None
    base = x
    while True:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if not e:
            return result
        base = base * base


def _int_poly_is_irreducible(coeffs, ell):
    """Irreducibility of a monic integer-coefficient polynomial over F_ell.

    Ben-Or's test: f of degree d is irreducible iff gcd(x^(ell^i) - x, f) = 1
    for every i <= d/2.  x^(ell^i) mod f is reached by repeated ell-th
    powers, and the test stops at the first common factor.
    """
    d = len(coeffs) - 1
    # F_ell[x]/(f): a field only when f is irreducible, but its arithmetic holds
    ring = WittRingParams(ell, d, 1, tuple(coeffs))
    x = witt_gen(ring)
    h = x
    for _ in range(d // 2):
        h = h ** ell
        try:
            # gcd(h - x, f) = 1 iff h - x is invertible mod f
            (h - x).inverse()
        except ZeroInverse:
            return False
    return True


def _binomial_is_irreducible(ell, d, c):
    """Irreducibility of x^d + c over F_ell, 0 < c < ell, d >= 2.

    Lidl-Niederreiter, Finite Fields, Thm 3.75: with a = -c of order e in
    F_ell^*, x^d - a is irreducible iff every prime factor of d divides e but
    not (ell - 1)/e, and ell = 1 mod 4 when 4 divides d.
    """
    a = -c % ell
    e = next(k for k in range(1, ell) if pow(a, k, ell) == 1)
    n = d
    for p in range(2, ell):
        if n % p == 0:
            if e % p or (ell - 1) // e % p == 0:
                return False
            while n % p == 0:
                n //= p
    return n == 1 and (d % 4 != 0 or ell % 4 == 1)


def check_ell(ell):
    """Raise unless ell is a prime >= 5, the residue characteristics supported."""
    if not _is_prime(ell):
        raise NotPrime(f"{ell} is not prime")
    if ell <= 3:
        raise EllTooSmall(f"ell must be >= 5, got {ell}")


@functools.lru_cache(maxsize=None)
def make_field(ell, d):
    """Field parameters for F_{l^d} with the smallest monic irreducible modulus.

    The search enumerates the non-leading coefficient tuple as base-l digits of
    0, 1, 2, ... (least significant digit = constant term), so the choice is
    deterministic.  Its first candidates, the binomials x^d + k (k < l), are
    decided by the binomial criterion, the rest by _int_poly_is_irreducible.
    """
    check_ell(ell)
    if d < 1:
        raise InvalidQuery(f"extension degree d = {d} must be >= 1")
    for k, digits in enumerate(itertools.product(range(ell), repeat=d)):
        coeffs = digits[::-1] + (1,)
        if d == 1 or (coeffs[0] != 0 and (
                _binomial_is_irreducible(ell, d, k) if k < ell
                else _int_poly_is_irreducible(coeffs, ell))):
            return WittRingParams(ell, d, 1, coeffs)
    raise RuntimeError("no irreducible modulus found")  # unreachable


@functools.lru_cache(maxsize=None)
def make_witt_ring(ell, d, m):
    """W(F_{l^d})/l^m with the trivial lift of make_field's modulus; at m = 1
    make_field's own object."""
    if m < 1:
        raise InvalidQuery(f"precision level m = {m} must be >= 1")
    fp = make_field(ell, d)
    return fp if m == 1 else WittRingParams(ell, d, m, fp.lifted_modulus)


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class WittElem:
    """Element of W(F_{l^d})/l^m, stored as a length-d coefficient tuple with
    every coefficient in [0, q), q = l^m: the constructor reduces each one
    mod q.  Equality and hashing read (ring, coeffs) only, so the class
    (FFElem at m = 1, see element) chooses the repr and nothing else.
    Operators build their results through _elem."""

    ring: WittRingParams
    coeffs: tuple

    def __post_init__(self):
        q = self.ring.q
        object.__setattr__(self, "coeffs", tuple([c % q for c in self.coeffs]))

    def __eq__(self, other):
        if not isinstance(other, WittElem):
            return NotImplemented
        return (self.ring, self.coeffs) == (other.ring, other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ParamMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        q = self.ring.q
        return _elem(self.ring, tuple([(a + b) % q for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other):
        self._check(other)
        q = self.ring.q
        return _elem(self.ring, tuple([(a - b) % q for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self):
        q = self.ring.q
        return _elem(self.ring, tuple([-a % q for a in self.coeffs]))

    def __mul__(self, other):
        self._check(other)
        return _elem(self.ring, _mul(self.ring, self.coeffs, other.coeffs))

    __pow__ = _power

    def inverse(self):
        """Inverse of a unit: pow for a constant, else residual inverse plus Newton lifting."""
        if not self.is_unit():
            raise ZeroInverse("not a unit")
        return _elem(self.ring, _unit_inverse(self.ring, self.coeffs))

    def __truediv__(self, other):
        return self * other.inverse()

    def is_zero(self):
        return not any(self.coeffs)

    def is_unit(self):
        ell = self.ring.ell
        for c in self.coeffs:
            if c % ell:
                return True
        return False

    def valuation(self):
        """min_i v_l(c_i), saturated at m for the zero element."""
        ell, best = self.ring.ell, self.ring.m
        for c in self.coeffs:
            if c:
                v = 0
                while c % ell == 0:
                    c //= ell
                    v += 1
                best = min(best, v)
        return best

    def residue(self):
        return self.reduce(1)

    def reduce(self, m2):
        """Reduction to precision m2 <= m (a ring map)."""
        if m2 > self.ring.m:
            raise ParamMismatch("cannot reduce to higher precision")
        return element(make_witt_ring(self.ring.ell, self.ring.d, m2), self.coeffs)

    def sort_key(self):
        return self.coeffs

    def __repr__(self):
        return witt_to_str(self)


class FFElem(WittElem):
    """Element of F_{l^d} = W(F_{l^d})/l: a WittElem with the field's repr
    and no arithmetic of its own.  The benchmark tracer and the tests read
    params and wrap each class's own __mul__ and inverse, hence the alias
    and the two bindings."""

    @property
    def params(self):
        return self.ring

    __mul__ = WittElem.__mul__
    inverse = WittElem.inverse

    def __repr__(self):
        return f"ff({list(self.coeffs)})"


_new = object.__new__


def _elem(ring, coeffs):
    """The element of ring with the canonical coefficient tuple coeffs, every
    coefficient in [0, q): an FFElem at m = 1, else a WittElem, filled into
    its __dict__ as matlin._mat fills a Mat, so nothing is reduced or checked."""
    x = _new(FFElem if ring.m == 1 else WittElem)
    fields = x.__dict__
    fields["ring"] = ring
    fields["coeffs"] = coeffs
    return x


def element(ring, coeffs):
    """The element of ring with the coefficients coeffs, each reduced mod q:
    an FFElem at m = 1, else a WittElem."""
    q = ring.q
    return _elem(ring, tuple([c % q for c in coeffs]))


def witt_zero(ring):
    return _elem(ring, (0,) * ring.d)


def witt_one(ring):
    return _elem(ring, (1,) + (0,) * (ring.d - 1))


def witt_from_int(ring, k):
    return element(ring, (k,) + (0,) * (ring.d - 1))


def witt_gen(ring):
    """Class of x (the constant -c0 when d = 1)."""
    if ring.d == 1:
        return element(ring, (-ring.lifted_modulus[0],))
    return element(ring, (0, 1) + (0,) * (ring.d - 2))


ff_zero, ff_one, ff_from_int, ff_gen = witt_zero, witt_one, witt_from_int, witt_gen


def witt_elements(ring):
    # the first coefficient varies fastest
    for coeffs in itertools.product(range(ring.q), repeat=ring.d):
        yield _elem(ring, coeffs[::-1])


def lift_trivial(a, m):
    """The coefficient-wise (non-multiplicative) lift F_{l^d} -> W(F_{l^d})/l^m."""
    return element(make_witt_ring(a.ring.ell, a.ring.d, m), a.coeffs)


def witt_scale(x, k):
    """x * k for an integer k (avoids building witt_from_int repeatedly)."""
    q = x.ring.q
    return _elem(x.ring, tuple([c * k % q for c in x.coeffs]))


def witt_digit(x, k):
    """The k-th l-adic digit of x, an element of the residue field: the
    coefficients (c // l^k) mod l."""
    ell, lk = x.ring.ell, x.ring.ell ** k
    return _elem(x.ring.residue_field, tuple([c // lk % ell for c in x.coeffs]))


# ---------------------------------------------------------------------------
# serialization


_WITT_RE = re.compile(r"^(\d+)\^(\d+):(\d+):\[([-\d,\s]*)\]$")


def witt_to_str(x):
    return f"{x.ring.ell}^{x.ring.m}:{x.ring.d}:[{','.join(str(c) for c in x.coeffs)}]"


def witt_from_str(s):
    mo = _WITT_RE.match(s.strip()) if isinstance(s, str) else None
    if not mo:
        raise InvalidQuery(f"bad witt element literal: {s!r}")
    ell, m, d = int(mo.group(1)), int(mo.group(2)), int(mo.group(3))
    body = mo.group(4).strip()
    coeffs = tuple(int(t) for t in body.split(",")) if body else ()
    if len(coeffs) != d:
        raise InvalidQuery(f"expected {d} coefficients in {s!r}")
    return element(make_witt_ring(ell, d, m), coeffs)


# ---------------------------------------------------------------------------
# Teichmuller lift and Frobenius


def teichmuller(a, m):
    """The unique multiplicative lift of a to W(F_{l^d})/l^m (x^{l^d} = x)."""
    if m < 1:
        raise ParamMismatch("precision must be >= 1")
    y = lift_trivial(a, m)
    e = a.ring.ell ** a.ring.d
    for _ in range(m - 1):
        y2 = y ** e
        if y2 == y:
            break
        y = y2
    return y


@functools.lru_cache(maxsize=None)
def _monomial_table(ell, d, m, k):
    """Frobenius^k on W(F_{l^d})/l^m as a scaled permutation, or None.

    When the modulus is X^d + a with l not dividing d, the canonical Frobenius
    sends X to c*X^l, where c = 1 mod l and c^d = (-a)^(1-l) (Hensel's lemma).
    So Frobenius^k sends X^i to mult[i]*X^perm[i], with perm[i] = i*l^k mod d
    and mult[i] = c_k^i * (-a)^floor(i*l^k/d), c_k = c * c_{k-1}^l.  Returns
    (perm, mult), or None for d = 1 and for other moduli.
    """
    f = make_field(ell, d).modulus
    if d == 1 or any(f[1:-1]) or d % ell == 0:
        return None
    q = ell ** m
    na, phi = -f[0] % q, q // ell * (ell - 1)
    c = pow(pow(na, 1 - ell, q), pow(d, -1, q // ell), q)
    ck = 1
    for _ in range(k):
        ck = pow(ck, ell, q) * c % q
    # floor(i*l^k/d) mod phi(q) is floor(i*L/d) for L = l^k mod d*phi(q)
    L = pow(ell, k, d * phi)
    return ([i * L % d for i in range(d)],
            [pow(ck, i, q) * pow(na, i * L // d, q) % q for i in range(d)])


def _scatter(coeffs, perm, mult, ring):
    """The element sum c_i * mult[i] * X^perm[i] of ring."""
    out = [0] * ring.d
    q = ring.q
    for c, p, s in zip(coeffs, perm, mult):
        out[p] = c * s % q
    return _elem(ring, tuple(out))


def _lifted_root(small, big, rbar):
    """The root in big of small's lifted modulus congruent to rbar (Hensel)."""
    return hensel_root([witt_from_int(big, c) for c in small.lifted_modulus], rbar)


def _powers(g, n):
    """1, g, g^2, ..., g^(n-1), as a tuple: the caches share it."""
    powers = [witt_one(g.ring)]
    for _ in range(n - 1):
        powers.append(powers[-1] * g)
    return tuple(powers)


def _power_sum(v, powers, q):
    """sum c_i g^i as a canonical value mod q, for v = (c_0, c_1, ...) and
    the powers of g."""
    acc = [0] * len(powers[0].coeffs)
    for c, p in zip(v, powers):
        if c:
            acc = [a + c * b for a, b in zip(acc, p.coeffs)]
    return tuple([a % q for a in acc])


def _substitute(x, powers, big):
    """The image sum c_i g^i in big of x = sum c_i X^i, given the powers of g."""
    return _elem(big, _power_sum(x.coeffs, powers, big.q))


@functools.lru_cache(maxsize=None)
def _frobenius_powers(ring):
    """Powers of the Frobenius image of the ring generator: the residual
    image of the generator under a -> a^l, Hensel-lifted to a root of the
    lifted modulus."""
    gbar = ff_gen(ring.residue_field) ** ring.ell
    return _powers(_lifted_root(ring, ring, gbar), ring.d)


def hensel_frobenius(x):
    """The canonical Frobenius lift through the Hensel-lifted generator image,
    on any modulus; witt_frobenius_power takes it where no monomial table
    exists."""
    if x.ring.d == 1:
        return x  # Frobenius is the identity
    return _substitute(x, _frobenius_powers(x.ring), x.ring)


def witt_frobenius(x):
    """The canonical Frobenius lift; reduces to a -> a^l, has order dividing d."""
    return witt_frobenius_power(x, 1)


def witt_frobenius_power(x, k):
    """Frobenius^k: one scaled permutation on a binomial modulus, else k
    hensel_frobenius steps."""
    r = x.ring
    k %= r.d
    if not k:
        return x
    table = _monomial_table(r.ell, r.d, r.m, k)
    if table is None:
        for _ in range(k):
            x = hensel_frobenius(x)
        return x
    return _scatter(x.coeffs, *table, r)


# ---------------------------------------------------------------------------
# Hensel's lemma


def hensel_root(poly, rbar):
    """Unique root of poly congruent to the simple residual root rbar.

    poly is an ascending list of WittElem; rbar an FFElem with poly(rbar) = 0
    and poly'(rbar) != 0 residually.  Newton iteration in exact arithmetic.
    """
    ring = poly[0].ring
    m = ring.m

    def ev(p, t):
        acc = witt_zero(ring)
        for c in reversed(p):
            acc = acc * t + c
        return acc

    deriv = [witt_scale(c, i) for i, c in enumerate(poly)][1:]
    r = lift_trivial(rbar, m)
    if not ev(poly, r).residue().is_zero():
        raise NotASimpleRoot("residual value is nonzero")
    d0 = ev(deriv, r)
    if not d0.is_unit():
        raise NotASimpleRoot("residual derivative vanishes")
    for _ in range(m + 1):
        fr = ev(poly, r)
        if fr.is_zero():
            break
        r = r - fr * ev(deriv, r).inverse()
    return r


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_{l^d} (lists of FFElem, ascending)


def poly_trim(p):
    while p and p[-1].is_zero():
        p = p[:-1]
    return p


def poly_deg(p):
    return len(p) - 1


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return poly_trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def poly_sub(a, b):
    return poly_add(a, [-c for c in b])


def poly_mul(a, b):
    if not a or not b:
        return []
    params = a[0].ring
    out = [ff_zero(params) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return poly_trim(out)


def poly_divmod(a, b):
    b = poly_trim(list(b))
    if not b:
        raise ZeroPolynomial("division by zero polynomial")
    a = list(poly_trim(list(a)))
    params = b[0].ring
    inv_lead = b[-1].inverse()
    quot = [ff_zero(params)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv_lead
        shift = len(a) - len(b)
        quot[shift] = c
        for i in range(len(b)):
            a[shift + i] = a[shift + i] - c * b[i]
        a = list(poly_trim(a))
        if not a:
            break
    return poly_trim(quot), a


def poly_mod(a, b):
    return poly_divmod(a, b)[1]


def poly_gcd(a, b):
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        a, b = b, poly_mod(a, b)
    return poly_monic(a)

def poly_monic(a):
    a = poly_trim(list(a))
    if not a:
        return a
    inv = a[-1].inverse()
    return [c * inv for c in a]


def poly_powmod(base, e, mod):
    params = mod[0].ring
    result = [ff_one(params)]
    base = poly_mod(base, mod)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base), mod)
        base = poly_mod(poly_mul(base, base), mod)
        e >>= 1
    return result


def poly_deriv(a):
    return poly_trim([witt_scale(c, i) for i, c in enumerate(a)][1:])


def _poly_sort_key(p):
    return (poly_deg(p), tuple(c.sort_key() for c in p))


def ff_factorize(poly):
    """Factor a polynomial over F_{l^d} into monic irreducibles.

    Returns a list of (factor, multiplicity) pairs in canonical order
    (degree, then lexicographic on coefficient serialization).  The product of
    the factors equals the input up to the leading unit.
    """
    poly = poly_trim(list(poly))
    if not poly:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    params = poly[0].ring
    q = params.ell ** params.d
    rng = random.Random(_FACTOR_SEED)
    factors = {}

    def add(f, mult):
        key = tuple(c.coeffs for c in f)
        if key in factors:
            factors[key] = (f, factors[key][1] + mult)
        else:
            factors[key] = (f, mult)

    yield_list = []

    def collect_squarefree(f, outer_mult):
        f = poly_monic(f)
        if poly_deg(f) == 0:
            return
        df = poly_deriv(f)
        if not df:
            ell = params.ell
            g = [f[i * ell] ** (q // ell) for i in range(poly_deg(f) // ell + 1)]
            collect_squarefree(g, outer_mult * ell)
            return
        c = poly_gcd(f, df)
        w = poly_divmod(f, c)[0]
        mult = 1
        while poly_deg(w) > 0:
            y = poly_gcd(w, c)
            part = poly_divmod(w, y)[0]
            if poly_deg(part) > 0:
                yield_list.append((part, outer_mult * mult))
            w = y
            c = poly_divmod(c, y)[0]
            mult += 1
        if poly_deg(c) > 0:
            collect_squarefree(c, outer_mult)

    collect_squarefree(poly, 1)

    for part, mult in yield_list:
        # distinct-degree then equal-degree splitting
        f = part
        k = 1
        x_poly = [ff_zero(params), ff_one(params)]
        h = x_poly
        while poly_deg(f) >= 2 * k:
            h = poly_powmod(h, q, f)
            g = poly_gcd(poly_sub(h, x_poly), f)
            if poly_deg(g) > 0:
                for irr in _equal_degree_split(g, k, rng):
                    add(irr, mult)
                f = poly_divmod(f, g)[0]
                h = poly_mod(h, f)
            k += 1
        if poly_deg(f) > 0:
            add(poly_monic(f), mult)

    return sorted(factors.values(), key=lambda fm: _poly_sort_key(fm[0]))


def _equal_degree_split(f, k, rng):
    """Cantor-Zassenhaus split of a product of degree-k irreducibles."""
    params = f[0].ring
    n = poly_deg(f)
    if n == k:
        return [poly_monic(f)]
    e = (params.ell ** (params.d * k) - 1) // 2
    while True:
        r = [element(params, tuple(rng.randrange(params.ell) for _ in range(params.d)))
             for _ in range(n)]
        r = poly_trim(r)
        if poly_deg(r) < 1:
            continue
        g = poly_gcd(r, f)
        if not 0 < poly_deg(g) < n:
            s = poly_powmod(r, e, f)
            g = poly_gcd(poly_sub(s, [ff_one(params)]), f)
            if not (0 < poly_deg(g) < n):
                continue
        left = _equal_degree_split(g, k, rng)
        right = _equal_degree_split(poly_divmod(f, g)[0], k, rng)
        return left + right


def ff_roots(poly):
    """Roots in the coefficient field, with multiplicity, canonically ordered."""
    out = []
    for f, mult in ff_factorize(poly):
        if poly_deg(f) == 1:
            out.append((-f[0], mult))
    out.sort(key=lambda rm: rm[0].sort_key())
    return out


# ---------------------------------------------------------------------------
# embeddings and subring membership


@functools.lru_cache(maxsize=None)
def _composed(ell, d, d_big):
    """True when the degree-d_big modulus is the degree-d one composed with
    x^(d_big/d): then X -> X^(d_big/d) is a ring map, and embed a scatter.
    Decided once per (l, d, d_big)."""
    small, big = make_field(ell, d).modulus, make_field(ell, d_big).modulus
    k = d_big // d
    return big[::k] == small and not any(c for i, c in enumerate(big) if i % k)


@functools.lru_cache(maxsize=None)
def _embedding_powers(small, big):
    """Powers of the image of the small ring generator inside the big ring.

    Composed pairs and base pairs choose the Hensel lift of _residual_root;
    other composite degree jumps lift it into the largest intermediate ring
    and substitute that through the intermediate generator's powers, so that
    chains compose exactly and agree with embed's scatter.
    """
    intermediates = [] if _composed(small.ell, small.d, big.d) else [
        e for e in range(small.d + 1, big.d) if e % small.d == 0 and big.d % e == 0]
    mid = make_witt_ring(small.ell, max(intermediates), small.m) if intermediates else big
    g = _lifted_root(small, mid, _residual_root(small.ell, small.d, mid.d))
    if intermediates:
        g = _substitute(g, _embedding_powers(mid, big), big)
    return _powers(g, small.d)


@functools.lru_cache(maxsize=None)
def _residual_root(ell, d, d_big):
    """A root of the F_{l^d} modulus in F_{l^d_big}: the class of x^(d_big/d)
    on a _composed pair, else the smallest by sort_key from ff_roots.  The
    root does not depend on the precision m, so it is cached per (l, d, d_big).
    """
    big = make_field(ell, d_big)
    if _composed(ell, d, d_big):
        return ff_gen(big) ** (d_big // d)
    roots = ff_roots([ff_from_int(big, c) for c in make_field(ell, d).modulus])
    if not roots:
        raise NonDivisibleDegrees("small modulus has no root in the big field")
    return roots[0][0]


def _embedding(small, d_big):
    """(big, image): big = W(F_{l^d_big})/l^m and image the map of embed
    from small into it on canonical values.

    The stride scatter X^i -> X^(i*d'/d) from degree 1 and on _composed
    pairs (every 2-power pair at l = 5 and 13), else a sum over the
    Hensel-lifted generator powers.
    """
    if d_big % small.d != 0:
        raise NonDivisibleDegrees(f"{small.d} does not divide {d_big}")
    big = make_witt_ring(small.ell, d_big, small.m)
    if small.d > 1 and not _composed(small.ell, small.d, d_big):
        powers, q = _embedding_powers(small, big), big.q
        return big, lambda v: _power_sum(v, powers, q)
    stride = d_big // small.d

    def scatter(v):
        out = [0] * d_big
        out[::stride] = v
        return tuple(out)
    return big, scatter


def embed(x, d_big):
    """Injective ring map W(F_{l^d})/l^m -> W(F_{l^d'})/l^m for d | d'."""
    if x.ring.d == d_big:
        return x
    big, image = _embedding(x.ring, d_big)
    return _elem(big, image(x.coeffs))


def in_subring(x, d0):
    """True iff x lies in the image of W(F_{l^{d0}})/l^m, for d0 | d: x equals
    its Frobenius^d0 image."""
    r = x.ring
    if r.d % d0 != 0:
        raise NonDivisibleDegrees(f"{d0} does not divide {r.d}")
    return (witt_frobenius_power(x, d0) - x).is_zero()
