"""Brute-force oracles: cohomology of small finite groups, integrality of
integral_model's conjugates in plain integers, matrix orders, a reference
integral-model decision on exact Fractions, and a cocycle's value at a word
by the prefix walk.  None of them but the walk multiplies through Mat, and
the walk shares nothing with the Fox Jacobians it checks.

The cohomology oracle shares no arithmetic with the library: it reads the
faithful realization and the module action once as integers, enumerates the
group elements on integer matrices mod l, and tests every assignment of
generator values directly against the crossed-homomorphism rule on all
(element, generator) edges, with numpy.
"""

import itertools
from fractions import Fraction

import numpy as np

import wittlift.coeffring as cr
from wittlift.errors import Singular, UnknownGenerator
from wittlift.matlin import Mat


def matrix_order(y, cap=10 ** 7):
    """The least k >= 1 with y^k = 1, by repeated products on y's entries,
    read once: on integers mod q at d = 1, and with a schoolbook polynomial
    product mod the ring's modulus at d > 1.  Singular past cap."""
    ring, n = y.ring, y.n
    modulus = getattr(ring, "lifted_modulus", None) or ring.modulus
    q, d = getattr(ring, "q", ring.ell), len(modulus) - 1
    if d == 1:
        entries = [c for (c,) in y.entries]
        ident = [int(i == j) for i in range(n) for j in range(n)]

        def dot(row, col):
            return sum(a * b for a, b in zip(row, col)) % q
    else:
        entries = list(y.entries)
        ident = [tuple(int(i == j and k == 0) for k in range(d))
                 for i in range(n) for j in range(n)]

        def dot(row, col):
            prod = [0] * (2 * d - 1)
            for a, b in zip(row, col):
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        prod[i + j] += ai * bj
            # x^d = -(modulus[0] + ... + modulus[d-1] x^(d-1))
            for top in range(2 * d - 2, d - 1, -1):
                for j in range(d):
                    prod[top - d + j] -= prod[top] * modulus[j]
            return tuple(c % q for c in prod[:d])
    cols = [entries[j::n] for j in range(n)]
    acc = entries
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = [dot(acc[i * n:(i + 1) * n], col) for i in range(n) for col in cols]
    raise Singular("order exceeds cap (matrix not of finite order?)")


def _int_action(mat):
    """The entries of a d = 1 Mat as an n x n integer array."""
    return np.array([c for (c,) in mat.entries], dtype=np.int64).reshape(mat.n, mat.n)


def enumerate_elements(images, action, ell):
    """BFS over the faithful realization on integer matrices mod ell.

    Returns (acts, edges): acts[i] is the module action of element i
    (element 0 the identity), edges the (element, generator index, product)
    triples for every element and generator, in discovery order.
    """
    n = images[0].shape[0]
    mats = [np.eye(n, dtype=np.int64)]
    acts = [np.eye(action[0].shape[0], dtype=np.int64)]
    index = {mats[0].tobytes(): 0}
    edges = []
    frontier = [0]
    while frontier:
        nxt = []
        for ei in frontier:
            for gi, image in enumerate(images):
                prod = mats[ei] @ image % ell
                key = prod.tobytes()
                if key not in index:
                    index[key] = len(mats)
                    mats.append(prod)
                    acts.append(acts[ei] @ action[gi] % ell)
                    nxt.append(index[key])
                edges.append((ei, gi, index[key]))
        frontier = nxt
    return acts, edges


def _log(n, ell):
    k = 0
    while n > 1:
        assert n % ell == 0, n
        n //= ell
        k += 1
    return k


def brute_force_h1(group, images, module):
    """(dim Z^1, dim B^1, h^1) by exhaustive enumeration over F_ell.

    The generator images and the module action are read once as integer
    arrays; everything after is numpy arithmetic mod ell.  Every assignment
    of generator values is extended along the BFS spanning tree by
    f(xg) = f(x) + x.f(g) and tested against that rule on every edge, all
    assignments at once; B^1 counts the distinct (A_g m - m)_g over m.
    """
    ell = module.field.ell
    assert module.field.d == 1
    dim, ngen = module.dim, len(group.generators)
    action = [_int_action(module.action[name]) for name in group.generators]
    acts, edges = enumerate_elements(
        [_int_action(images[name]) for name in group.generators], action, ell)

    # every assignment: f[a, g] is the value at generator g, a in F_ell^(ngen*dim)
    flat = np.array(list(itertools.product(range(ell), repeat=ngen * dim)), dtype=np.int64)
    f = flat.reshape(-1, ngen, dim)
    values = np.zeros((len(flat), len(acts), dim), dtype=np.int64)
    seen = {0}
    for ei, gi, ti in edges:  # discovery edges in BFS order fill the tree
        if ti not in seen:
            seen.add(ti)
            values[:, ti] = (values[:, ei] + f[:, gi] @ acts[ei].T) % ell
    ok = np.ones(len(flat), dtype=bool)
    for ei, gi, ti in edges:
        want = (values[:, ei] + f[:, gi] @ acts[ei].T) % ell
        ok &= (want == values[:, ti]).all(axis=1)
    dim_z = _log(int(ok.sum()), ell)

    ms = np.array(list(itertools.product(range(ell), repeat=dim)), dtype=np.int64)
    cob = np.concatenate([(ms @ a.T - ms) % ell for a in action], axis=1)
    dim_b = _log(len(np.unique(cob, axis=0)), ell)
    return dim_z, dim_b, dim_z - dim_b


def pairing(x, phi):
    """The standard pairing sum_i x_i * phi_i of two vectors of elements."""
    acc = x[0] * phi[0]
    for a, b in zip(x[1:], phi[1:]):
        acc = acc + a * b
    return acc


def mat_apply(mat, vec):
    """The Mat times the column vector vec of elements, on its element rows."""
    return tuple(pairing(row, vec) for row in mat.rows)


def walk_cocycle(module, values, word):
    """f(word) by the prefix walk f(gh) = f(g) + g.f(h), f(g^-1) = -g^-1.f(g),
    on element vectors and Mat products: the oracle of cohomology.cocycle_eval,
    which takes none of its Fox Jacobian path.  values maps each generator to
    canonical values, and the result is canonical values too."""
    field, dim = module.field, module.dim
    acc = (cr.ff_zero(field),) * dim
    prefix = Mat.identity(field, dim)
    for name, e in word:
        if name not in values:
            raise UnknownGenerator(name)
        v = tuple(cr.element(field, x) for x in values[name])
        a = module.act_gen(name)
        if e >= 0:
            for _ in range(e):
                acc = tuple(x + y for x, y in zip(acc, mat_apply(prefix, v)))
                prefix = prefix * a
        else:
            ainv = module.act_gen(name, -1)
            vinv = tuple(-x for x in mat_apply(ainv, v))
            for _ in range(-e):
                prefix = prefix * ainv
                acc = tuple(x + y for x, y in zip(acc, mat_apply(prefix * a, vinv)))
    return [x.coeffs for x in acc]


def _int_valuation(x, ell, m):
    """v_l(x mod l^m), saturated at m."""
    x %= ell ** m
    if not x:
        return m
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


def _int_matrix(a, ell):
    """(e, A') with a = A' / l^e and A' integral, read off each entry's
    num.coeffs[0] and den (degree-1 entries); no KElem arithmetic."""
    e = max((x.den for row in a for x in row if not x.is_exact_zero()), default=0)
    return e, [[0 if x.is_exact_zero() else x.num.coeffs[0] * ell ** (e - x.den)
                for x in row] for row in a]


def conjugate_is_integral(p, g, ell, m):
    """Whether P^-1 g P is integral, for 2 x 2 matrices of KElem over
    W(F_l)/l^m, in plain integers.

    With P = P'/l^e and g = G'/l^k, P^-1 g P = adj(P') G' P' / (det P' l^k),
    so it is integral iff every entry of adj(P') G' P' has valuation at
    least v(det P') + k.  That bound must stay at most m/2, so that the
    check is decided well inside the working precision.
    """
    _, pp = _int_matrix(p, ell)
    k, gg = _int_matrix(g, ell)
    need = _int_valuation(pp[0][0] * pp[1][1] - pp[0][1] * pp[1][0], ell, m) + k
    assert need <= m // 2, f"conjugator too close to singular ({need})"
    adj = [[pp[1][1], -pp[0][1]], [-pp[1][0], pp[0][0]]]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2)]
                for i in range(2)]
    return all(_int_valuation(x, ell, m) >= need
               for row in mul(mul(adj, gg), pp) for x in row)


# ---------------------------------------------------------------------------
# reference integral model on exact Fractions
#
# The decision integral_model makes, computed the direct way on Fractions:
# every entry, characteristic-polynomial coefficient and lattice vector is a
# Fraction, and module_basis scales each pivot to exactly l^v as it goes.  It
# uses nothing from wittlift, so the integer implementation is checked
# against an independent computation; outcomes are (exception class name,
# message) pairs, or ("ok", P) with P the conjugator's values.


def fraction_val(x, ell):
    """v_l of the nonzero rational x."""
    x, v = Fraction(x), 0
    num, den = x.numerator, x.denominator
    while num % ell == 0:
        num, v = num // ell, v + 1
    while den % ell == 0:
        den, v = den // ell, v - 1
    return v


def fraction_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def fraction_char_poly(a):
    """det(xI - a) as ascending Fractions c_0, ..., c_n, by Faddeev-LeVerrier."""
    n = len(a)
    c, am = [Fraction(1)], a
    for k in range(1, n + 1):
        c.append(-sum(am[i][i] for i in range(n)) / k)
        if k < n:
            am = fraction_matmul(a, [[x + c[k] if i == j else x for j, x in enumerate(row)]
                                     for i, row in enumerate(am)])
    return c[::-1]


class _Outcome(Exception):
    def __init__(self, kind, message):
        super().__init__(kind, message)
        self.kind, self.message = kind, message


def _fraction_refute(word, c, ell):
    n = len(c) - 1
    if fraction_val(c[0], ell):
        raise _Outcome("UnboundedGroup",
                       f"{word}: det {(-1) ** n * c[0]} is not a {ell}-adic unit")
    for k in range(n - 1, 0, -1):
        if c[k] and fraction_val(c[k], ell) < 0:
            what = (f"trace {-c[k]}" if k == n - 1 else
                    f"x^{k} coefficient {c[k]} of the characteristic polynomial")
            raise _Outcome("UnboundedGroup", f"{word}: {what} is not {ell}-integral")


def fraction_module_basis(vecs, ell):
    """Minimal-valuation elimination on Fraction vectors; basis vector i has
    its pivot, exactly l^v, at row i."""
    n, cols = len(vecs[0]), [list(v) for v in vecs]
    basis = {}
    while cols and len(basis) < n:
        best = None
        for j, col in enumerate(cols):
            for i, x in enumerate(col):
                if x and i not in basis:
                    v = fraction_val(x, ell)
                    if best is None or v < best[0]:
                        best = (v, j, i)
        if best is None:
            break
        v, j, i = best
        s = Fraction(ell) ** v / cols[j][i]
        pivot = [x * s for x in cols.pop(j)]
        for col in cols:
            if col[i]:
                f = col[i] / pivot[i]
                col[:] = [x - f * y for x, y in zip(col, pivot)]
        basis[i] = pivot
    if len(basis) < n:
        raise _Outcome("DoesNotSpan", f"generators span a module of rank {len(basis)} < {n}")
    return [basis[i] for i in range(n)]


def fraction_integral_model(gens, ell, rounds_cap=50):
    """The integral-model outcome for square Fraction matrices gens: ("ok",
    P) or (exception class name, message), with at most rounds_cap
    saturation rounds for n >= 3."""
    n = len(gens[0])
    try:
        polys = [fraction_char_poly(a) for a in gens]
        for gi, c in enumerate(polys):
            if not c[0]:
                raise _Outcome("InvalidQuery", f"generator {gi} is singular: det = 0")
        for gi, c in enumerate(polys):
            _fraction_refute(f"generator {gi}", c, ell)
        for i, j in itertools.combinations(range(len(gens)), 2):
            _fraction_refute(f"generators {i} * {j}",
                             fraction_char_poly(fraction_matmul(gens[i], gens[j])), ell)
        basis = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
        vdet = 0
        for rounds in itertools.count(1):
            if n >= 3 and rounds > rounds_cap:
                raise _Outcome("Undecided", f"no word of length <= 2 is a witness and the "
                               f"saturation did not close in {rounds_cap} rounds (n = {n})")
            basis = fraction_module_basis(basis + [
                [sum(x * y for x, y in zip(row, b)) for row in a] for a in gens for b in basis],
                ell)
            new = sum(fraction_val(basis[i][i], ell) for i in range(n))
            if new == vdet:
                return "ok", [[basis[j][i] for j in range(n)] for i in range(n)]
            vdet = new
    except _Outcome as out:
        return out.kind, out.message
