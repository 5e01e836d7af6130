"""Independent references for the benchmark's correctness checks.

Nothing here imports wittlift or numpy.  Ring elements are plain integer
coefficient tuples, matrices are nested tuples, and every routine is the
schoolbook version, so a defect in the library's fast paths cannot hide in
the reference that checks it.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# (Z/q)[x]/(f) with f monic, coefficient tuples in ascending order


def poly_mulmod(a, b, f, q):
    d = len(f) - 1
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i] % q
        if c:
            for j in range(d):
                prod[i - d + j] -= c * f[j]
    return tuple(c % q for c in prod[:d])


def _const(k, d, q):
    return (k % q,) + (0,) * (d - 1)


def _padd(a, b, q):
    return tuple((x + y) % q for x, y in zip(a, b))


def _psub(a, b, q):
    return tuple((x - y) % q for x, y in zip(a, b))


def mat_mul(x, y, f, q):
    """2x2 product over (Z/q)[x]/(f)."""
    return tuple(
        tuple(_padd(poly_mulmod(x[i][0], y[0][j], f, q),
                    poly_mulmod(x[i][1], y[1][j], f, q), q) for j in range(2))
        for i in range(2))


def mat_det(x, f, q):
    return _psub(poly_mulmod(x[0][0], x[1][1], f, q),
                 poly_mulmod(x[0][1], x[1][0], f, q), q)


def mat_identity(d, q):
    one, zero = _const(1, d, q), _const(0, d, q)
    return ((one, zero), (zero, one))


def _mat_scale_int(x, k, q):
    return tuple(tuple(tuple(c * k % q for c in e) for e in row) for row in x)


def word_image(images, word, inverses, f, q, d):
    """Product of generator images along a word; inverses[g] is g^-1."""
    acc = mat_identity(d, q)
    for name, e in word:
        base = images[name] if e > 0 else inverses[name]
        for _ in range(abs(e)):
            acc = mat_mul(acc, base, f, q)
    return acc


_WORD_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")


def parse_word(text):
    out = []
    for tok in text.split():
        mo = _WORD_TOKEN.match(tok)
        if not mo:
            raise ValueError(f"bad word token {tok!r}")
        out.append((mo.group(1), int(mo.group(2) or 1)))
    return tuple(out)


_WITT = re.compile(r"^(\d+)\^(\d+):(\d+):\[([-\d,\s]*)\]$")


def parse_witt(text):
    """'l^m:d:[c0,...]' -> (ell, m, d, coefficient tuple)."""
    mo = _WITT.match(text.strip())
    if not mo:
        raise ValueError(f"bad element literal {text!r}")
    body = mo.group(4).strip()
    coeffs = tuple(int(t) for t in body.split(",")) if body else ()
    return int(mo.group(1)), int(mo.group(2)), int(mo.group(3)), coeffs


# ---------------------------------------------------------------------------
# irreducibility over F_p (Rabin's test)


def _pgcd_degree(a, b, p):
    """Degree of gcd(a, b) over F_p (-1 for the zero polynomial)."""
    def trim(x):
        x = [c % p for c in x]
        while x and x[-1] == 0:
            x.pop()
        return x
    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) - 1


def is_irreducible_mod_p(f, p):
    """True iff the monic f (ascending integer tuple) is irreducible mod p."""
    d = len(f) - 1
    if d < 1 or f[-1] % p != 1:
        return False
    if d == 1:
        return True
    fp = tuple(c % p for c in f)

    def frob(h):  # h^p mod f
        out = _const(1, d, p)
        for _ in range(p):
            out = poly_mulmod(out, h, fp, p)
        return out

    x = (0, 1) + (0,) * (d - 2)
    powers = [x]  # x^(p^k) for k = 0..d
    for _ in range(d):
        powers.append(frob(powers[-1]))
    if powers[d] != x:
        return False
    primes = {r for r in range(2, d + 1) if d % r == 0
              and all(r % s for s in range(2, r))}
    for r in primes:
        h = [(a - b) % p for a, b in zip(powers[d // r], x)]
        if _pgcd_degree(h, fp, p) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# serialized towers


def check_tower(data, modulus_for):
    """Failures of a serialized tower under the benchmark's own arithmetic.

    Every level i must have degree 2^(i-1) and precision i, determinants equal
    to epsilon, and every relator mapping to the identity, all recomputed
    from the serialized coefficients over (Z/l^m)[x]/(f).  modulus_for(ell, d)
    supplies f, which is itself checked to be monic and irreducible mod l.
    """
    failures = []
    group = data["group"]
    relators = [parse_word(r) for r in group["relators"]]
    eps = {k: int(v) for k, v in group["epsilon"].items()}
    checked_moduli = {}
    for i, lvl in enumerate(data["levels"], start=1):
        rho = lvl["deformation"]
        ell, d, m = int(rho["ell"]), int(rho["d"]), int(rho["m"])
        if (d, m) != (2 ** (i - 1), i):
            failures.append(f"level {i}: degree {d}, precision {m}")
            continue
        q = ell ** m
        f = tuple(modulus_for(ell, d))
        if (ell, d) not in checked_moduli:
            checked_moduli[(ell, d)] = len(f) == d + 1 and is_irreducible_mod_p(f, ell)
        if not checked_moduli[(ell, d)]:
            failures.append(f"level {i}: modulus {f} is not monic irreducible mod {ell}")
            continue
        images, inverses = {}, {}
        for name, rows in rho["images"].items():
            mat = []
            for row in rows:
                out = []
                for text in row:
                    e_ell, e_m, e_d, coeffs = parse_witt(text)
                    if (e_ell, e_m, e_d) != (ell, m, d) or len(coeffs) != d:
                        failures.append(f"level {i}: entry {text} is not in the level ring")
                    out.append(tuple(c % q for c in coeffs))
                mat.append(tuple(out))
            mat = tuple(mat)
            images[name] = mat
            if mat_det(mat, f, q) != _const(eps[name], d, q):
                failures.append(f"level {i}: det at {name} is not epsilon")
                continue
            # g^-1 = adj(g) / epsilon(g), valid once det(g) = epsilon(g)
            adj = ((mat[1][1], _psub(_const(0, d, q), mat[0][1], q)),
                   (_psub(_const(0, d, q), mat[1][0], q), mat[0][0]))
            inverses[name] = _mat_scale_int(adj, pow(eps[name], -1, q), q)
        if len(inverses) != len(images):
            continue
        for rel in relators:
            if word_image(images, rel, inverses, f, q, d) != mat_identity(d, q):
                failures.append(f"level {i}: relator {rel} is not the identity")
    return failures


# ---------------------------------------------------------------------------
# integer 2x2 matrices mod M


def imat_mul(x, y, mod):
    return (((x[0][0] * y[0][0] + x[0][1] * y[1][0]) % mod,
             (x[0][0] * y[0][1] + x[0][1] * y[1][1]) % mod),
            ((x[1][0] * y[0][0] + x[1][1] * y[1][0]) % mod,
             (x[1][0] * y[0][1] + x[1][1] * y[1][1]) % mod))


def imat_inv(x, mod):
    det_inv = pow((x[0][0] * x[1][1] - x[0][1] * x[1][0]) % mod, -1, mod)
    return (((x[1][1] * det_inv) % mod, (-x[0][1] * det_inv) % mod),
            ((-x[1][0] * det_inv) % mod, (x[0][0] * det_inv) % mod))


def relators_hold(images, relators, mod):
    """True iff every relator word maps to I under the integer images mod M."""
    inverses = {g: imat_inv(x, mod) for g, x in images.items()}
    ident = ((1, 0), (0, 1))
    for rel in relators:
        acc = ident
        for name, e in rel:
            base = images[name] if e > 0 else inverses[name]
            for _ in range(abs(e)):
                acc = imat_mul(acc, base, mod)
        if acc != ident:
            return False
    return True


def subgroup_closure(gens, mod):
    ident = ((1, 0), (0, 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = imat_mul(x, g, mod)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def imat_pow(x, e, mod):
    acc = ((1, 0), (0, 1))
    while e:
        if e & 1:
            acc = imat_mul(acc, x, mod)
        x = imat_mul(x, x, mod)
        e >>= 1
    return acc


def residue_distances(gens, ell):
    """Word length of every element of <gens mod l> (words multiply on the right)."""
    ident = ((1, 0), (0, 1))
    res = [imat_mul(g, ident, ell) for g in gens]
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in res:
                y = imat_mul(x, g, ell)
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def shortest_word_products(gens, target, mod, ell):
    """Products mod M of all shortest words in gens whose residue mod l is target.

    Returns [] when target is not in the residual closure.
    """
    dist = residue_distances(gens, ell)
    if target not in dist:
        return []
    length = dist[target]
    res = [imat_mul(g, ((1, 0), (0, 1)), ell) for g in gens]
    out = []

    def walk(r, prod, depth):
        if depth == length:
            out.append(prod)
            return
        for g, gbar in zip(gens, res):
            r2 = imat_mul(r, gbar, ell)
            # stay on a shortest path from the identity to target
            if (dist[r2] == depth + 1
                    and dist[imat_mul(imat_inv(r2, ell), target, ell)] == length - depth - 1):
                walk(r2, imat_mul(prod, g, mod), depth + 1)

    walk(((1, 0), (0, 1)), ((1, 0), (0, 1)), 0)
    return out


# ---------------------------------------------------------------------------
# tube measures


def tube_fraction(ell, m, alpha, monomials, generators=()):
    """Exact measure of {gamma : v(f(gamma)) > alpha} in GL_2(Z/l^m) or in
    the subgroup generated by integer matrices, counted at level alpha + 1.

    f(gamma) mod l^(alpha+1) depends only on gamma mod l^(alpha+1), and
    reduction maps the group onto its image with fibres of equal size, so
    the count at level alpha + 1 gives the measure at level m.  Valuations
    are saturated at m, so alpha = m gives 0.
    """
    if alpha >= m:
        return Fraction(0)
    mod = ell ** (alpha + 1)
    monos = [(c % mod, tuple(e)) for c, e in monomials]

    def value(a, b, c, d):
        acc = 0
        for coeff, (e0, e1, e2, e3) in monos:
            acc += coeff * a ** e0 * b ** e1 * c ** e2 * d ** e3
        return acc % mod

    if generators:
        gens = [tuple(tuple(v % mod for v in row) for row in g) for g in generators]
        elems = subgroup_closure(gens, mod)
        hits = sum(1 for (a, b), (c, d) in elems if value(a, b, c, d) == 0)
        return Fraction(hits, len(elems))
    # full group: f = sum_k coeff_k * P_k(a, b) * Q_k(c, d)
    left = {}
    for a, b in itertools.product(range(mod), repeat=2):
        left[(a, b)] = [coeff * pow(a, e[0], mod) * pow(b, e[1], mod) % mod
                        for coeff, e in monos]
    right = {}
    for c, d in itertools.product(range(mod), repeat=2):
        right[(c, d)] = [pow(c, e[2], mod) * pow(d, e[3], mod) % mod
                         for _, e in monos]
    hits = total = 0
    for (a, b), lv in left.items():
        for (c, d), rv in right.items():
            if (a * d - b * c) % ell:
                total += 1
                if sum(x * y for x, y in zip(lv, rv)) % mod == 0:
                    hits += 1
    return Fraction(hits, total)


# ---------------------------------------------------------------------------
# H^1 of a finitely presented group by Fox calculus over F_p


def _rank_mod_p(rows, p):
    rows = [[c % p for c in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [c * inv % p for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                fac = rows[i][col]
                rows[i] = [(x - fac * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _matmul_p(a, b, p):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) % p
             for j in range(len(b[0]))] for i in range(len(a))]


def _matinv_p(a, p):
    n = len(a)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [c * inv % p for c in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] % p:
                fac = aug[i][col]
                aug[i] = [(x - fac * y) % p for x, y in zip(aug[i], aug[col])]
    return [r[n:] for r in aug]


def adjoint_action(g, p):
    """Conjugation action of an integer 2x2 matrix on the trace-zero matrices
    [[a, b], [c, -a]], in coordinates (b, a, c)."""
    ginv = imat_inv(g, p)
    cols = []
    for b, a, c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        x = imat_mul(imat_mul(g, ((a, b), (c, -a % p)), p), ginv, p)
        cols.append((x[0][1], x[0][0], x[1][0]))
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def fox_map(gens, action, word, p):
    """Matrix of (generator values) -> f(word) for a cocycle f, by Fox calculus."""
    dim = len(next(iter(action.values())))
    idx = {g: i for i, g in enumerate(gens)}
    ncols = len(gens) * dim
    jac = [[0] * ncols for _ in range(dim)]
    prefix = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inverses = {}
    for name, e in word:
        a = action[name]
        off = idx[name] * dim
        if e > 0:
            for _ in range(e):
                for i in range(dim):
                    for j in range(dim):
                        jac[i][off + j] = (jac[i][off + j] + prefix[i][j]) % p
                prefix = _matmul_p(prefix, a, p)
        else:
            if name not in inverses:
                inverses[name] = _matinv_p(a, p)
            ainv = inverses[name]
            for _ in range(-e):
                prefix = _matmul_p(prefix, ainv, p)
                for i in range(dim):
                    for j in range(dim):
                        jac[i][off + j] = (jac[i][off + j] - prefix[i][j]) % p
    return jac


def h1_dims(gens, relators, action, p, places=()):
    """(dim Z^1, dim B^1, h^1, dim Sha) over F_p.

    Sha is the space of classes whose restriction to every place's local
    group (generated by its sigma and tau words) is a coboundary there.
    """
    dim = len(next(iter(action.values())))
    ncoc = len(gens) * dim
    rel_rows = [row for rel in relators for row in fox_map(gens, action, rel, p)]
    z = ncoc - (_rank_mod_p(rel_rows, p) if rel_rows else 0)
    cob_rows = []  # rows of m -> (A_g m - m)_g, transposed into generator space
    for ci in range(dim):
        vec = []
        for g in gens:
            a = action[g]
            vec.extend((a[i][ci] - int(i == ci)) % p for i in range(dim))
        cob_rows.append(vec)
    b = _rank_mod_p(cob_rows, p)
    if not places:
        return z, b, z - b, 0
    nplace = len(places)
    width = ncoc + nplace * dim
    rows = [list(r) + [0] * (nplace * dim) for r in rel_rows]
    for pi, (sigma, tau) in enumerate(places):
        for word in (sigma, tau):
            jac = fox_map(gens, action, word, p)
            aw = [[int(i == j) for j in range(dim)] for i in range(dim)]
            for name, e in word:
                step = action[name] if e > 0 else _matinv_p(action[name], p)
                for _ in range(abs(e)):
                    aw = _matmul_p(aw, step, p)
            for i in range(dim):
                row = list(jac[i]) + [0] * (nplace * dim)
                for j in range(dim):
                    row[ncoc + pi * dim + j] = -(aw[i][j] - int(i == j)) % p
                rows.append(row)
    # locally trivial cocycles: project the kernel of `rows` onto the first
    # ncoc coordinates; dim of projection = dim ker - dim(ker cap {f = 0})
    ker = width - _rank_mod_p(rows, p)
    tail_rows = [r[ncoc:] for r in rows]
    ker_tail = nplace * dim - _rank_mod_p(tail_rows, p)
    proj = ker - ker_tail
    # classes: the projection contains B^1 (coboundaries are locally trivial)
    return z, b, z - b, proj - b
