"""Brute-force oracles: cohomology of small finite groups, integrality of
integral_model's conjugates in plain integers, and matrix orders.

The cohomology oracle is independent of the Fox-derivative machinery: group
elements are enumerated through a faithful matrix realization, and every
assignment of generator values is tested directly against the
crossed-homomorphism rule on all (element, generator) edges.
"""

import itertools

import wittlift.coeffring as cr
from wittlift.cohomology import vec_add
from wittlift.errors import Singular
from wittlift.matlin import Mat


def matrix_order(y, cap=10 ** 7):
    """The least k >= 1 with y^k = 1, by repeated products; Singular past cap."""
    acc = y
    ident = Mat.identity(y.ring, y.n)
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = acc * y
    raise Singular("order exceeds cap (matrix not of finite order?)")


def enumerate_elements(group, images, module):
    """BFS over the faithful realization; returns (elements, edges).

    elements: list of dicts with the faithful key and the module action of
    the element; edges: (element index, generator name, product index).
    """
    ident_f = Mat.identity(images[group.generators[0]].ring,
                           images[group.generators[0]].n)
    ident_a = Mat.identity(module.field, module.dim)
    elements = [{"act": ident_a}]
    index = {ident_f.entries: 0}
    mats = [ident_f]
    edges = []
    frontier = [0]
    while frontier:
        nxt = []
        for ei in frontier:
            for name in group.generators:
                prod = mats[ei] * images[name]
                key = prod.entries
                if key not in index:
                    index[key] = len(elements)
                    mats.append(prod)
                    elements.append(
                        {"act": elements[ei]["act"] * module.act_gen(name)})
                    nxt.append(index[key])
                edges.append((ei, name, index[key]))
        frontier = nxt
    return elements, edges


def brute_force_h1(group, images, module):
    """(dim Z^1, dim B^1, h^1) by exhaustive enumeration over F_ell."""
    ell = module.field.ell
    assert module.field.d == 1
    dim = module.dim
    elements, edges = enumerate_elements(group, images, module)
    vectors = [tuple(cr.ff_from_int(module.field, c) for c in combo)
               for combo in itertools.product(range(ell), repeat=dim)]
    zero = vectors[0]

    # spanning-tree fill order: re-run the BFS once to learn discovery edges
    discovery = {0: None}
    for ei, name, ti in edges:
        if ti not in discovery:
            discovery[ti] = (ei, name)
    order = sorted(discovery, key=lambda i: -1 if discovery[i] is None else i)

    z_count = 0
    ngen = len(group.generators)
    for combo in itertools.product(range(len(vectors)), repeat=ngen):
        f = {name: vectors[ci] for name, ci in zip(group.generators, combo)}
        values = [None] * len(elements)
        values[0] = zero
        for ti in order:
            if discovery[ti] is None:
                continue
            ei, name = discovery[ti]
            values[ti] = vec_add(values[ei],
                                 elements[ei]["act"].apply(f[name]))
        ok = True
        for ei, name, ti in edges:
            want = vec_add(values[ei], elements[ei]["act"].apply(f[name]))
            if want != values[ti]:
                ok = False
                break
        if ok:
            z_count += 1

    cob = set()
    for m in vectors:
        key = tuple(vec_add(module.act_gen(name).apply(m),
                            tuple(-x for x in m))
                    for name in group.generators)
        cob.add(key)
    b_count = len(cob)

    def log_ell(n):
        k = 0
        while n > 1:
            assert n % ell == 0, n
            n //= ell
            k += 1
        return k

    dim_z = log_ell(z_count)
    dim_b = log_ell(b_count)
    return dim_z, dim_b, dim_z - dim_b


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
