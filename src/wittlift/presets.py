"""Shipped example groups, residual representations, and test modules.

Two surrogate groups drive the deformation tests:

* surrogate (a): free on four generators with a pool of decorated places and
  no relators, so every lifting obstruction vanishes;
* surrogate (b): the same generators subject to explicit tame relations
  (sigma tau sigma^-1 = tau^q) at two of its places, which the shipped
  integer matrices satisfy exactly at every level.

A list of small finite groups (with faithful matrix realizations over F_5)
backs the brute-force cohomology oracle.
"""

from __future__ import annotations

from . import coeffring as cr
from .cohomology import module_from_action
from .galois_model import Deformation, ModelGroup, Place, parse_word
from .matlin import Mat


def _images(ell, m):
    """W(F_l)/l^m and the integer generator images both surrogates share."""
    ring = cr.make_witt_ring(ell, 1, m)
    return ring, {
        "s": Mat.from_ints(ring, [[2, 0], [0, 1]]),
        "t": Mat.from_ints(ring, [[1, 1], [0, 1]]),
        "u": Mat.from_ints(ring, [[1, 0], [1, 1]]),
        "w": Mat.from_ints(ring, [[1, 0], [0, 2]]),
    }


# ---------------------------------------------------------------------------
# surrogate (a): free group, every obstruction vanishes


def surrogate_free():
    places = (
        Place("p01", parse_word("s"), parse_word(""), 2, ("pool",)),
        Place("p02", parse_word("s^3"), parse_word(""), 8, ("pool",)),
        Place("p03", parse_word("w"), parse_word(""), 2, ("pool",)),
        Place("p04", parse_word("w^3"), parse_word(""), 8, ("pool",)),
        Place("p05", parse_word("s w"), parse_word(""), 4, ("pool",)),
        Place("p06", parse_word("s^2"), parse_word(""), 4, ("pool",)),
        Place("p07", parse_word("s^2 w"), parse_word(""), 8, ("pool",)),
        Place("p08", parse_word("s w^2"), parse_word(""), 8, ("pool",)),
    )
    return ModelGroup(("s", "t", "u", "w"), (), places,
                      {"s": 2, "t": 1, "u": 1, "w": 2})


def residual_free(ell=5):
    """Surjective residual representation of surrogate (a) with det = epsilon."""
    return Deformation(surrogate_free(), *_images(ell, 1))


# ---------------------------------------------------------------------------
# surrogate (b): tame relations at two ramified places


def surrogate_tame():
    relators = (
        parse_word("s t s^-1 t^-2"),   # diag(2,1) t diag(2,1)^-1 = t^2
        parse_word("w u w^-1 u^-2"),   # diag(1,2) u diag(1,2)^-1 = u^2
    )
    places = (
        Place("q01", parse_word("s"), parse_word("t"), 2, ("S",)),
        Place("q02", parse_word("w"), parse_word("u"), 2, ("S",)),
        # pool places whose Frobenius words mix the two relator pairs: their
        # local conditions jointly kill the locally-trivial kernels, and their
        # trace functionals do not vanish on the cocycle space
        Place("q03", parse_word("s u"), parse_word(""), 2, ("pool",)),
        Place("q04", parse_word("w t"), parse_word(""), 2, ("pool",)),
        Place("q05", parse_word("s t^-1 u^2 t^-1"), parse_word(""), 2, ("pool",)),
        Place("q06", parse_word("s"), parse_word(""), 2, ("pool",)),
        Place("q07", parse_word("s^2"), parse_word(""), 4, ("pool",)),
        Place("q08", parse_word("s w"), parse_word(""), 4, ("pool",)),
    )
    return ModelGroup(("s", "t", "u", "w"), relators, places,
                      {"s": 2, "t": 1, "u": 1, "w": 2})


def residual_tame(ell=5):
    return deformation_tame(1, ell)


def deformation_tame(m, ell=5):
    """The integer-matrix deformation of surrogate (b) at any level m."""
    return Deformation(surrogate_tame(), *_images(ell, m))


# ---------------------------------------------------------------------------
# finite groups with faithful realizations over F_5 (brute-force oracle fuel)


def _mg(gens, relator_strs):
    return ModelGroup(tuple(gens), tuple(parse_word(r) for r in relator_strs),
                      (), {g: 1 for g in gens})


def finite_groups(ell=5):
    """(name, ModelGroup, faithful images over F_ell, order) for small groups."""
    f = cr.make_field(ell, 1)
    out = []

    c5 = _mg(["a"], ["a^5"])
    out.append(("C5", c5, {"a": Mat.from_ints(f, [[1, 1], [0, 1]])}, 5))

    c4 = _mg(["a"], ["a^4"])
    out.append(("C4", c4, {"a": Mat.from_ints(f, [[0, -1], [1, 0]])}, 4))

    s3 = _mg(["s", "t"], ["s^2", "t^3", "s t s t"])
    out.append(("S3", s3, {"s": Mat.from_ints(f, [[0, 1], [1, 0]]),
                           "t": Mat.from_ints(f, [[0, -1], [1, -1]])}, 6))

    d4 = _mg(["r", "f"], ["r^4", "f^2", "r f r f"])
    out.append(("D4", d4, {"r": Mat.from_ints(f, [[0, -1], [1, 0]]),
                           "f": Mat.from_ints(f, [[1, 0], [0, -1]])}, 8))

    q8 = _mg(["i", "j"], ["i^4", "i^2 j^-2", "j^-1 i j i"])
    out.append(("Q8", q8, {"i": Mat.from_ints(f, [[2, 0], [0, -2]]),
                           "j": Mat.from_ints(f, [[0, -1], [1, 0]])}, 8))

    a4 = _mg(["s", "t"], ["s^2", "t^3", "s t s t s t"])
    out.append(("A4", a4, {"s": Mat.from_ints(f, [[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
                           "t": Mat.from_ints(f, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])},
                12))
    return out


def module_suite(group, images, ell=5):
    """Modules of dimension <= 3 over F_ell on which the group demonstrably acts.

    Always includes the trivial modules of dimension 1 and 3; adds the
    faithful realization itself when its dimension is <= 3, plus determinant
    and permutation-flavored one-dimensional actions when they satisfy the
    relators.
    """
    f = cr.make_field(ell, 1)
    gens = group.generators
    mods = [("trivial1", module_from_action(
        f, {g: Mat.identity(f, 1) for g in gens})),
        ("trivial3", module_from_action(
            f, {g: Mat.identity(f, 3) for g in gens}))]
    dim = next(iter(images.values())).n
    if dim <= 3:
        mods.append(("faithful", module_from_action(f, dict(images))))
    det_act = {g: Mat.from_rows(f, [[images[g].det()]]) for g in gens}
    if _acts(group, det_act, f):
        mods.append(("det", module_from_action(f, det_act)))
    return mods


def _acts(group, action, field):
    mod = module_from_action(field, action)
    ident = Mat.identity(field, mod.dim)
    return all(mod.word_matrix(r) == ident for r in group.relators)
