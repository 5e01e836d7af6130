"""Dense exact linear algebra over a field F_{l^d}, on canonical values.

Matrices are lists of row lists of the values Mat.entries holds: coefficient
d-tuples with every coefficient in [0, l).  Every function takes the field
those values live in and computes through coeffring's two shared kernels,
_matmul and _unit_inverse, except that rref runs its row updates at d = 1 on
the unwrapped ints; no element object is built or read.
Echelonization always picks the leftmost pivot in the topmost unprocessed
row, so every basis this module returns is deterministic.  solve takes a
block right-hand side, so that an F_l system solves F_{l^d} right-hand sides.
"""

from __future__ import annotations

from . import coeffring as cr
from .matlin import _imul, _one_zero


def rref(rows, field):
    """Reduced row echelon form; returns (rref rows, pivot column list).

    A normalized pivot row is zero left of its pivot, so its support (the
    columns where it is nonzero) is recorded once.  The pivot row is scaled
    by one 1 x k product there, and every other row is updated in place on
    those columns only: row - x * pivot row as one 1 x 2 by 2 x k product.
    At d = 1 the 1-tuples are unwrapped to ints once, the same updates run on
    the ints mod l, and the values are wrapped again at the end.
    """
    ints = field.d == 1
    rows = [[x for (x,) in r] if ints else list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    one, q = _one_zero(field)[0], field.q
    nonzero = bool if ints else any
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if nonzero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        support = [j for j in range(c, ncols) if nonzero(prow[j])]
        if ints:
            inv = cr._unit_inverse(field, (prow[c],))[0]
            pvals = [prow[j] * inv % q for j in support]
        else:
            pvals = list(cr._matmul(field, (cr._unit_inverse(field, prow[c]),),
                                    [prow[j] for j in support], 1, len(support)))
        for j, v in zip(support, pvals):
            prow[j] = v
        for row in rows:
            x = row[c]
            if row is not prow and nonzero(x):
                if ints:
                    new = [(row[j] - x * v) % q for j, v in zip(support, pvals)]
                else:
                    new = cr._matmul(field, (one, _imul(x, -1, q)),
                                     [row[j] for j in support] + pvals, 2, len(support))
                for j, v in zip(support, new):
                    row[j] = v
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if ints:
        rows = [[(x,) for x in row] for row in rows]
    return rows, pivots


def rank(rows, field):
    return len(rref(rows, field)[1])


def nullspace(rows, field):
    """Basis of the right kernel, echelonized (free variables in order)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    one, zero = _one_zero(field)
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = _imul(red[i][fc], -1, field.q)
        basis.append(vec)
    return basis


def solve(rows, rhs, field):
    """One solution x of rows * x = rhs, or None if inconsistent.  Each rhs
    entry is a block of k values over field laid end to end, one per column
    of a block right-hand side, and so is each entry of x.  Over F_l a value
    over F_{l^D} is such a block, its coefficients its coordinates over F_l."""
    if not rows:
        return []
    ncols, w = len(rows[0]), field.d
    aug = [list(r) + [b[i:i + w] for i in range(0, len(b), w)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    if pivots and pivots[-1] >= ncols:
        return None
    x = [(0,) * len(rhs[0])] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = tuple([c for v in red[i][ncols:] for c in v])
    return x


def independent_complement(sub_rows, all_rows, field):
    """Vectors from all_rows extending a basis of span(sub_rows), each taken
    in order when it is outside the span of those before it.  With every
    vector as a column, these are the pivot columns after sub_rows."""
    vecs = list(sub_rows) + list(all_rows)
    _, pivots = rref([list(col) for col in zip(*vecs)], field)
    return [list(vecs[c]) for c in pivots if c >= len(sub_rows)]
