"""Dense exact linear algebra over a field of FFElem values.

Matrices are lists of row lists.  Echelonization always picks the leftmost
pivot in the topmost unprocessed row, so every basis this module returns is
deterministic.
"""

from __future__ import annotations

from .coeffring import ff_one, ff_zero


def rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list).

    A normalized pivot row is zero left of its pivot, so its support (the
    columns where it is nonzero) is recorded once; every other row is then
    updated in place on those columns only.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        inv = prow[c].inverse()
        support = [j for j in range(c, ncols) if not prow[j].is_zero()]
        for j in support:
            prow[j] = prow[j] * inv
        for row in rows:
            f = row[c]
            if row is not prow and not f.is_zero():
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, params):
    """Basis of the right kernel, echelonized (free variables in order)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    one, zero = ff_one(params), ff_zero(params)
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return basis


def solve(rows, rhs, params):
    """One solution of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    zero = ff_zero(params)
    x = [zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][-1]
    return x


def independent_complement(sub_rows, all_rows, params):
    """Vectors from all_rows extending a basis of span(sub_rows), each taken
    in order when it is outside the span of those before it.  With every
    vector as a column, these are the pivot columns after sub_rows."""
    vecs = list(sub_rows) + list(all_rows)
    _, pivots = rref([list(col) for col in zip(*vecs)])
    return [list(vecs[c]) for c in pivots if c >= len(sub_rows)]
