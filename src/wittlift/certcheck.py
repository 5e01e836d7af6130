"""Independent certificate verification.

Deliberately imports nothing from the tower machinery: a certificate is a
list of per-degree witnesses, and each witness is checked here using only
the coefficient-ring primitives (parse the trace, test Frobenius fixedness
or degree divisibility).  Frobenius is computed here, not by coeffring's
monomial fast path that the tower and its certificate were built with.
"""

from __future__ import annotations

import math
import reprlib

from .coeffring import element, hensel_frobenius, witt_from_str
from .errors import InputError, SchemaError

SCHEMA_VERSION = 1


def frobenius_power(x, k):
    """Frobenius^k of x, computed without coeffring's fast path.

    On W(F_{l^D})/l^m with modulus X^D + a, l not dividing D, Frobenius^k
    sends X to c_k*X^(l^k), where c_k = c^((l^k - 1)/(l - 1)) for the
    c = 1 mod l with c^D = (-a)^(1-l); X^D = -a folds each power back.
    Other moduli take coeffring's generic hensel_frobenius k times.
    """
    r = x.ring
    ell, D, q, f = r.ell, r.d, r.q, r.lifted_modulus
    k %= D
    if not k:
        return x
    if any(f[1:-1]) or D % ell == 0:
        for _ in range(k):
            x = hensel_frobenius(x)
        return x
    na, phi = -f[0] % q, q // ell * (ell - 1)
    c = pow(pow(na, 1 - ell, q), pow(D, -1, q // ell), q)
    ck = pow(c, (pow(ell, k, (ell - 1) * q) - 1) // (ell - 1), q)
    L = pow(ell, k, D * phi)  # i*l^k and i*L fold to the same power of -a
    out = [0] * D
    for i, xi in enumerate(x.coeffs):
        e, p = divmod(i * L, D)
        out[p] = xi * pow(ck, i, q) * pow(na, e, q) % q
    return element(r, tuple(out))


def check_certificate(cert):
    """Verify every witness; returns a list of problem strings (empty = good)."""
    problems = []
    if cert.get("schema_version") != SCHEMA_VERSION:
        return ["unsupported or missing schema_version"]
    d_top = cert.get("d_top")
    if type(d_top) is not int or d_top < 1:
        raise SchemaError(f"d_top: {d_top!r} is not a JSON integer >= 1")
    seen = set()
    entries = cert.get("entries", [])
    if not isinstance(entries, list):
        raise SchemaError("entries: not a JSON list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"entries[{i}]: {reprlib.repr(entry)} is not a JSON object")
        d = entry.get("d")
        if not isinstance(d, int) or d < 1:
            problems.append(f"bad degree field in {entry}")
            continue
        seen.add(d)
        kind = entry.get("kind")
        if kind == "uncovered":
            problems.append(f"degree {d} has no witness")
            continue
        if not isinstance(entry.get("trace"), str):
            problems.append(f"degree {d}: trace is not a string")
            continue
        try:
            tr = witt_from_str(entry["trace"])
        except (InputError, KeyError) as exc:
            problems.append(f"degree {d}: unparseable trace ({exc})")
            continue
        amb = tr.ring.d
        if kind == "frobenius":
            g = entry.get("check_degree")
            if g != math.gcd(d, amb):
                problems.append(f"degree {d}: check_degree {g} is not "
                                f"gcd({d}, {amb})")
                continue
            if frobenius_power(tr, g) == tr:
                problems.append(f"degree {d}: trace is Frobenius^{g}-fixed; "
                                "witness invalid")
        elif kind == "degree":
            if amb % d == 0:
                problems.append(f"degree {d}: divides the ambient degree "
                                f"{amb}; witness invalid")
        else:
            problems.append(f"degree {d}: unknown witness kind {kind!r}")
    missing = [d for d in range(1, d_top + 1) if d not in seen]
    if missing:
        problems.append(f"no entries for degrees {missing}")
    return problems
