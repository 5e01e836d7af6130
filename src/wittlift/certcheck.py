"""Independent certificate verification.

Deliberately imports nothing from the tower machinery: a certificate is a
list of per-degree witnesses, and each witness is checked here using only
the coefficient-ring primitives (parse the trace, test Frobenius fixedness
or degree divisibility).
"""

from __future__ import annotations

import math

from .coeffring import in_subring, witt_from_str

SCHEMA_VERSION = 1


def check_certificate(cert):
    """Verify every witness; returns a list of problem strings (empty = good)."""
    problems = []
    if cert.get("schema_version") != SCHEMA_VERSION:
        return ["unsupported or missing schema_version"]
    seen = set()
    for entry in cert.get("entries", []):
        d = entry.get("d")
        if not isinstance(d, int) or d < 1:
            problems.append(f"bad degree field in {entry}")
            continue
        seen.add(d)
        kind = entry.get("kind")
        if kind == "uncovered":
            problems.append(f"degree {d} has no witness")
            continue
        try:
            tr = witt_from_str(entry["trace"])
        except Exception as exc:
            problems.append(f"degree {d}: unparseable trace ({exc})")
            continue
        amb = tr.ring.d
        if kind == "frobenius":
            g = entry.get("check_degree")
            if g != math.gcd(d, amb):
                problems.append(f"degree {d}: check_degree {g} is not "
                                f"gcd({d}, {amb})")
                continue
            if in_subring(tr, g):
                problems.append(f"degree {d}: trace is Frobenius^{g}-fixed; "
                                "witness invalid")
        elif kind == "degree":
            if amb % d == 0:
                problems.append(f"degree {d}: divides the ambient degree "
                                f"{amb}; witness invalid")
        else:
            problems.append(f"degree {d}: unknown witness kind {kind!r}")
    d_top = cert.get("d_top", 0)
    missing = [d for d in range(1, d_top + 1) if d not in seen]
    if missing:
        problems.append(f"no entries for degrees {missing}")
    return problems
