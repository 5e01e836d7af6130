"""Command-line interface.

Every subcommand reads JSON inputs, writes a JSON report (stdout or --out),
and exits 0 on success, 2 on verification failure, 3 when a place oracle
finds nothing, and 4 on input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from . import coeffring as cr
from .certcheck import check_certificate
from .cohomology import build_module, cocycle_space, dual_module, module_from_action
from .density import (
    ENUM_LIMIT,
    Monomial,
    TubeQuery,
    counts_exactly,
    gl_order,
    tube_measure,
)
from .errors import (
    InputError,
    InvalidQuery,
    OracleNotFound,
    SchemaError,
    UnboundedGroup,
    WittliftError,
)
from .galois_model import (
    SCHEMA_VERSION,
    ModelGroup,
    deformation_from_json_dict,
    json_field,
    json_object,
)
from .lifting import (
    TowerPlan,
    build_tower,
    field_of_definition,
    is_nice,
    is_rho_m_nice,
    tower_to_json_dict,
    verify_tower_dict,
)
from .matlin import Mat, check_tame_relation, integral_model, kelem_from_rational

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_ORACLE = 3
EXIT_INPUT = 4


def _load_json(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level is not a JSON object")
    return data


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _report(args, payload, extra_inputs=()):
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    payload["tool_version"] = __version__
    payload["seed"] = getattr(args, "seed", 0)
    digests = {}
    for path in extra_inputs:
        try:
            digests[path] = _digest(path)
        except OSError:
            pass
    payload["input_digests"] = digests
    text = json.dumps(payload, indent=2, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_matrix(text):
    """Row-major matrix from ';'-joined coeffring-serialized entries."""
    entries = [cr.witt_from_str(part) for part in text.split(";")]
    n = int(len(entries) ** 0.5)
    if n * n != len(entries):
        raise SchemaError("matrix entry count is not a perfect square")
    ring = entries[0].ring
    for x in entries:
        if x.ring != ring:
            raise SchemaError(f"matrix entries are over both {ring} and {x.ring}")
    rows = [entries[i * n:(i + 1) * n] for i in range(n)]
    return Mat.from_rows(ring, rows)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tower_build(args):
    data = _load_json(args.plan)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("unsupported or missing schema_version")
    group = ModelGroup.from_json_dict(json_field(data, "group"))
    rhobar = deformation_from_json_dict(json_object(json_field(data, "residual"), "residual"),
                                        group)
    locked, escape = data.get("locked", []), data.get("escape", True)
    if not isinstance(locked, list) or not all(isinstance(x, str) for x in locked):
        raise SchemaError(f"locked: {locked!r} is not a list of place labels")
    if not isinstance(escape, bool):
        raise SchemaError(f"escape: {escape!r} is not a JSON boolean")
    max_level = json_field(data, "max_level")
    if type(max_level) is not int:
        raise SchemaError(f"max_level: {max_level!r} is not a JSON integer")
    r_labels = json_object(json_field(data, "r_labels"), "r_labels")
    if not all(k.isdecimal() and k.isascii() for k in r_labels):
        raise SchemaError(f"r_labels: keys {sorted(r_labels)} are not all level numbers")
    plan = TowerPlan(
        rhobar,
        max_level,
        {int(k): v for k, v in r_labels.items()},
        tuple(locked),
        escape,
    )
    tower, cert = build_tower(plan)
    _report(args, {"tower": tower_to_json_dict(tower), "certificate": cert},
            [args.plan])
    return EXIT_OK


def _cmd_tower_verify(args):
    data = _load_json(args.tower)
    failures = verify_tower_dict(json_object(data.get("tower", data), "tower"))
    cert = data.get("certificate")
    if cert is not None:
        failures += check_certificate(json_object(cert, "certificate"))
    _report(args, {"ok": not failures, "failures": failures}, [args.tower])
    return EXIT_OK if not failures else EXIT_VERIFY


def _cmd_h1(args):
    data = _load_json(args.group)
    group = ModelGroup.from_json_dict(data["group"] if "group" in data else data)
    spec = args.module.split(":")
    if spec[0] == "trivial":
        dim = int(spec[1])
        if dim < 1:
            raise SchemaError(f"module: trivial dimension {dim} must be >= 1")
        ell = int(spec[2]) if len(spec) > 2 else 5
        f = cr.make_field(ell, 1)
        module = module_from_action(
            f, {g: Mat.identity(f, dim) for g in group.generators})
    elif spec[0] in ("adjoint", "cartier_dual"):
        d = int(spec[1]) if len(spec) > 1 else 1
        rhobar = deformation_from_json_dict(data["residual"], group)
        module = build_module(rhobar, d)
        if spec[0] == "cartier_dual":
            module = dual_module(module)
    else:
        raise SchemaError(f"unknown module spec {args.module!r}")
    z1, b1, h1 = cocycle_space(group, module)
    _report(args, {"dim_z1": len(z1), "dim_b1": len(b1), "h1": h1},
            [args.group])
    return EXIT_OK


def _cmd_nice_scan(args):
    gdata = _load_json(args.group)
    group = ModelGroup.from_json_dict(gdata["group"] if "group" in gdata
                                      else gdata)
    rdata = _load_json(args.rho)
    rho = deformation_from_json_dict(rdata, group)
    rhobar = rho.reduce(1)
    rows = []
    for place in group.places:
        rows.append({
            "label": place.label,
            "q": place.q,
            "nice": is_nice(place, rhobar),
            "rho_m_nice": is_rho_m_nice(place, rho),
        })
    _report(args, {"places": rows}, [args.group, args.rho])
    return EXIT_OK


def _cmd_integral_model(args):
    data = _load_json(args.mats)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("unsupported or missing schema_version")
    ell = int(data.get("ell", 5))
    precision = int(data.get("precision", 30))
    ring = cr.make_witt_ring(ell, 1, precision)
    gens = [[[kelem_from_rational(ring, int(ent["num"]), int(ent.get("den", 1)))
              for ent in row] for row in gmat] for gmat in data["generators"]]
    try:
        p = integral_model(gens)
    except UnboundedGroup as exc:
        _report(args, {"unbounded": True, "reason": str(exc)}, [args.mats])
        return EXIT_OK
    pretty = [[repr(x) for x in row] for row in p]
    _report(args, {"unbounded": False, "conjugator": pretty}, [args.mats])
    return EXIT_OK


def _cmd_tame_check(args):
    x, y = _parse_matrix(args.x), _parse_matrix(args.y)
    branch = check_tame_relation(x, y, int(args.q))
    payload = {"branch": branch.kind}
    if branch.pair is not None:
        payload["pair"] = [list(branch.pair[0].coeffs),
                           list(branch.pair[1].coeffs)]
        payload["pair_field_degree"] = branch.pair[0].ring.d
    _report(args, payload)
    return EXIT_OK


def _cmd_field_of_def(args):
    data = _load_json(args.traces)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("unsupported or missing schema_version")
    traces = [cr.witt_from_str(s) for s in data["traces"]]
    d = field_of_definition(traces, args.dmax)
    _report(args, {"field_degree": d, "d_max": args.dmax}, [args.traces])
    return EXIT_OK


def _cmd_density(args):
    data = _load_json(args.query)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("unsupported or missing schema_version")
    monos = tuple(Monomial(int(mo["coeff"]), tuple(mo["exps"]))
                  for mo in data["monomials"])
    gens = tuple(tuple(tuple(r) for r in g)
                 for g in data.get("generators", ()))
    query = TubeQuery(int(data["ell"]), int(data["n"]), int(data["m"]),
                      int(data["alpha"]), monos, gens)
    if args.exact and not counts_exactly(query):
        ell, n, m = query.ell, query.n, query.m
        raise InvalidQuery(
            f"--exact: GL_{n}(Z/{ell}^{m}) has {gl_order(ell, n, m)} elements; a "
            f"full group is counted exactly only while {ell}^({m}*{n}^2) <= "
            f"ENUM_LIMIT = {ENUM_LIMIT}, and without --exact it is sampled")
    sample = args.sample if args.sample else 200000
    res = tube_measure(query, seed=args.seed, sample_count=sample)
    _report(args, {
        "fraction": str(res.fraction),
        "exact": res.exact,
        "population": res.population,
        "sample_count": res.sample_count,
        "std_error": res.std_error,
    }, [args.query])
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="wittlift")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--exact", action="store_true",
                   help="require exact enumeration where applicable")
    p.add_argument("--sample", type=int, default=0,
                   help="sample count for estimates")
    sub = p.add_subparsers(dest="command", required=True)

    tower = sub.add_parser("tower").add_subparsers(dest="tower_cmd",
                                                   required=True)
    tb = tower.add_parser("build")
    tb.add_argument("plan")
    tb.set_defaults(func=_cmd_tower_build)
    tv = tower.add_parser("verify")
    tv.add_argument("tower")
    tv.set_defaults(func=_cmd_tower_verify)

    h1 = sub.add_parser("h1")
    h1.add_argument("group")
    h1.add_argument("module")
    h1.set_defaults(func=_cmd_h1)

    ns = sub.add_parser("nice-scan")
    ns.add_argument("group")
    ns.add_argument("rho")
    ns.set_defaults(func=_cmd_nice_scan)

    im = sub.add_parser("integral-model")
    im.add_argument("mats")
    im.set_defaults(func=_cmd_integral_model)

    tc = sub.add_parser("tame-check")
    tc.add_argument("x")
    tc.add_argument("y")
    tc.add_argument("q", type=int)
    tc.set_defaults(func=_cmd_tame_check)

    fd = sub.add_parser("field-of-def")
    fd.add_argument("traces")
    fd.add_argument("--dmax", type=int, default=8)
    fd.set_defaults(func=_cmd_field_of_def)

    dq = sub.add_parser("density")
    dq.add_argument("query")
    dq.set_defaults(func=_cmd_density)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleNotFound as exc:
        print(json.dumps({"error": str(exc), "kind": "oracle_not_found"}),
              file=sys.stderr)
        return EXIT_ORACLE
    except (InputError, KeyError, TypeError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "kind": "input"}),
              file=sys.stderr)
        return EXIT_INPUT
    except WittliftError as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}),
              file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
