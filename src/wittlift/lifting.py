"""The deformation-tower engine.

Builds a tower of representations rho_1, rho_2, ... of a surrogate group,
where rho_m lives over W(F_{l^{2^(m-1)}})/l^m.  Each step embeds the
coefficients, lifts the generator images one level, repairs relator defects,
and twists by a 1-cocycle so that a chosen place's Frobenius trace escapes
the previous coefficient subring.  The resulting trace log feeds a
transcendence-style certificate: no small degree d admits all traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import certcheck
from . import coeffring as cr
from . import linalg
from .cohomology import (
    Cocycle,
    _coboundary_basis,
    adjoint_mul,
    apply_adjustment,
    build_module,
    cocycle_space,
    fox_jacobian,
    lift_solve,
    normalize_det,
    relator_defects,
    relator_system,
    restrict_and_classify,
    sha_kernel,
    dual_module,
)
from .errors import (
    EigenvaluesNotInField,
    Inconsistent,
    NotACocycle,
    OracleNotFound,
    ParamMismatch,
    PoolExhausted,
    RepeatedResidualEigenvalues,
    SchemaError,
    ShaNotTrivial,
    SupportConditionUnavailable,
    Unreachable,
)
from .galois_model import (
    Deformation,
    deformation_from_json_dict,
    deformation_to_json_dict,
    evaluate_word,
    is_unramified_at,
    json_field,
    json_object,
    validate_deformation,
    check_running_hypotheses,
)
from .matlin import Mat, char_poly, lifted_eigenvalues, ratio_pair, splitting_roots

# 2: embed sends X to X^(D/d) where the degree-D modulus is the degree-d one
# composed with x^(D/d); schema 1 took the smallest residual root there
TOWER_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# twisting


def twist(rho, f):
    """g -> (I + l^(m-1) f~(g)) rho(g), each by adjoint_mul's one product over
    the residue field on f's values; validates the result is a homomorphism
    by evaluating every relator."""
    ring = rho.ring
    m = ring.m
    if m < 2:
        raise ParamMismatch("twisting needs level m >= 2")
    if f.module.field != ring.residue_field:
        raise ParamMismatch("cocycle field does not match the deformation")
    images = {name: adjoint_mul(f.values[name], rho.image(name), m - 1)
              for name in rho.group.generators}
    out = Deformation(rho.group, ring, images)
    for rel in rho.group.relators:
        if not evaluate_word(out, rel).is_identity():
            raise NotACocycle(f"twist breaks relator {rel}")
    return out


def trace_delta_digit(rho, f, word):
    """The residual coefficient of the trace change of twist(rho, f) at a word,
    a canonical value: tr' = tr + l^(m-1) * tr(f~(word) rho(word))."""
    weights = _trace_weights(evaluate_word(rho, word).residue(), f.module.field)
    return cr._matmul(f.module.field, weights, f(word), 3, 1)[0]


# ---------------------------------------------------------------------------
# trace targeting


def _trace_weights(rres, field):
    """w with tr([[a, b], [c, -a]] rres) = w . (b, a, c): the residual entries
    (r10, r00 - r11, r01), canonical values over field, rres's ring."""
    if rres.ring != field:
        raise ParamMismatch(f"module over {field}, deformation over {rres.ring}")
    r00, r01, r10, r11 = rres.entries
    return r10, tuple([(x - y) % field.q for x, y in zip(r00, r11)]), r01


def _trace_row(group, module, word, weights):
    """Canonical-value coefficients of f -> tr(f~(word) rres) on flat cocycle
    values, rres the residual image of the word and weights the values of its
    _trace_weights (constants when module is over F_l): the weights times the
    word's Fox Jacobian, one fused dot product per column."""
    field, jac = module.field, fox_jacobian(group, module, word)
    return cr._matmul(field, [w[:field.d] for w in weights], [x for r in jac for x in r],
                      len(jac), len(jac[0]))


def solve_trace_targets(rho, module, targets, locked_places=()):
    """A cocycle f with twist(rho, f) hitting every (place, trace) target
    exactly and vanishing at the locked places' sigma/tau words.

    Targets must agree with the current traces mod l^(m-1) (Inconsistent
    otherwise); an unsolvable system raises Unreachable, naming the place
    and the cause when a target asks to move a trace no twist can move.
    The system is module.base's when the trace weights are constants too.
    """
    group = rho.group
    ring = rho.ring
    m = ring.m
    field = module.field
    images = [evaluate_word(rho, place.sigma) for place, _ in targets]
    weights = [_trace_weights(im.residue(), field) for im in images]
    sysmod = module if any(any(w[1:]) for ws in weights for w in ws) else module.base
    rows = relator_system(group, sysmod)
    rhs = [(0,) * field.d] * len(rows)
    for (place, want), image, ws in zip(targets, images, weights):
        cur = image.trace()
        diff = want - cur
        if diff.valuation() < m - 1:
            raise Inconsistent(
                f"target at {place.label} differs from the current trace "
                f"below the top digit")
        u = cr.witt_digit(diff, m - 1)
        row = _trace_row(group, sysmod, place.sigma, ws)
        if not u.is_zero() and not any(map(any, row)):
            # tr(f * c I) = c tr f = 0 for every trace-zero f
            rres = image.residue()
            scalar = rres == Mat.identity(rres.ring, rres.n).scale(rres.rows[0][0])
            raise Unreachable(f"trace functional at {place.label} vanishes"
                              + (": rhobar(sigma) is scalar" if scalar else ""))
        rows.append(row)
        rhs.append(u.coeffs)
    lrows = [list(r) for place in locked_places for word in (place.sigma, place.tau)
             for r in fox_jacobian(group, sysmod, word)]
    sol = linalg.solve(rows + lrows, rhs + [(0,) * field.d] * len(lrows), sysmod.field)
    if sol is None:
        raise Unreachable("trace targets are not in the span of the "
                          "twist functionals")
    return Cocycle.from_flat(group, module, sol)


# ---------------------------------------------------------------------------
# niceness and the place oracle


def is_nice(place, rhobar):
    """q not +-1 mod l, tau unramified, and residual Frobenius eigenvalues
    with ratio q."""
    ell = rhobar.ring.ell
    if place.q % ell in (1, ell - 1, 0):
        return False
    if not is_unramified_at(rhobar, place)[0]:
        return False
    g = evaluate_word(rhobar, place.sigma).residue()
    field, roots = splitting_roots(char_poly(g))
    return ratio_pair([r for r, mult in roots for _ in range(mult)],
                      cr.ff_from_int(field, place.q)) is not None


def is_rho_m_nice(place, rho_m):
    """q not +-1 mod l, tau exactly unramified, and Hensel-lifted Frobenius
    eigenvalues in W/l^m with ratio q.  Each implies its residual form, so
    this is is_nice residually, in one eigenvalue pass."""
    ell = rho_m.ring.ell
    if place.q % ell in (1, ell - 1, 0):
        return False
    if not is_unramified_at(rho_m, place)[0]:
        return False
    try:
        lams = lifted_eigenvalues(evaluate_word(rho_m, place.sigma))
    except (EigenvaluesNotInField, RepeatedResidualEigenvalues):
        return False
    return len(lams) == 2 and ratio_pair(lams, cr.witt_from_int(rho_m.ring, place.q)) is not None


@dataclass(frozen=True)
class OracleConstraints:
    rho_m_nice: bool = False
    patterns: tuple = ()  # (Cocycle, want_nonzero: bool) pairs


def oracle_find_places(pool, rho_m, constraints=OracleConstraints(),
                       exclude=()):
    """First pool place (label order) meeting the constraints, or OracleNotFound.

    Constraint classes must be independent in H^1 (checked when present).
    """
    if constraints.patterns:
        _check_pattern_independence(rho_m.group, constraints.patterns)
    for place in sorted(pool, key=lambda p: p.label):
        if place.label in exclude:
            continue
        if constraints.rho_m_nice and not is_rho_m_nice(place, rho_m):
            continue
        ok = True
        for coc, want_nonzero in constraints.patterns:
            cls = restrict_and_classify(coc, place)
            if want_nonzero and cls == "zero_class":
                ok = False
                break
            if not want_nonzero and cls != "zero_class":
                ok = False
                break
        if ok:
            return place
    raise OracleNotFound("no pool place satisfies the constraints")


def _check_pattern_independence(group, patterns):
    module = patterns[0][0].module
    if any(coc.module != module for coc, _ in patterns):
        raise ParamMismatch("constraint classes live in different modules")
    b1 = _coboundary_basis(group, module)
    vecs = [[x for name in group.generators for x in coc.values[name]] for coc, _ in patterns]
    if linalg.rank(b1 + vecs, module.field) != len(b1) + len(vecs):
        raise ParamMismatch("constraint classes are dependent in H^1")


# ---------------------------------------------------------------------------
# auxiliary-set selection


def _localization_ranks(group, module, dmodule, s_r_places, q_places):
    """The three rank checks behind auxiliary selection: injectivity of the
    localization map for the module and its dual over S+R+Q, and surjectivity
    onto the unramified local quotients at Q."""
    all_places = list(s_r_places) + list(q_places)
    inj1 = len(sha_kernel(group, module, all_places)) == 0
    inj2 = len(sha_kernel(group, dmodule, all_places)) == 0
    module = module.base
    dim = module.dim
    deltas = [module.delta(p.sigma) for p in q_places]
    want = sum(dim - linalg.rank(delta, module.field) for delta in deltas)
    got = 0
    if want:
        z1, _, _ = cocycle_space(group, module)
        fox = [x for p in q_places for r in fox_jacobian(group, module, p.sigma) for x in r]
        # each Z^1 vector's values at the sigma words, one product each
        rows = [cr._matmul(module.field, fox, z, len(z), 1) for z in z1]
        # rank of the restrictions modulo im(delta): the columns of the
        # block-diagonal A_sigma - I, whose rank is dim * |Q| - want
        im_rows = []
        for p_i, delta in enumerate(deltas):
            for col in zip(*delta):
                vec = [(0,) * module.field.d] * (dim * len(q_places))
                vec[p_i * dim:(p_i + 1) * dim] = col
                im_rows.append(vec)
        got = linalg.rank(im_rows + rows, module.field) - (len(im_rows) - want)
    return {"inj_module": inj1, "inj_dual": inj2,
            "surj_unramified": got == want, "coker_target": want, "coker_rank": got}


def select_auxiliary(rho_m, module, s_r_places, pool):
    """Greedily add nice pool places until the localization rank checks pass.

    Requires the locally-trivial kernels over the starting set to vanish for
    both the module and its dual (ShaNotTrivial otherwise is raised only when
    no enlargement can fix it and the kernel persists over the full pool).
    """
    group = rho_m.group
    dmod = dual_module(module)
    q_places = []
    used = {p.label for p in s_r_places}
    while True:
        ranks = _localization_ranks(group, module, dmod, s_r_places, q_places)
        if ranks["inj_module"] and ranks["inj_dual"] and ranks["surj_unramified"]:
            return tuple(q_places), ranks
        try:
            place = oracle_find_places(pool, rho_m,
                                       OracleConstraints(rho_m_nice=True),
                                       exclude=used)
        except OracleNotFound:
            full = list(s_r_places) + [p for p in pool if p.label not in
                                       {q.label for q in s_r_places}]
            if sha_kernel(group, module, full) or sha_kernel(group, dmod, full):
                raise ShaNotTrivial("locally-trivial classes persist over the "
                                    "entire pool")
            raise PoolExhausted("no further nice places available and rank "
                                f"checks incomplete: {ranks}")
        used.add(place.label)
        q_places.append(place)


# ---------------------------------------------------------------------------
# tower plans, steps, and certificates


@dataclass(frozen=True)
class TowerPlan:
    """Recipe for a tower: which place carries the escaping trace per level."""

    rhobar: Deformation
    max_level: int
    r_labels: dict  # level (>= 2) -> place label
    locked_labels: tuple = ()
    escape: bool = True  # False gives the Frobenius-fixed negative control

    def __post_init__(self):
        if self.max_level < 1:
            raise SchemaError(f"max_level = {self.max_level} must be >= 1")
        missing = [k for k in range(2, self.max_level + 1) if k not in self.r_labels]
        if missing:
            raise SchemaError(f"r_labels: no place for levels {missing}")

    def place_for(self, level):
        return self.rhobar.group.place(self.r_labels[level])


@dataclass(frozen=True)
class TowerLevel:
    rho: Deformation
    r_label: str
    target_trace: object  # WittElem or None at level 1
    twist_values: dict  # generator name -> canonical values of the twisting cocycle
    lift_adjustment: dict  # lift_solve's adjustment, elements
    ramified: tuple


@dataclass(frozen=True)
class Tower:
    plan: TowerPlan
    levels: tuple  # TowerLevel per level 1..M


def tower_step(rho_m, plan, level):
    """One stage: embed to degree 2^m, lift, repair relators, twist traces.
    rho_m must reduce to plan.rhobar, whose memoised module serves every step."""
    group = rho_m.group
    m = rho_m.ring.m
    if level != m + 1:
        raise ParamMismatch("tower_step must target the next level")
    if rho_m.reduce(1).images != plan.rhobar.embed(rho_m.ring.d).images:
        raise ParamMismatch("rho_m does not reduce to the plan's residual representation")
    d_big = 2 ** m
    embedded = rho_m.embed(d_big)
    lifts = {}
    for name in group.generators:
        lifted = embedded.image(name).lift_trivial(m + 1)
        lifts[name] = normalize_det(group, name, lifted)
    ring1 = next(iter(lifts.values())).ring
    module = build_module(plan.rhobar, d_big)
    defects = relator_defects(embedded, lifts)
    res = lift_solve(group, module, defects)
    if not res.ok:
        raise SupportConditionUnavailable("relator defects are unsolvable")
    lifts = apply_adjustment(lifts, res.adjustment, m)
    candidate = Deformation(group, ring1, lifts)
    place = plan.place_for(level)
    cur = evaluate_word(candidate, place.sigma).trace()
    if plan.escape:
        gen = cr.lift_trivial(cr.ff_gen(ring1.residue_field), m + 1)
        target = cur + cr.witt_scale(gen, ring1.ell ** m)
        prev_degree = 2 ** (m - 1)
        if cr.in_subring(target, prev_degree):
            raise ParamMismatch("constructed target fails the escape invariant")
    else:
        target = cur
    locked = [group.place(lab) for lab in plan.locked_labels]
    f = solve_trace_targets(candidate, module, [(place, target)], locked)
    out = twist(candidate, f)
    # exact plug-back of the target and reduction compatibility
    got = evaluate_word(out, place.sigma).trace()
    if got != target:
        raise Unreachable("trace target missed after twisting")
    if out.reduce(m).images != embedded.images:
        raise ParamMismatch("reduction compatibility violated")
    rep = validate_deformation(out)
    if not rep.ok:
        raise ParamMismatch(f"stage failed validation: {rep.failures}")
    lvl = TowerLevel(out, place.label, target, dict(f.values),
                     dict(res.adjustment), rep.ramified_places)
    return lvl


def build_tower(plan):
    """Run the plan from rho_1 to max_level; returns (Tower, Certificate)."""
    rhobar = plan.rhobar
    if not check_running_hypotheses(rhobar):
        raise ParamMismatch("residual representation fails the running "
                            "hypotheses")
    rep = validate_deformation(rhobar)
    levels = [TowerLevel(rhobar, "", None, {}, {}, rep.ramified_places)]
    rho = rhobar
    for level in range(2, plan.max_level + 1):
        lvl = tower_step(rho, plan, level)
        levels.append(lvl)
        rho = lvl.rho
    tower = Tower(plan, tuple(levels))
    cert = make_certificate(tower, 2 ** (plan.max_level - 1))
    return tower, cert


def logged_traces(tower):
    """(place label, level, trace) for every targeted place, at native rings:
    each level's target, which tower_step's twist hits exactly."""
    return [(lvl.r_label, i, lvl.target_trace)
            for i, lvl in enumerate(tower.levels[1:], start=2)]


def _witness(traces, d):
    """The certificate entry showing that degree d cannot define every
    logged (label, level, trace), or None when d defines them all.

    A "frobenius" witness is a trace not fixed by Frobenius^gcd(d, ambient);
    a "degree" witness is a trace whose ambient degree d does not divide.
    """
    for label, level, tr in traces:
        g = math.gcd(d, tr.ring.d)
        if not cr.in_subring(tr, g):
            return {"d": d, "kind": "frobenius", "place": label,
                    "level": level, "check_degree": g,
                    "trace": cr.witt_to_str(tr)}
    for label, level, tr in traces:
        if tr.ring.d % d != 0:
            return {"d": d, "kind": "degree", "place": label,
                    "level": level, "trace": cr.witt_to_str(tr)}
    return None


def field_of_definition(traces, d_max):
    """Minimal d <= d_max dividing every trace's ambient degree with all
    traces Frobenius^d-fixed, or None: the first d without a _witness."""
    logged = [(None, None, tr) for tr in traces]
    return next((d for d in range(1, d_max + 1)
                 if _witness(logged, d) is None), None)


def make_certificate(tower, d_top):
    """Per degree d <= d_top, the _witness that d cannot define all traces;
    degrees without one are reported as uncovered."""
    traces = logged_traces(tower)
    entries = [_witness(traces, d) or {"d": d, "kind": "uncovered"}
               for d in range(1, d_top + 1)]
    return {"schema_version": certcheck.SCHEMA_VERSION, "d_top": d_top,
            "entries": entries}


# ---------------------------------------------------------------------------
# serialization


def tower_to_json_dict(tower):
    lvls = []
    for lvl in tower.levels:
        lvls.append({
            "deformation": deformation_to_json_dict(lvl.rho),
            "r_label": lvl.r_label,
            "target_trace": cr.witt_to_str(lvl.target_trace)
            if lvl.target_trace is not None else None,
            "twist": {k: list(v) for k, v in lvl.twist_values.items()},
            "lift_adjustment": {k: [a.coeffs for a in v] for k, v in lvl.lift_adjustment.items()},
            "ramified": list(lvl.ramified),
        })
    return {
        "schema_version": TOWER_SCHEMA_VERSION,
        "group": tower.plan.rhobar.group.to_json_dict(),
        "max_level": tower.plan.max_level,
        "r_labels": {str(k): v for k, v in tower.plan.r_labels.items()},
        "escape": tower.plan.escape,
        "levels": lvls,
    }


def verify_tower_dict(data):
    """Re-validate a serialized tower; returns a list of failure strings."""
    from .galois_model import ModelGroup
    if data.get("schema_version") == 1:
        raise SchemaError("tower schema_version 1 predates the embedding X -> X^(D/d) "
                          "of composed moduli (it took the smallest residual root): "
                          "rebuild the tower")
    if data.get("schema_version") != TOWER_SCHEMA_VERSION:
        raise SchemaError("unsupported or missing schema_version")
    group = ModelGroup.from_json_dict(json_field(data, "group"))
    failures = []
    levels, top = json_field(data, "levels"), json_field(data, "max_level")
    r_labels = json_object(json_field(data, "r_labels"), "r_labels")
    if not isinstance(levels, list):
        raise SchemaError("levels: not a JSON list")
    for i, lvl in enumerate(levels):
        json_object(lvl, f"levels[{i}]")
        for key in ("deformation", "r_label", "target_trace"):
            json_field(lvl, key, f"levels[{i}]: ")
    if type(top) is not int:
        raise SchemaError(f"max_level: {top!r} is not a JSON integer")
    if len(levels) != top:
        failures.append(f"level {min(len(levels), top) + 1}: {len(levels)} levels, max_level {top}")
    prev = None
    for i, lvl in enumerate(levels, start=1):
        rho = deformation_from_json_dict(lvl["deformation"], group)
        if rho.ring.m != i:
            failures.append(f"level {i}: wrong precision {rho.ring.m}")
        if rho.ring.d != 2 ** (i - 1):
            failures.append(f"level {i}: degree {rho.ring.d}, want {2 ** (i - 1)}")
        if i >= 2 and lvl["r_label"] != r_labels.get(str(i)):
            failures.append(f"level {i}: r_label {lvl['r_label']!r} is not r_labels[{i}]")
        rep = validate_deformation(rho)
        if not rep.ok:
            failures.append(f"level {i}: {rep.failures}")
        if lvl["target_trace"] is not None:
            place = group.place(lvl["r_label"])
            tr = evaluate_word(rho, place.sigma).trace()
            if cr.witt_to_str(tr) != lvl["target_trace"]:
                failures.append(f"level {i}: trace at {lvl['r_label']} does "
                                "not match the logged target")
        if prev is not None:
            red = rho.reduce(i - 1)
            emb = prev.embed(rho.ring.d)
            if red.images != emb.images:
                failures.append(f"level {i}: reduction incompatibility")
        prev = rho
    return failures
