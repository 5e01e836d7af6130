"""Tests for cocycle spaces, local classification, and obstruction solving."""

import contextlib
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittlift.coeffring as cr
from wittlift.cohomology import (
    Cocycle,
    GModule,
    adjoint_mul,
    apply_adjustment,
    build_module,
    check_cocycle,
    coboundary_of,
    cocycle_eval,
    cocycle_space,
    dual_module,
    fox_jacobian,
    invariants_dim,
    lift_solve,
    module_from_action,
    normalize_det,
    relator_defects,
    relator_system,
    restrict_and_classify,
    sha_kernel,
)
from wittlift.errors import (
    DetNotEpsilon,
    LiftsDoNotReduce,
    NotACocycle,
    ParamMismatch,
)
from wittlift.galois_model import (
    Deformation,
    ModelGroup,
    Place,
    evaluate_word,
    parse_word,
)
from wittlift.matlin import Mat
from wittlift.presets import (
    deformation_tame,
    finite_groups,
    residual_tame,
    surrogate_tame,
    module_suite,
)
from helpers_bruteforce import brute_force_h1, mat_apply, matrix_order, pairing, walk_cocycle

F5 = cr.make_field(5, 1)


def trivial_module(group, dim=1):
    return module_from_action(
        F5, {g: Mat.identity(F5, dim) for g in group.generators})


def test_h1_of_cyclic_group_trivial_module():
    c5 = ModelGroup(("a",), (parse_word("a^5"),), (), {"a": 1})
    _, _, h1 = cocycle_space(c5, trivial_module(c5))
    assert h1 == 1  # Hom(Z/5, F_5)


def test_h1_of_s3_trivial_module():
    s3 = ModelGroup(("s", "t"),
                    (parse_word("s^2"), parse_word("t^3"), parse_word("s t s t")),
                    (), {"s": 1, "t": 1})
    _, _, h1 = cocycle_space(s3, trivial_module(s3))
    assert h1 == 0


def test_free_group_has_no_relator_constraints():
    fr = ModelGroup(("x", "y"), (), (), {"x": 1, "y": 1})
    z1, b1, h1 = cocycle_space(fr, trivial_module(fr, 3))
    assert len(z1) == 6 and len(b1) == 0 and h1 == 6


def test_adjoint_action_diagonal_example():
    ring = cr.make_witt_ring(5, 1, 1)
    g1 = ModelGroup(("g",), (), (), {"g": 2})
    rho = Deformation(g1, ring, {"g": Mat.from_ints(ring, [[2, 0], [0, 1]])})
    mod = build_module(rho, 1)
    act = mod.action["g"]
    assert [act.rows[i][i].coeffs[0] for i in range(3)] == [2, 1, 3]
    assert all(act.rows[i][j].is_zero()
               for i in range(3) for j in range(3) if i != j)


def test_relators_act_trivially_on_adjoint():
    rho = residual_tame()
    mod = build_module(rho, 2)
    ident = Mat.identity(mod.field, 3)
    for rel in rho.group.relators:
        assert mod.word_matrix(rel) == ident


def test_cartier_dual_pairing():
    rho = residual_tame()
    mod = build_module(rho, 1)
    dual = dual_module(build_module(rho, 1))
    rng = random.Random(2)
    for _ in range(200):
        name = rng.choice(rho.group.generators)
        x = tuple(cr.ff_from_int(F5, rng.randrange(5)) for _ in range(3))
        phi = tuple(cr.ff_from_int(F5, rng.randrange(5)) for _ in range(3))
        eps = cr.ff_from_int(F5, rho.group.epsilon[name])
        lhs = pairing(mat_apply(mod.action[name], x), mat_apply(dual.action[name], phi))
        assert lhs == pairing(x, phi) * eps


# sha256 of the dual tame module's action entries at d = 1, 2, 4, recorded
# from build_module(rhobar, d, "cartier_dual") before that twist option went
DUAL_MODULE_SHA256 = "880b38df6faf67f7a9746c3dbb24192f7abda13a4d33e4146094efe041d135e7"


def test_dual_module_entries_are_pinned():
    import hashlib
    rho = residual_tame()
    lines = []
    for d in (1, 2, 4):
        dual = dual_module(build_module(rho, d))
        assert dual.epsilon == rho.group.epsilon
        lines.append(repr(sorted((k, v.entries) for k, v in dual.action.items())))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DUAL_MODULE_SHA256


def test_double_dual_is_original():
    rho = residual_tame()
    mod = build_module(rho, 1)
    dd = dual_module(dual_module(mod))
    rng = random.Random(3)
    for _ in range(100):
        word = tuple((rng.choice(rho.group.generators), rng.choice([1, -1, 2]))
                     for _ in range(3))
        assert mod.word_matrix(word) == dd.word_matrix(word)


def test_fox_h1_matches_brute_force():
    mismatches = []
    for name, group, images, order in finite_groups():
        for mod_name, module in module_suite(group, images):
            z1, b1, h1 = cocycle_space(group, module)
            bz, bb, bh = brute_force_h1(group, images, module)
            if (len(z1), len(b1), h1) != (bz, bb, bh):
                mismatches.append((name, mod_name, (len(z1), len(b1), h1),
                                   (bz, bb, bh)))
    assert mismatches == []


def test_brute_force_oracle_does_not_use_the_fox_jacobian(monkeypatch):
    """The oracle shares no code with cocycle_space: neither the Fox system
    nor Mat, GModule or FFElem arithmetic; nor does matrix_order multiply
    through Mat."""
    import wittlift.cohomology as co

    cases = [(group, images, module, cocycle_space(group, module))
             for _, group, images, _ in finite_groups()
             for _, module in module_suite(group, images)]
    f5, f25, w25 = cr.make_field(5, 1), cr.make_field(5, 2), cr.make_witt_ring(5, 2, 2)
    mats = [Mat.from_ints(f5, [[2, 0], [0, 1]]), Mat.from_ints(f25, [[1, 1], [0, 1]]),
            Mat.from_ints(f25, [[0, 3], [1, 0]]), Mat.from_ints(w25, [[2, 1], [0, 1]]),
            Mat.from_ints(f5, [[3, 1, 0], [0, 3, 1], [0, 0, 3]])]
    orders = [(y, next(k for k in itertools.count(1) if (y ** k).is_identity()))
              for y in mats]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached library arithmetic")

    for fn in ("fox_jacobian", "relator_system", "cocycle_space"):
        monkeypatch.setattr(co, fn, refuse)
    for owner, name in ((Mat, "__mul__"), (Mat, "inverse"),
                        (co.GModule, "act_gen"), (cr.FFElem, "__add__"),
                        (cr.FFElem, "__mul__")):
        monkeypatch.setattr(owner, name, refuse)
    for group, images, module, (z1, b1, h1) in cases:
        assert brute_force_h1(group, images, module) == (len(z1), len(b1), h1)
    assert [matrix_order(y) for y, _ in orders] == [k for _, k in orders]


@functools.lru_cache(maxsize=None)
def _fox_cases():
    """(label, group, module): the finite suite and the tame adjoint module."""
    cases = [(f"{name}/{mod_name}", group, module)
             for name, group, images, _ in finite_groups()
             for mod_name, module in module_suite(group, images)]
    rho = residual_tame()
    cases += [(f"tame/d{d}", rho.group, build_module(rho, d)) for d in (1, 2, 4)]
    return tuple(cases)


def _unit_cocycle_columns(group, module, word):
    """Oracle: the prefix walk at the word of every unit cocycle, one per
    (generator, coordinate), as canonical values."""
    zero = (0,) * module.field.d
    one = (1,) + zero[1:]
    cols = []
    for name in group.generators:
        for ci in range(module.dim):
            values = {g: tuple(one if g == name and k == ci else zero
                               for k in range(module.dim))
                      for g in group.generators}
            cols.append(tuple(walk_cocycle(module, values, word)))
    return cols


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fox_jacobian_matches_unit_cocycles(data):
    label, group, module = data.draw(st.sampled_from(_fox_cases()))
    word = tuple(data.draw(st.lists(
        st.tuples(st.sampled_from(group.generators), st.integers(-4, 4)),
        max_size=6)))
    jac = fox_jacobian(group, module, word)
    assert len(jac) == module.dim
    assert list(zip(*jac)) == _unit_cocycle_columns(group, module, word), label
    assert fox_jacobian(group, module, word) is jac  # memoised on the module


def test_fox_jacobian_of_the_empty_word_is_zero():
    for label, group, module in _fox_cases():
        zero = (0,) * module.field.d
        width = len(group.generators) * module.dim
        assert fox_jacobian(group, module, ()) == \
            ((zero,) * width,) * module.dim, label


def test_the_walk_oracle_takes_no_fox_path(monkeypatch):
    """The walk evaluates a random cocycle of every _fox_cases() module with
    _fox_rows, fox_jacobian and cocycle_eval refusing, and agrees with
    cocycle_eval as computed before."""
    import wittlift.cohomology as co
    rng = random.Random(7)
    runs = []
    for label, group, module in _fox_cases():
        q, d = module.field.q, module.field.d
        values = {g: tuple(tuple(rng.randrange(q) for _ in range(d)) for _ in range(module.dim))
                  for g in group.generators}
        word = tuple((rng.choice(group.generators), rng.randint(-4, 4)) for _ in range(5))
        runs.append((label, module, values, word, cocycle_eval(module, values, word)))

    def refuse(*args, **kwargs):
        raise AssertionError("the walk reached the Fox path")

    for fn in ("_fox_rows", "fox_jacobian", "cocycle_eval"):
        monkeypatch.setattr(co, fn, refuse)
    for label, module, values, word, want in runs:
        assert walk_cocycle(module, values, word) == want, label


@functools.lru_cache(maxsize=None)
def _eval_cases():
    """(label, group, module): the tame adjoint module and its dual at
    d = 1, 2, 4, 16, a module over F_25 whose action is not constant (so its
    base is itself), and the finite suite."""
    rho = residual_tame()
    cases = []
    for d in (1, 2, 4, 16):
        module = build_module(rho, d)
        cases += [(f"tame/d{d}", rho.group, module),
                  (f"tame dual/d{d}", rho.group, dual_module(module))]
    f25 = cr.make_field(5, 2)
    x, one, zero = cr.element(f25, (0, 1)), cr.ff_one(f25), cr.ff_zero(f25)
    free = ModelGroup(("x", "y"), (), (), {"x": 1, "y": 1})
    module = module_from_action(f25, {"x": Mat.from_rows(f25, [[x, one], [zero, one]]),
                                      "y": Mat.from_rows(f25, [[one, zero], [x, x]])})
    assert module.base is module
    cases.append(("F_25 non-constant", free, module))
    cases += [(f"{name}/{mod_name}", group, module)
              for name, group, images, _ in finite_groups()
              for mod_name, module in module_suite(group, images)]
    return tuple(cases)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_cocycle_eval_matches_the_walk(data):
    label, group, module = data.draw(st.sampled_from(_eval_cases()))
    field = module.field
    value = st.lists(st.integers(0, field.q - 1), min_size=field.d, max_size=field.d).map(tuple)
    values = {g: tuple(data.draw(value) for _ in range(module.dim)) for g in group.generators}
    word = tuple(data.draw(st.lists(
        st.tuples(st.sampled_from(group.generators), st.integers(-4, 4)), max_size=6)))
    assert cocycle_eval(module, values, word) == walk_cocycle(module, values, word), label


def _tame_values():
    """The tame adjoint module over F_25 and valid values for a Cocycle on it."""
    module = build_module(residual_tame(), 2)
    return module, {g: ((1, 0), (0, 3), (4, 4)) for g in module.action}


def test_cocycle_refuses_a_missing_generator():
    module, values = _tame_values()
    Cocycle(module, values)
    del values["t"]
    with pytest.raises(ParamMismatch, match="0 values at t, not 3"):
        Cocycle(module, values)


def test_cocycle_refuses_a_vector_of_the_wrong_length():
    module, values = _tame_values()
    values["s"] = values["s"][:2]
    with pytest.raises(ParamMismatch, match="2 values at s, not 3"):
        Cocycle(module, values)


def test_cocycle_refuses_values_that_are_not_d_tuples():
    module, values = _tame_values()
    for bad in (cr.element(module.field, (1, 0)), (1,), (1, 0, 0), [1, 0]):
        values["u"] = ((0, 0), bad, (0, 0))
        with pytest.raises(ParamMismatch, match="at u are not 2-tuples"):
            Cocycle(module, values)


def test_cocycle_eval_refuses_values_of_the_wrong_length():
    # two values per generator of a 3-dimensional module used to give 5 values
    rho = residual_tame()
    module = build_module(rho, 1)
    rel = rho.group.relators[0]
    with pytest.raises(ParamMismatch, match="at s are not 3 1-tuples"):
        cocycle_eval(module, {g: ((1,), (2,)) for g in rho.group.generators}, rel)
    with pytest.raises(ParamMismatch, match="at s are not 3 1-tuples"):
        cocycle_eval(module, {g: ((1,), (2, 0), (0,)) for g in rho.group.generators}, rel)
    module, values = _tame_values()
    values["u"] = ((0, 0), (1,), (0, 0))
    with pytest.raises(ParamMismatch, match="at u are not 3 2-tuples"):
        cocycle_eval(module, values, rel)


def test_cocycle_refuses_values_at_names_that_are_not_generators():
    module, values = _tame_values()
    values["z"] = values["s"]
    with pytest.raises(ParamMismatch, match="not generators"):
        Cocycle(module, values)


def test_a_cocycle_evaluates_as_its_values_on_its_own_module_only():
    module, values = _tame_values()
    f = Cocycle(module, values)
    rel = residual_tame().group.relators[0]
    assert f(rel) == cocycle_eval(module, f, rel) == cocycle_eval(module, values, rel)
    with pytest.raises(ParamMismatch, match="another module"):
        cocycle_eval(dual_module(module), f, rel)


def test_cocycle_refuses_a_coefficient_outside_0_q():
    module, values = _tame_values()
    for bad in ((5, 0), (0, -1)):
        values["w"] = ((0, 0), (0, 0), bad)
        with pytest.raises(ParamMismatch, match=r"at w are not 2-tuples of ints in \[0, 5\)"):
            Cocycle(module, values)


def test_relator_system_without_relators_is_one_zero_row():
    fr = ModelGroup(("x", "y"), (), (), {"x": 1, "y": 1})
    assert relator_system(fr, trivial_module(fr, 3)) == [[(0,)] * 6]


def test_inverse_action_is_computed_once_per_generator(monkeypatch):
    rho = residual_tame()
    module = build_module(rho, 2)
    calls = []
    inverse = Mat.inverse
    monkeypatch.setattr(Mat, "inverse",
                        lambda a: calls.append(1) or inverse(a))
    word = parse_word("s^-2 t^-1 s^-1 u w^-3")
    one, zero = (1, 0), (0, 0)
    values = {g: (one, zero, one) for g in rho.group.generators}
    for _ in range(2):
        module.word_matrix(word)
        cocycle_eval(module, values, word)
        fox_jacobian(rho.group, module, word)
    assert len(calls) == 3  # s, t and w, once each
    assert module.act_gen("w", -3) == inverse(module.action["w"]) ** 3


def test_coboundary_dimension_identity():
    for name, group, images, order in finite_groups():
        for mod_name, module in module_suite(group, images):
            _, b1, _ = cocycle_space(group, module)
            assert len(b1) == module.dim - invariants_dim(group, module), \
                (name, mod_name)


def test_z1_elements_vanish_on_relators():
    for name, group, images, order in finite_groups():
        for mod_name, module in module_suite(group, images):
            z1, _, _ = cocycle_space(group, module)
            for z in z1:
                values = Cocycle.from_flat(group, module, z).values
                for rel in group.relators:
                    assert all(not any(x) for x in walk_cocycle(module, values, rel))


def test_restrict_and_classify_branches():
    fr = ModelGroup(("x", "y"), (), (), {"x": 1, "y": 1})
    mod = trivial_module(fr, 1)
    place = Place("v", parse_word("x"), parse_word("y"), 7)
    one, zero = (1,), (0,)
    assert restrict_and_classify(
        Cocycle(mod, {"x": (zero,), "y": (zero,)}), place) == "zero_class"
    assert restrict_and_classify(
        Cocycle(mod, {"x": (one,), "y": (zero,)}), place) == "unramified_nonzero"
    assert restrict_and_classify(
        Cocycle(mod, {"x": (zero,), "y": (one,)}), place) == "ramified"


def test_coboundary_is_zero_class_everywhere():
    rho = residual_tame()
    group = rho.group
    mod = build_module(rho, 1)
    rng = random.Random(9)
    for _ in range(10):
        m = tuple((rng.randrange(5),) for _ in range(3))
        cob = coboundary_of(group, mod, m)
        for place in group.places:
            assert restrict_and_classify(cob, place) == "zero_class"


def test_coboundary_of_refuses_a_vector_of_the_wrong_shape():
    rho = residual_tame()
    module = build_module(rho, 2)
    for m in (((1, 0), (2, 0)), ((1, 0), (2, 0), (3,)), ((1, 0),) * 4):
        with pytest.raises(ParamMismatch, match="is not 3 values"):
            coboundary_of(rho.group, module, m)


def test_sha_kernel_empty_place_set_is_h1():
    fr = ModelGroup(("x", "y"), (), (), {"x": 1, "y": 1})
    mod = trivial_module(fr, 1)
    assert len(sha_kernel(fr, mod, [])) == 2
    places = [Place("v1", parse_word("x"), parse_word("x"), 7),
              Place("v2", parse_word("y"), parse_word("y"), 7)]
    assert sha_kernel(fr, mod, places) == []


def test_sha_kernel_matches_direct_enumeration():
    """Ш over the tame surrogate's place set, cross-checked elementwise."""
    from wittlift import linalg
    rho = residual_tame()
    group = rho.group
    mod = build_module(rho, 1)
    places = list(group.places)
    sha = sha_kernel(group, mod, places)
    # every reported class is locally trivial everywhere
    for vec in sha:
        coc = Cocycle.from_flat(group, mod, vec)
        for place in places:
            assert restrict_and_classify(coc, place) == "zero_class"
    # direct kernel dimension oracle: scan all of Z^1 reduced against B^1
    z1, b1, _ = cocycle_space(group, mod)
    locally_trivial = []
    for z in z1:
        coc = Cocycle.from_flat(group, mod, z)
        if all(restrict_and_classify(coc, p) == "zero_class" for p in places):
            locally_trivial.append(z)
    # dimension of the span of locally-trivial basis vectors beyond B^1;
    # (scanning basis vectors only undercounts in general, so compare spans)
    stacked = [list(r) for r in b1] + [list(v) for v in sha]
    for z in locally_trivial:
        assert linalg.rank(stacked + [list(z)], mod.field) == linalg.rank(stacked, mod.field)


# ---------------------------------------------------------------------------
# relator defects and lift_solve


def _trivial_lifts(rho, m1):
    lifts = {}
    for name in rho.group.generators:
        lifted = rho.image(name).lift_trivial(m1)
        lifts[name] = normalize_det(rho.group, name, lifted)
    return lifts


def test_relator_defects_zero_for_true_lift():
    rho = deformation_tame(2)
    lifts = {g: deformation_tame(3).image(g) for g in rho.group.generators}
    defects = relator_defects(rho, lifts)
    assert all(all(not any(x) for x in z) for z in defects)


def test_relator_defects_rejects_non_reducing_lift():
    rho = deformation_tame(2)
    lifts = {g: deformation_tame(3).image(g) for g in rho.group.generators}
    ring3 = lifts["s"].ring
    lifts["s"] = lifts["s"] + Mat.from_ints(ring3, [[1, 0], [0, 0]])
    with pytest.raises(LiftsDoNotReduce):
        relator_defects(rho, lifts)


def test_lift_solve_plug_back_seeded_defects():
    rng = random.Random(1234)
    group = surrogate_tame()
    for trial in range(10):
        m = rng.choice([1, 2, 3])
        rho = deformation_tame(m)
        lifts = _trivial_lifts(rho, m + 1)
        # seed a defect: multiply one generator lift by I + l^m * (trace-zero)
        name = rng.choice(group.generators)
        ring1 = lifts[name].ring
        lm = 5 ** m
        a, b, c = (rng.randrange(5) for _ in range(3))
        bad = Mat.from_ints(ring1, [[1 + lm * a, lm * b],
                                    [lm * c, 1 - lm * a]])
        lifts[name] = bad * lifts[name]
        module = build_module(rho.reduce(1), 1)
        defects = relator_defects(rho, lifts)
        res = lift_solve(group, module, defects)
        assert res.ok
        fixed = apply_adjustment(lifts, res.adjustment, m)
        for rel in group.relators:
            acc = Mat.identity(ring1, 2)
            for gname, e in rel:
                acc = acc * (fixed[gname] ** e)
            assert acc.is_identity()


def _full_adjoint_product(coords, g, k):
    """(I + l^k C) g as one product over g's ring, C = [[a, b], [c, -a]] with
    the trivially lifted coordinates (b, a, c), canonical values."""
    ring = g.ring
    b, a, c = [cr.witt_scale(cr.lift_trivial(cr.element(ring.residue_field, x), ring.m),
                             ring.ell ** k) for x in coords]
    return (Mat.identity(ring, 2) + Mat.from_rows(ring, [[a, b], [c, -a]])) * g


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_first_order_adjoint_product_matches_the_full_product(data):
    d = data.draw(st.sampled_from([1, 2, 4, 16]), label="d")
    m = data.draw(st.integers(2, 6), label="m")
    k = data.draw(st.one_of(st.just(m - 1), st.integers(0, m - 1)), label="k")
    ring = cr.make_witt_ring(5, d, m)
    coeffs = st.lists(st.integers(0, 4), min_size=d, max_size=d)
    coords = [tuple(data.draw(coeffs)) for _ in range(3)]
    # residues constant, as for a tower's lifts, or not
    constant = data.draw(st.booleans(), label="constant residues")
    digits = st.lists(st.integers(0, ring.q // 5 - 1), min_size=d, max_size=d)
    entries = []
    for _ in range(4):
        residue = ([data.draw(st.integers(0, 4))] + [0] * (d - 1) if constant
                   else data.draw(coeffs))
        entries.append(cr.element(ring, tuple(
            r + 5 * h for r, h in zip(residue, data.draw(digits)))))
    g = Mat.from_rows(ring, [entries[:2], entries[2:]])
    assert adjoint_mul(coords, g, k) == _full_adjoint_product(coords, g, k)


def _o_mul22(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]


def _o_inverse22(a):
    """The adjugate over the determinant, on element objects."""
    dinv = (a[0][0] * a[1][1] - a[0][1] * a[1][0]).inverse()
    return [[a[1][1] * dinv, -a[0][1] * dinv], [-a[1][0] * dinv, a[0][0] * dinv]]


def _o_defects(group, lifts, m):
    """Defect coordinates (b, a, c) of each relator, from a schoolbook product
    of the lifts' entries: the relator image is I + l^m [[a, b], [c, -a]]."""
    ring = next(iter(lifts.values())).ring
    lm = ring.ell ** m
    out = []
    for rel in group.relators:
        acc = [[cr.witt_one(ring), cr.witt_zero(ring)], [cr.witt_zero(ring), cr.witt_one(ring)]]
        for name, e in rel:
            step = [list(r) for r in lifts[name].rows]
            if e < 0:
                step = _o_inverse22(step)
            for _ in range(abs(e)):
                acc = _o_mul22(acc, step)
        acc[0][0] = acc[0][0] - cr.witt_one(ring)
        acc[1][1] = acc[1][1] - cr.witt_one(ring)
        assert all(c % lm == 0 for r in acc for x in r for c in x.coeffs)
        digit = [[tuple(c // lm % ring.ell for c in x.coeffs) for x in r] for r in acc]
        out.append((digit[0][1], digit[0][0], digit[1][0]))
    return out


@pytest.mark.parametrize("m", [2, 3, 4])
def test_relator_defects_match_schoolbook_products(m, monkeypatch):
    rng = random.Random(m)
    group = surrogate_tame()
    rho = deformation_tame(m)
    inverted, products = [], []
    inverse, mul = Mat.inverse, Mat.__mul__
    monkeypatch.setattr(Mat, "inverse", lambda a: inverted.append(a.entries) or inverse(a))
    monkeypatch.setattr(Mat, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    # binary powering per letter, then one product per further letter
    want_products = sum(len(rel) - 1 + sum(abs(e).bit_length() + bin(abs(e)).count("1") - 2
                                           for _, e in rel) for rel in group.relators)
    for _ in range(5):
        lifts = _trivial_lifts(rho, m + 1)
        name = rng.choice(group.generators)
        ring1, lm = lifts[name].ring, 5 ** m
        a, b, c = (rng.randrange(5) for _ in range(3))
        lifts[name] = Mat.from_ints(ring1, [[1 + lm * a, lm * b],
                                            [lm * c, 1 - lm * a]]) * lifts[name]
        inverted.clear()
        products.clear()
        defects = relator_defects(rho, lifts)
        assert len(products) == want_products
        assert defects == _o_defects(group, lifts, m)
        # each lift is inverted at most once, and only lifts are inverted
        assert len(inverted) == len(set(inverted))
        assert set(inverted) <= {x.entries for x in lifts.values()}


def _o_normalize_det(group, name, lift):
    """normalize_det through the unit inverse: w is the digit of
    eps * det^-1 - 1 at l^(m1-1), and the lift is scaled by 1 + l^(m1-1) w/2."""
    ring = lift.ring
    ell, m1 = ring.ell, ring.m
    want = cr.witt_from_int(ring, group.epsilon[name])
    det = lift.det()
    if det == want:
        return lift
    diff = want * det.inverse() - cr.witt_one(ring)
    if diff.valuation() < m1 - 1:
        raise DetNotEpsilon("not 1 mod l^(m1-1)")
    lm = ell ** (m1 - 1)
    half = pow(2, -1, ell)
    s = cr.WittElem(ring, tuple(lm * ((c // lm) % ell * half % ell) for c in diff.coeffs))
    out = lift.scale(cr.witt_one(ring) + s)
    if out.det() != want:
        raise DetNotEpsilon("normalization failed")
    return out


@pytest.mark.parametrize("d", [1, 2, 4])
def test_normalize_det_matches_inverse_formula(d):
    rng = random.Random(d)
    group = surrogate_tame()
    for trial in range(30):
        m = rng.choice([1, 2, 3])
        ring = cr.make_witt_ring(5, d, m + 1)
        name = rng.choice(group.generators)
        eps = cr.witt_from_int(ring, group.epsilon[name])
        while True:
            g = Mat.from_rows(ring, [[cr.WittElem(ring, tuple(rng.randrange(ring.q)
                                                              for _ in range(d)))
                                      for _ in range(2)] for _ in range(2)])
            if g.det().is_unit():
                break
        # scale row 0 so that det = eps (1 + l^k u): k = m keeps det = eps
        # mod l^m, and k = m - 1 with u a unit does not
        if trial % 5 == 0 and m > 1:
            k, u = m - 1, cr.witt_from_int(ring, rng.randrange(1, 5))
        else:
            k, u = m, cr.WittElem(ring, tuple(rng.randrange(ring.q) for _ in range(d)))
        f = eps * g.det().inverse() * (cr.witt_one(ring) + cr.witt_scale(u, 5 ** k))
        (a, b), (c, e) = g.rows
        lift = Mat.from_rows(ring, [[a * f, b * f], [c, e]])
        if k < m:
            with pytest.raises(DetNotEpsilon):
                _o_normalize_det(group, name, lift)
            with pytest.raises(DetNotEpsilon):
                normalize_det(group, name, lift)
        else:
            out = normalize_det(group, name, lift)
            assert out == _o_normalize_det(group, name, lift)
            assert out.det() == eps


def test_lift_solve_defect_trace_must_vanish():
    rho = deformation_tame(2)
    lifts = _trivial_lifts(rho, 3)
    ring3 = lifts["s"].ring
    # break the determinant on purpose: defect extraction must refuse
    lifts["t"] = Mat.from_ints(ring3, [[1 + 25, 1], [0, 1]])
    with pytest.raises(DetNotEpsilon):
        relator_defects(rho, lifts)


def test_check_cocycle_raises_on_junk():
    group = surrogate_tame()
    rho = residual_tame()
    module = build_module(rho, 1)
    one = (1,)
    zero = (0,)
    bad = {g: (one, zero, zero) for g in group.generators}
    with pytest.raises(NotACocycle):
        check_cocycle(group, module, bad)


# ---------------------------------------------------------------------------
# the per-word maps and one elimination per system


def _greedy_complement(sub_rows, all_rows, field):
    """Oracle: keep each vector of all_rows that raises the rank of
    sub_rows and the vectors kept before it."""
    from wittlift import linalg
    stack = [list(r) for r in sub_rows]
    out = []
    for v in all_rows:
        if linalg.rank(stack + [list(v)], field) > linalg.rank(stack, field):
            stack.append(list(v))
            out.append(list(v))
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_independent_complement_matches_greedy_rank_loop(data):
    from wittlift import linalg
    field = cr.make_field(5, data.draw(st.sampled_from((1, 2))))
    length = data.draw(st.integers(1, 5))
    # canonical values: coefficient d-tuples over F_5
    elem = st.lists(st.integers(0, 4), min_size=field.d, max_size=field.d).map(tuple)
    fresh = st.lists(elem, min_size=length, max_size=length)
    pool = data.draw(st.lists(fresh, min_size=1, max_size=4))
    zero = [(0,) * field.d] * length

    def vectors(max_size):
        # fresh vectors, pool repeats, zero vectors and sums of pool vectors
        one = st.one_of(fresh, st.sampled_from(pool), st.just(zero),
                        st.tuples(st.sampled_from(pool), st.sampled_from(pool)).map(
                            lambda ab: [tuple((s + t) % 5 for s, t in zip(x, y))
                                        for x, y in zip(*ab)]))
        return st.lists(one, max_size=max_size)

    sub_rows = data.draw(vectors(4))
    all_rows = data.draw(vectors(6))
    want = _greedy_complement(sub_rows, all_rows, field)
    assert linalg.independent_complement(sub_rows, all_rows, field) == want


H1_LAYER_SHA256 = "5b186446124552b979d6120186c7c12ee4afc320defb350b566e364f9564de8f"


def test_h1_layer_outputs_are_pinned():
    """Z^1, B^1, h^1 and dim M^G over the finite suite; for the tame module
    and its dual at d = 1, 2, 4, the cocycle space, sha_kernel on every
    prefix of the places and every Z^1 vector's class at every place; and
    two localization rank checks.  Recorded while B^1 still came from
    coboundary_of and independent_complement ran one rank per vector."""
    import hashlib
    from wittlift.lifting import _localization_ranks

    def vecs(rows):
        return [tuple(tuple(x) for x in r) for r in rows]

    lines = []
    for gname, group, images, _ in finite_groups():
        for mname, module in module_suite(group, images):
            z1, b1, h1 = cocycle_space(group, module)
            lines.append(repr((gname, mname, vecs(z1), vecs(b1), h1,
                               invariants_dim(group, module))))
    rhobar = residual_tame()
    group = rhobar.group
    for d in (1, 2, 4):
        module = build_module(rhobar, d)
        for mod in (module, dual_module(module)):
            z1, b1, h1 = cocycle_space(group, mod)
            lines.append(repr((d, vecs(z1), vecs(b1), h1)))
            for k in range(len(group.places) + 1):
                lines.append(repr(vecs(sha_kernel(group, mod, group.places[:k]))))
            for z in z1:
                f = Cocycle.from_flat(group, mod, z)
                lines.append(repr([restrict_and_classify(f, p) for p in group.places]))
    rho = deformation_tame(2)
    module = build_module(rho.reduce(1), 1)
    s_r = (group.place("q01"), group.place("q02"))
    for labels in (("q08",), ("q03", "q06")):
        ranks = _localization_ranks(group, module, dual_module(module), s_r,
                                    [group.place(q) for q in labels])
        lines.append(repr(sorted(ranks.items())))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == H1_LAYER_SHA256


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or fn(*a))
    return calls


def test_cocycle_space_eliminates_twice(monkeypatch):
    from wittlift import linalg
    rref = _count_calls(monkeypatch, linalg, "rref")
    for name, group, images, _ in finite_groups():
        for mod_name, module in module_suite(group, images):
            rref.clear()
            cocycle_space(group, module)
            assert len(rref) == 2, (name, mod_name)  # Z^1 and B^1, once each


def test_sha_kernel_eliminates_its_system_once(monkeypatch):
    import wittlift.cohomology as co
    from wittlift import linalg
    rho = residual_tame()
    group = rho.group
    for d in (1, 2):
        module = build_module(rho, d)
        with monkeypatch.context() as mp:
            nullspace = _count_calls(mp, linalg, "nullspace")
            spaces = _count_calls(mp, co, "cocycle_space")
            sha_kernel(group, module, group.places)
        assert (len(nullspace), len(spaces)) == (1, 0), d


def test_delta_is_memoised_per_word():
    for label, group, module in _fox_cases():
        ident = Mat.identity(module.field, module.dim)
        for word in [((g, e),) for g in group.generators for e in (1, -2)] + [()]:
            rows = module.delta(word)
            assert module.delta(word) is rows, label
            assert rows == (module.word_matrix(word) - ident).entry_rows, label


# ---------------------------------------------------------------------------
# modules extended from F_l: every system is solved over F_l


def _extension_cases():
    """(label, group, d -> module over F_{5^d}) for the finite suite extended
    from F_5 and for the tame adjoint module and its dual."""
    cases = []
    for name, group, images, _ in finite_groups():
        for mod_name, module in module_suite(group, images):
            cases.append((f"{name}/{mod_name}", group, lambda d, m=module: module_from_action(
                cr.make_field(5, d), {g: a.embed(d) for g, a in m.action.items()})))
    rho = residual_tame()
    cases.append(("tame", rho.group, lambda d: build_module(rho, d)))
    cases.append(("tame dual", rho.group, lambda d: dual_module(build_module(rho, d))))
    return cases


EXTENSION_CASES = _extension_cases()


@contextlib.contextmanager
def _over_the_extension():
    """A context in which GModule.base is the module itself, so that every
    system is built and eliminated over F_{5^d} on the padded action."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GModule, "base", property(lambda self: self))
        yield


def _outcome(fn, *args):
    """fn(*args), or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # both sides must fail the same way
        return type(exc).__name__, str(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_extended_modules_solve_over_f_ell_as_over_the_extension(data):
    label, group, make = data.draw(st.sampled_from(EXTENSION_CASES))
    d = data.draw(st.sampled_from((2, 4, 16)))
    module = make(d)
    assert module.base.field == F5, label
    field = module.field
    elem = st.lists(st.integers(0, 4), min_size=d, max_size=d).map(tuple)
    places = data.draw(st.lists(st.sampled_from(group.places), max_size=3,
                                unique_by=lambda p: p.label)) if group.places else []
    if data.draw(st.booleans()):  # defects of a cocycle's values: solvable
        values = {g: tuple(data.draw(elem) for _ in range(module.dim))
                  for g in group.generators}
        defects = [tuple(tuple(-c % 5 for c in x) for x in cocycle_eval(module, values, rel))
                   for rel in group.relators]
    else:
        defects = [tuple(data.draw(elem) for _ in range(module.dim))
                   for _ in group.relators]

    def run(mod):
        return (cocycle_space(group, mod), sha_kernel(group, mod, places),
                _outcome(lift_solve, group, mod, defects), invariants_dim(group, mod))

    got = run(module)
    with _over_the_extension():
        assert make(d).base.field == field
        want = run(make(d))
    assert got == want, label


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_trace_solves_over_f_ell_match_the_extension(data):
    from wittlift.lifting import solve_trace_targets
    d = data.draw(st.sampled_from((2, 4, 16)))
    rho = deformation_tame(2).embed(d)
    group, field = rho.group, rho.ring.residue_field
    if data.draw(st.booleans()):
        # a scalar 1 + X leaves the adjoint module alone but puts the trace
        # weights outside F_5: the system then stays over F_{5^d}
        lam = cr.lift_trivial(cr.element(field, (1, 1) + (0,) * (d - 2)), 2)
        rho = Deformation(group, rho.ring, {g: a.scale(lam) for g, a in rho.images.items()})
    dual = data.draw(st.booleans())
    # q03, q04 and q05 are the places whose traces a twist can move
    movable = st.sampled_from([p for p in group.places if p.label in ("q03", "q04", "q05")])
    targets = []
    for place in data.draw(st.lists(movable, min_size=1, max_size=2, unique_by=lambda p: p.label)):
        u = cr.element(field, tuple(data.draw(st.lists(st.integers(0, 4), min_size=d,
                                                        max_size=d))))
        cur = evaluate_word(rho, place.sigma).trace()
        targets.append((place, cur + cr.witt_scale(cr.lift_trivial(u, 2), 5)))
    locked = data.draw(st.lists(st.sampled_from(group.places), max_size=1))

    def run():
        module = build_module(residual_tame(), d)
        return _outcome(solve_trace_targets, rho, dual_module(module) if dual else module,
                        targets, locked)

    got = run()
    with _over_the_extension():
        want = run()
    assert got == want


def test_sha_kernel_of_an_extended_module_eliminates_over_f_ell(monkeypatch):
    rho = residual_tame()
    module = build_module(rho, 4)
    want = [sha_kernel(rho.group, mod, rho.group.places) for mod in (module, dual_module(module))]
    from wittlift import linalg
    rref = linalg.rref

    def f_ell_rref(rows, field):
        if field.d > 1:
            raise AssertionError(f"rref over {field}")
        return rref(rows, field)

    monkeypatch.setattr(linalg, "rref", f_ell_rref)  # rank, nullspace and solve call it
    module = build_module(rho, 4)
    assert [sha_kernel(rho.group, mod, rho.group.places)
            for mod in (module, dual_module(module))] == want
