"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wittlift.coeffring as cr
from wittlift.cli import main
from wittlift.galois_model import SCHEMA_VERSION, deformation_to_json_dict
from wittlift.presets import (
    deformation_tame,
    residual_free,
    residual_tame,
    surrogate_free,
)


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def plan_dict(max_level=3):
    return {
        "schema_version": SCHEMA_VERSION,
        "group": surrogate_free().to_json_dict(),
        "residual": deformation_to_json_dict(residual_free()),
        "max_level": max_level,
        "r_labels": {"2": "p01", "3": "p03", "4": "p07"},
        "locked": [],
        "escape": True,
    }


def test_tower_build_and_verify(tmp_path):
    plan = write_json(tmp_path / "plan.json", plan_dict())
    out = tmp_path / "tower.json"
    assert main(["--out", str(out), "tower", "build", plan]) == 0
    report = read_json(out)
    assert "tower" in report and "certificate" in report
    assert report["input_digests"]
    tower = write_json(tmp_path / "t.json", report)
    assert main(["tower", "verify", tower]) == 0


def test_tower_verify_catches_corruption(tmp_path, capsys):
    plan = write_json(tmp_path / "plan.json", plan_dict())
    out = tmp_path / "tower.json"
    assert main(["--out", str(out), "tower", "build", plan]) == 0
    report = read_json(out)
    report["tower"]["levels"][1]["deformation"]["images"]["s"][0][0] = \
        cr.witt_to_str(cr.witt_from_int(cr.make_witt_ring(5, 2, 2), 4))
    bad = write_json(tmp_path / "bad.json", report)
    outv = tmp_path / "verify.json"
    assert main(["--out", str(outv), "tower", "verify", bad]) == 2
    assert read_json(outv)["failures"]


def test_tower_build_bad_plan_is_input_error(tmp_path):
    bad = write_json(tmp_path / "plan.json", {"schema_version": 99})
    assert main(["tower", "build", bad]) == 4
    missing = write_json(tmp_path / "plan2.json",
                         {"schema_version": SCHEMA_VERSION})
    assert main(["tower", "build", missing]) == 4


def test_tower_build_non_unit_epsilon_is_input_error(tmp_path, capsys):
    plan = plan_dict()
    plan["group"]["epsilon"]["w"] = 10
    path = write_json(tmp_path / "plan.json", plan)
    assert main(["tower", "build", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one JSON object, no traceback
    assert err == {"error": "epsilon of generator 'w' is 10, not a unit mod l = 5",
                   "kind": "input"}


def test_h1_trivial_module(tmp_path, capsys):
    group = write_json(tmp_path / "g.json",
                       {"group": surrogate_free().to_json_dict()})
    assert main(["h1", group, "trivial:1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["h1"] == 4  # free on 4 generators, trivial F_5 coefficients


def test_h1_adjoint_module(tmp_path, capsys):
    group = write_json(tmp_path / "g.json", {
        "group": residual_tame().group.to_json_dict(),
        "residual": deformation_to_json_dict(residual_tame()),
    })
    assert main(["h1", group, "adjoint:1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["dim_z1"], report["dim_b1"], report["h1"]) == (6, 3, 3)


def test_h1_cartier_dual_module(tmp_path, capsys):
    from wittlift.cohomology import build_module, cocycle_space, dual_module
    rho = residual_tame()
    group = write_json(tmp_path / "g.json", {
        "group": rho.group.to_json_dict(),
        "residual": deformation_to_json_dict(rho),
    })
    assert main(["h1", group, "cartier_dual:2"]) == 0
    report = json.loads(capsys.readouterr().out)
    z1, b1, h1 = cocycle_space(rho.group, dual_module(build_module(rho, 2)))
    assert (report["dim_z1"], report["dim_b1"], report["h1"]) == (len(z1), len(b1), h1)


def test_h1_unknown_module_spec(tmp_path):
    group = write_json(tmp_path / "g.json",
                       {"group": surrogate_free().to_json_dict()})
    assert main(["h1", group, "bogus"]) == 4


@pytest.mark.parametrize("dim", [0, -1])
def test_h1_trivial_dimension_below_1_is_input_error(tmp_path, capsys, dim):
    group = write_json(tmp_path / "g.json",
                       {"group": surrogate_free().to_json_dict()})
    assert main(["h1", group, f"trivial:{dim}"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one JSON object, no traceback
    assert err == {"error": f"module: trivial dimension {dim} must be >= 1",
                   "kind": "input"}


def test_nice_scan(tmp_path, capsys):
    group = write_json(tmp_path / "g.json",
                       {"group": residual_tame().group.to_json_dict()})
    rho = write_json(tmp_path / "rho.json",
                     deformation_to_json_dict(deformation_tame(2)))
    assert main(["nice-scan", group, rho]) == 0
    report = json.loads(capsys.readouterr().out)
    flags = {row["label"]: row["rho_m_nice"] for row in report["places"]}
    assert flags["q03"] and flags["q05"]
    assert not flags["q01"] and not flags["q08"]


def test_integral_model_bounded(tmp_path, capsys):
    mats = write_json(tmp_path / "m.json", {
        "schema_version": SCHEMA_VERSION,
        "generators": [[[{"num": 0}, {"num": 5}],
                        [{"num": 1, "den": 5}, {"num": 0}]]],
    })
    assert main(["integral-model", mats]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unbounded"] is False


def test_integral_model_unbounded(tmp_path, capsys):
    mats = write_json(tmp_path / "m.json", {
        "schema_version": SCHEMA_VERSION,
        "generators": [[[{"num": 5}, {"num": 0}],
                        [{"num": 0}, {"num": 1, "den": 5}]]],
    })
    assert main(["integral-model", mats]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unbounded"] is True
    assert report["reason"] == "generator 0: trace 26/5 is not 5-integral"


def test_tame_check(capsys):
    ring = cr.make_witt_ring(5, 1, 1)
    x = ";".join(cr.witt_to_str(cr.witt_from_int(ring, v))
                 for v in (2, 0, 0, 1))
    y = ";".join(cr.witt_to_str(cr.witt_from_int(ring, v))
                 for v in (1, 1, 0, 1))
    assert main(["tame-check", x, y, "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["branch"] == "eigenvalue_ratio"


def test_field_of_def(tmp_path, capsys):
    ring2 = cr.make_witt_ring(5, 2, 2)
    traces = write_json(tmp_path / "tr.json", {
        "schema_version": SCHEMA_VERSION,
        "traces": [cr.witt_to_str(cr.witt_from_int(ring2, 7)),
                   cr.witt_to_str(cr.witt_gen(ring2))],
    })
    assert main(["field-of-def", traces, "--dmax", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["field_degree"] == 2


def test_density_exact(tmp_path, capsys):
    query = write_json(tmp_path / "q.json", {
        "schema_version": SCHEMA_VERSION,
        "ell": 5, "n": 2, "m": 1, "alpha": 0,
        "monomials": [
            {"coeff": 1, "exps": [1, 0, 0, 1]},
            {"coeff": -1, "exps": [0, 1, 1, 0]},
            {"coeff": -1, "exps": [0, 0, 0, 0]},
        ],
    })
    assert main(["density", query]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fraction"] == "1/4"
    assert report["exact"] is True


def test_density_exact_flag_refuses_to_sample(tmp_path, capsys):
    det_minus_one = [
        {"coeff": 1, "exps": [1, 0, 0, 1]},
        {"coeff": -1, "exps": [0, 1, 1, 0]},
        {"coeff": -1, "exps": [0, 0, 0, 0]},
    ]
    big = write_json(tmp_path / "big.json", {
        "schema_version": SCHEMA_VERSION,
        "ell": 5, "n": 2, "m": 3, "alpha": 0, "monomials": det_minus_one,
    })
    assert main(["--exact", "density", big]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "input"
    # |GL_2(Z/125)| and the limit both appear in the reason
    assert str(480 * 5 ** 8) in err["error"]
    assert "ENUM_LIMIT = 10000000" in err["error"]
    # without the flag the same query is sampled; small ones stay exact
    assert main(["--sample", "1000", "density", big]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] is False
    small = write_json(tmp_path / "small.json", {
        "schema_version": SCHEMA_VERSION,
        "ell": 5, "n": 2, "m": 2, "alpha": 1, "monomials": det_minus_one,
    })
    assert main(["--exact", "density", small]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact"] is True and report["fraction"] == "1/20"


def test_density_bad_alpha_is_input_error(tmp_path, capsys):
    for alpha in (9, -1):
        query = write_json(tmp_path / "q.json", {
            "schema_version": SCHEMA_VERSION,
            "ell": 5, "n": 2, "m": 1, "alpha": alpha, "monomials": [],
        })
        assert main(["density", query]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)  # one JSON object, no traceback
        assert err["kind"] == "input"
        assert f"alpha = {alpha} outside 0..1" in err["error"]


def test_non_object_json_is_input_error(tmp_path, capsys):
    arr = write_json(tmp_path / "arr.json", [1, 2])
    for argv in (["density", arr], ["tower", "build", arr]):
        assert main(argv) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input"
        assert "not a JSON object" in err["error"]


def test_missing_file_is_input_error(tmp_path):
    assert main(["h1", str(tmp_path / "nope.json"), "trivial:1"]) == 4


def _density_query(**fields):
    query = {"schema_version": SCHEMA_VERSION, "ell": 5, "n": 2, "m": 1,
             "alpha": 0, "monomials": [{"coeff": 1, "exps": [1, 0, 0, 1]}]}
    query.update(fields)
    return query


@pytest.mark.parametrize("fields, reason", [
    ({"ell": 4}, "4 is not prime"),
    ({"monomials": [{"coeff": 1, "exps": [1, 0]}]}, "monomial arity 2 != n^2 = 4"),
    ({"ell": [5]}, "int()"),
    ({"monomials": [5]}, "not subscriptable"),
    ({"n": 4, "monomials": []}, "support n <= 3, got n = 4"),
], ids=["ell_not_prime", "monomial_arity", "ell_is_list", "monomial_is_int",
        "full_group_n_4"])
def test_density_input_error_exits_4(tmp_path, capsys, fields, reason):
    path = write_json(tmp_path / "q.json", _density_query(**fields))
    assert main(["density", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one JSON object, no traceback
    assert err["kind"] == "input"
    assert reason in err["error"]


_BOUNDED = [[[{"num": 0}, {"num": 5}], [{"num": 1, "den": 5}, {"num": 0}]]]


@pytest.mark.parametrize("fields, reason", [
    ({"generators": [[[{"num": 1}, {"num": 0}], [{"num": 0}]]]},
     "generator 0 is not 2 x 2 (n is the row count of generator 0)"),
    ({"generators": []}, "needs at least one generator"),
    ({"generators": [[[{"num": 1, "den": 3}, {"num": 0}], [{"num": 0}, {"num": 1}]]]},
     "denominator 3 is not a power of l = 5"),
    ({"precision": 0}, "precision level m = 0 must be >= 1"),
    ({"generators": [[[{"num": 1}, {"num": 0}], [{"num": 0}, {"num": 0}]]]},
     "generator 0 is singular: det = 0"),
    ({"generators": _BOUNDED + [[[{"num": 1}, {"num": 1, "den": 5}],
                                 [{"num": 5}, {"num": 1}]]]},
     "generator 1 is singular: det = 0"),
], ids=["ragged", "no_generators", "den_not_power_of_ell", "precision_0", "singular",
        "singular_rational"])
def test_integral_model_input_error_exits_4(tmp_path, capsys, fields, reason):
    query = {"schema_version": SCHEMA_VERSION, "generators": _BOUNDED}
    query.update(fields)
    path = write_json(tmp_path / "m.json", query)
    assert main(["integral-model", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one JSON object, no traceback
    assert err["kind"] == "input"
    assert reason in err["error"]


# The verdict is exact at any precision; "precision" sets only the truncation
# of the printed conjugator.
@pytest.mark.parametrize("precision, generators, conjugator", [
    (4, _BOUNDED, [["K([1]/5^0)", "K(0)"], ["K(0)", "K([1]/5^1)"]]),
    (12, [[[{"num": 0}, {"num": 5 ** 5}], [{"num": 1, "den": 5 ** 5}, {"num": 0}]]],
     [["K([1]/5^0)", "K(0)"], ["K(0)", "K([1]/5^5)"]]),
    (12, [[[{"num": 1}, {"num": 1, "den": 5 ** 5}], [{"num": 0}, {"num": 1}]]],
     [["K([1]/5^5)", "K(0)"], ["K([1]/5^0)", "K([1]/5^0)"]]),
], ids=["precision_4", "precision_12_order_2", "precision_12_unipotent"])
def test_integral_model_bounded_at_low_precision(tmp_path, capsys, precision,
                                                 generators, conjugator):
    path = write_json(tmp_path / "m.json", {"schema_version": SCHEMA_VERSION,
                                            "precision": precision,
                                            "generators": generators})
    assert main(["integral-model", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unbounded"] is False
    assert report["conjugator"] == conjugator


def test_tame_check_semisimple_over_a_large_field(capsys):
    # y = diag(xbar, 1) over F_{5^11}: xbar has order at least 12 207 031, so
    # the Jordan decomposition must not step through y's order
    ring = cr.make_witt_ring(5, 11, 1)
    zero, one, gen = (cr.witt_to_str(x) for x in
                      (cr.witt_zero(ring), cr.witt_one(ring), cr.witt_gen(ring)))
    start = time.monotonic()
    assert main(["tame-check", f"{one};{zero};{zero};{one}", f"{gen};{zero};{zero};{one}",
                 str(5 ** 11)]) == 0
    assert time.monotonic() - start < 2.0
    assert json.loads(capsys.readouterr().out)["branch"] == "semisimple_finite_order"


@pytest.mark.parametrize("x, y, reason", [
    ("garbage", "5^1:1:[1]", "bad witt element literal: 'garbage'"),
    ("5^1:1:[1];5^1:1:[0];5^1:1:[0];5^1:1:[1]",
     "5^1:2:[1,0];5^1:2:[0,0];5^1:2:[0,0];5^1:2:[1,0]",
     "x is over GF(5^1) but y is over GF(5^2)"),
    ("5^1:0:[]", "5^1:0:[]", "extension degree d = 0 must be >= 1"),
    ("5^1:1:[1];5^1:1:[2];5^1:1:[2];5^1:1:[4]", "5^1:1:[1];5^1:1:[0];5^1:1:[0];5^1:1:[1]",
     "x is not invertible: det x = ff([0])"),
], ids=["malformed_literal", "mismatched_rings", "degree_0", "singular_x"])
def test_tame_check_input_error_exits_4(capsys, x, y, reason):
    assert main(["tame-check", x, y, "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one JSON object, no traceback
    assert err["kind"] == "input"
    assert reason in err["error"]


def test_tame_check_refuses_n_4(capsys):
    # det costs n! products, so n > 3 is refused up front
    ring = cr.make_witt_ring(5, 1, 1)

    def mat(rows):
        return ";".join(cr.witt_to_str(cr.witt_from_int(ring, v)) for r in rows for v in r)
    x = [[2 if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)]
    y = [[int(i == j or (i, j) == (0, 1)) for j in range(4)] for i in range(4)]
    start = time.monotonic()
    assert main(["tame-check", mat(x), mat(y), "2"]) == 4
    assert time.monotonic() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one JSON object, no traceback
    assert err["kind"] == "input"
    assert "n = 4" in err["error"]


# ---------------------------------------------------------------------------
# plan, deformation, matrix and tube input errors name their field


def _lit(ring, v):
    return cr.witt_to_str(cr.witt_from_int(ring, v))


def _missing_image(plan):
    del plan["residual"]["images"]["s"]


def _image_1x1(plan):
    images = plan["residual"]["images"]
    images["s"] = [[images["s"][0][0]]]


def _image_3x3(plan):
    one = _lit(cr.make_witt_ring(5, 1, 1), 1)
    plan["residual"]["images"]["s"] = [[one] * 3] * 3


def _literal_over_another_ring(plan):
    plan["residual"]["images"]["s"][0][1] = _lit(cr.make_witt_ring(5, 1, 2), 0)


def _r_labels_missing_level(plan):
    plan["max_level"] = 4
    del plan["r_labels"]["3"]


def _images_as_names(plan):
    plan["residual"]["images"] = sorted(plan["residual"]["images"])


@pytest.mark.parametrize("mutate, field, reason", [
    (_missing_image, "images", "are not the generators"),
    (_image_1x1, "images", "'s' is not 2 x 2"),
    (_image_3x3, "images", "'s' is not 2 x 2"),
    (_literal_over_another_ring, "images",
     "entry over W(GF(5^1))/5^2, not GF(5^1)"),
    (lambda plan: plan.update(max_level=0), "max_level", "max_level = 0 must be >= 1"),
    (_r_labels_missing_level, "r_labels", "no place for levels [3]"),
    (lambda plan: plan.update(escape="no"), "escape", "is not a JSON boolean"),
    (lambda plan: plan.update(locked="p01"), "locked", "is not a list of place labels"),
    (lambda plan: plan.update(locked=[1]), "locked", "is not a list of place labels"),
    (lambda plan: plan.update(group=[plan["group"]]), "group", "is not a JSON object"),
    (lambda plan: plan["group"].update(epsilon=[2, 1, 1, 2]), "epsilon",
     "is not a JSON object"),
    (lambda plan: plan.update(residual=[plan["residual"]]), "residual",
     "is not a JSON object"),
    (_images_as_names, "images", "['s', 't', 'u', 'w'] is not a JSON object"),
    (lambda plan: plan.update(r_labels=["p01", "p03"]), "r_labels", "is not a JSON object"),
    (lambda plan: plan["r_labels"].update(two="p01"), "r_labels",
     "are not all level numbers"),
    (lambda plan: plan.update(max_level=2.5), "max_level", "2.5 is not a JSON integer"),
    (lambda plan: plan.update(max_level=True), "max_level", "True is not a JSON integer"),
    (lambda plan: plan.update(max_level="3"), "max_level", "'3' is not a JSON integer"),
], ids=["missing_image", "image_1x1", "image_3x3", "literal_ring", "max_level_0",
        "r_labels_gap", "escape_string", "locked_string", "locked_int", "group_list",
        "epsilon_list", "residual_list", "images_list", "r_labels_list", "r_labels_key",
        "max_level_float", "max_level_bool", "max_level_string"])
def test_tower_build_plan_error_names_the_field(tmp_path, capsys, mutate, field,
                                                reason):
    plan = plan_dict()
    mutate(plan)
    path = write_json(tmp_path / "plan.json", plan)
    assert main(["tower", "build", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one JSON object, no traceback
    assert err["kind"] == "input"
    assert err["error"].startswith(field) and reason in err["error"]


def test_tame_check_refuses_entries_over_two_rings(capsys):
    x = "5^1:1:[1];5^2:1:[0];5^1:1:[0];5^1:1:[1]"
    assert main(["tame-check", x, "5^1:1:[1];5^1:1:[1];5^1:1:[0];5^1:1:[1]", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one JSON object, no traceback
    assert err["kind"] == "input"
    assert "over both GF(5^1) and W(GF(5^1))/5^2" in err["error"]


@pytest.mark.parametrize("fields, reason", [
    ({"n": 0, "monomials": []}, "matrix size n = 0 must be >= 1"),
    ({"m": 2, "alpha": 1, "monomials": [{"coeff": 1, "exps": [-2, 0, 0, 0]}]},
     "monomial exponents [-2, 0, 0, 0] must be >= 0"),
], ids=["n_0", "negative_exponent"])
def test_density_refuses_empty_matrices_and_negative_exponents(tmp_path, capsys,
                                                               fields, reason):
    path = write_json(tmp_path / "q.json", _density_query(**fields))
    assert main(["density", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one JSON object, no traceback
    assert err == {"error": reason, "kind": "input"}


@pytest.fixture(scope="module")
def built_tower(tmp_path_factory):
    """The report of `tower build` on plan_dict(), as a dict."""
    tmp = tmp_path_factory.mktemp("tower")
    plan = write_json(tmp / "plan.json", plan_dict())
    out = tmp / "tower.json"
    assert main(["--out", str(out), "tower", "build", plan]) == 0
    return read_json(out)


def _swap_r_labels(tower):
    labels = tower["r_labels"]
    labels["2"], labels["3"] = labels["3"], labels["2"]


@pytest.mark.parametrize("mutate, failure", [
    (lambda tower: tower.update(levels=[]), "level 1: 0 levels, max_level 3"),
    (lambda tower: tower["levels"].pop(), "level 3: 2 levels, max_level 3"),
    (_swap_r_labels, "level 2: r_label 'p01' is not r_labels[2]"),
], ids=["no_levels", "top_level_dropped", "r_labels_swapped"])
def test_tower_verify_checks_shape_against_header(tmp_path, capsys, built_tower,
                                                  mutate, failure):
    report = json.loads(json.dumps(built_tower))
    mutate(report["tower"])
    path = write_json(tmp_path / "t.json", report)
    out = tmp_path / "verify.json"
    assert main(["--out", str(out), "tower", "verify", path]) == 2
    verdict = read_json(out)
    assert verdict["ok"] is False
    assert failure in verdict["failures"]


def _set(path, value):
    def mutate(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate, field", [
    (_set(("tower", "r_labels"), ["p01", "p03"]), "r_labels"),
    (lambda report: report.update(tower=[report["tower"]]), "tower"),
    (lambda report: report.update(certificate=[report["certificate"]]), "certificate"),
    (lambda report: report["certificate"].update(
        entries={str(e["d"]): e for e in report["certificate"]["entries"]}), "entries"),
    (_set(("certificate", "entries", 2), 7), "entries[2]"),
    (lambda report: report["tower"].update(
        levels={str(i): lvl for i, lvl in enumerate(report["tower"]["levels"])}), "levels"),
    (_set(("tower", "levels"), [1, 2, 3]), "levels[0]"),
    (_set(("tower", "max_level"), "3"), "max_level"),
], ids=["r_labels_list", "tower_list", "certificate_list", "entries_object",
        "entry_not_object", "levels_object", "levels_not_objects", "max_level_string"])
def test_tower_verify_malformed_report_names_the_field(tmp_path, capsys, built_tower,
                                                       mutate, field):
    report = json.loads(json.dumps(built_tower))
    mutate(report)
    path = write_json(tmp_path / "t.json", report)
    assert main(["tower", "verify", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one JSON object, no traceback
    assert err["kind"] == "input"
    assert err["error"].startswith(f"{field}: ")


def _delete(*path):
    def mutate(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return mutate


@pytest.mark.parametrize("path", [
    ("tower", "levels"), ("tower", "max_level"), ("tower", "r_labels"), ("tower", "group"),
    ("tower", "levels", 1, "deformation"), ("tower", "levels", 1, "r_label"),
    ("tower", "levels", 2, "target_trace"),
], ids=lambda path: path[-1])
def test_tower_verify_names_a_missing_field(tmp_path, capsys, built_tower, path):
    report = json.loads(json.dumps(built_tower))
    _delete(*path)(report)
    assert main(["tower", "verify", write_json(tmp_path / "t.json", report)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "input"
    assert err["error"].endswith(f"missing field {path[-1]!r}")


def _input_error(capsys):
    """The error message of a run that exited 4: stdout is empty and stderr
    holds one JSON object, no traceback."""
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "input"
    return err["error"]


@pytest.mark.parametrize("field", ["group", "residual", "max_level", "r_labels"])
def test_tower_build_names_a_missing_field(tmp_path, capsys, field):
    plan = plan_dict()
    del plan[field]
    assert main(["tower", "build", write_json(tmp_path / "plan.json", plan)]) == 4
    assert _input_error(capsys).endswith(f"missing field {field!r}")


@pytest.mark.parametrize("field", ["images", "ell", "d", "m"])
def test_tower_verify_names_a_missing_deformation_field(tmp_path, capsys, built_tower,
                                                        field):
    report = json.loads(json.dumps(built_tower))
    _delete("tower", "levels", 2, "deformation", field)(report)
    assert main(["tower", "verify", write_json(tmp_path / "t.json", report)]) == 4
    assert _input_error(capsys).endswith(f"missing field {field!r}")


@pytest.mark.parametrize("mutate", [
    _delete("certificate", "d_top"), _set(("certificate", "d_top"), "4"),
    _set(("certificate", "d_top"), 0), _set(("certificate", "d_top"), True),
], ids=["deleted", "string", "zero", "true"])
def test_tower_verify_refuses_a_certificate_without_d_top(tmp_path, capsys, built_tower,
                                                          mutate):
    """A certificate must say up to which degree it rules fields out: d_top
    is a JSON integer >= 1, else the report is refused, not accepted."""
    report = json.loads(json.dumps(built_tower))
    mutate(report)
    assert main(["tower", "verify", write_json(tmp_path / "t.json", report)]) == 4
    assert _input_error(capsys).startswith("d_top: ")


def test_tower_verify_refuses_tower_schema_1(tmp_path, capsys, built_tower):
    report = json.loads(json.dumps(built_tower))
    assert report["tower"]["schema_version"] == 2
    report["tower"]["schema_version"] = 1
    assert main(["tower", "verify", write_json(tmp_path / "t.json", report)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "input"
    assert "schema_version 1" in err["error"] and "X -> X^(D/d)" in err["error"]


def _json_paths(value, path=()):
    """The path of every field and list item below value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


_JSON_VALUES = (None, True, 0, 3, -1, 2.5, "", "p01", [], [1], ["x"], {}, {"d": 1})


class _Report:
    """A `tower build` report and the paths of its tower and certificate
    fields, with a short repr for hypothesis' failure reports."""

    def __init__(self, data):
        self.data = data
        self.paths = tuple(p for p in _json_paths(data) if p[0] in ("tower", "certificate"))

    def __repr__(self):
        return f"<report with {len(self.paths)} fields>"


@pytest.fixture(scope="module")
def free_report_4(tmp_path_factory):
    """The report of `tower build` on plan_dict(4)."""
    tmp = tmp_path_factory.mktemp("tower4")
    out = tmp / "tower.json"
    assert main(["--out", str(out), "tower", "build",
                 write_json(tmp / "plan.json", plan_dict(4))]) == 0
    return _Report(read_json(out))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_tower_verify_never_ends_in_a_traceback(tmp_path, free_report_4, data):
    # one field of the free level-4 report replaced by a JSON value of
    # another type
    path = data.draw(st.sampled_from(free_report_4.paths))
    node = free_report_4.data
    for key in path:
        node = node[key]
    value = data.draw(st.sampled_from(
        [v for v in _JSON_VALUES if type(v) is not type(node)]))
    mutated = json.loads(json.dumps(free_report_4.data))
    _set(path, value)(mutated)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["tower", "verify", write_json(tmp_path / "t.json", mutated)])
    assert code in (0, 2, 4)
    if stderr.getvalue():
        assert isinstance(json.loads(stderr.getvalue()), dict)
