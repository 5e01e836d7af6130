"""Tests for the surrogate group model: words, deformations, validation."""

import pytest

import wittlift.coeffring as cr
from wittlift.errors import InvalidQuery, ParamMismatch, SchemaError, UnknownGenerator
from wittlift.galois_model import (
    Deformation,
    ModelGroup,
    check_running_hypotheses,
    check_tame_consistency,
    deformation_from_json_dict,
    deformation_to_json_dict,
    evaluate_word,
    is_unramified_at,
    parse_word,
    validate_deformation,
    word_to_str,
)
from wittlift.matlin import Mat
from wittlift.presets import (
    deformation_tame,
    residual_free,
    residual_tame,
    surrogate_free,
    surrogate_tame,
)


def test_parse_word_formats():
    assert parse_word("") == ()
    assert parse_word("a b^3 c^-1") == (("a", 1), ("b", 3), ("c", -1))
    assert parse_word("a*b^2") == (("a", 1), ("b", 2))
    assert parse_word("  a   b ") == (("a", 1), ("b", 1))
    assert parse_word("a^0 b") == (("b", 1),)
    with pytest.raises(SchemaError):
        parse_word("3a")


def test_word_round_trip():
    for text in ("a b^3 c^-1", "s t", "x^2"):
        w = parse_word(text)
        assert parse_word(word_to_str(w)) == w


def test_evaluate_word_homomorphism():
    rho = residual_free()
    w1 = parse_word("s t")
    w2 = parse_word("u w^-1")
    lhs = evaluate_word(rho, w1 + w2)
    rhs = evaluate_word(rho, w1) * evaluate_word(rho, w2)
    assert lhs == rhs
    assert evaluate_word(rho, ()).is_identity()
    assert evaluate_word(rho, parse_word("s s^-1")).is_identity()


def _fresh_product(rho, word):
    acc = Mat.identity(rho.ring, 2)
    for name, e in word:
        acc = acc * rho.images[name] ** e
    return acc


def test_evaluate_word_memo_matches_fresh_products():
    for rho in (residual_tame(), *(deformation_tame(m) for m in (1, 2, 3))):
        group = rho.group
        words = [*group.relators, *(w for p in group.places for w in (p.sigma, p.tau)),
                 parse_word("s^-3 t u^-2 w^-1 t^-1")]
        assert any(e < 0 for w in words for _, e in w)
        for word in words:
            got = evaluate_word(rho, word)
            assert got == _fresh_product(rho, word)
            assert evaluate_word(rho, word) is got
        assert set(rho._words) == set(words)
        assert set(rho._inverses) == {"s", "t", "u", "w"}


def test_reduce_and_embed_start_with_empty_memo():
    rho = deformation_tame(3)
    for word in rho.group.relators:
        evaluate_word(rho, word)
    assert rho._words and rho._inverses
    for derived in (rho.reduce(2), rho.embed(2)):
        assert derived._words == {} and derived._inverses == {}
    assert rho.reduce(3) == rho


def test_evaluate_word_unknown_generator():
    rho = residual_free()
    with pytest.raises(UnknownGenerator):
        evaluate_word(rho, parse_word("zz"))


def test_validate_trivial_representation():
    group = ModelGroup(("a",), (), (), {"a": 1})
    ring = cr.make_witt_ring(5, 1, 2)
    rho = Deformation(group, ring, {"a": Mat.identity(ring, 2)})
    assert validate_deformation(rho).ok


def test_deformation_refuses_non_unit_epsilon():
    # epsilon(a) = 5 is not a unit at l = 5; normalize_det would otherwise
    # fail inside pow on the first lift
    group = ModelGroup(("a",), (), (), {"a": 5})
    ring = cr.make_witt_ring(5, 1, 2)
    with pytest.raises(SchemaError, match=r"^epsilon of generator 'a' is 5, not a unit "
                                          r"mod l = 5$"):
        Deformation(group, ring, {"a": Mat.identity(ring, 2)})
    # the same group is fine where 5 is a unit
    ring7 = cr.make_witt_ring(7, 1, 2)
    assert Deformation(group, ring7, {"a": Mat.identity(ring7, 2)}).ring is ring7


def test_validate_catches_bad_determinant():
    group = surrogate_free()
    ring = cr.make_witt_ring(5, 1, 1)
    images = dict(residual_free().images)
    images["t"] = Mat.from_ints(ring, [[2, 0], [0, 1]])  # det 2, epsilon 1
    rep = validate_deformation(Deformation(group, ring, images))
    assert not rep.ok
    assert rep.first_failure == ("det", "t")


def test_validate_catches_broken_relator():
    group = surrogate_tame()
    ring = cr.make_witt_ring(5, 1, 1)
    images = dict(residual_tame().images)
    images["t"] = Mat.from_ints(ring, [[2, 0], [0, 3]])  # det 6 = 1 mod 5
    rep = validate_deformation(Deformation(group, ring, images))
    assert not rep.ok
    assert rep.failures[0][0] == "relator"


def test_reduce_preserves_validity():
    rho = deformation_tame(3)
    assert validate_deformation(rho).ok
    assert validate_deformation(rho.reduce(2)).ok
    assert validate_deformation(rho.reduce(1)).ok


def test_running_hypotheses():
    assert check_running_hypotheses(residual_free())
    assert check_running_hypotheses(residual_tame())
    group = surrogate_free()
    ring = cr.make_witt_ring(5, 1, 1)
    trivial = Deformation(group, ring,
                          {g: Mat.identity(ring, 2) for g in group.generators})
    assert not check_running_hypotheses(trivial)
    with pytest.raises(ParamMismatch):
        check_running_hypotheses(deformation_tame(2))


def test_running_hypotheses_refuse_large_ell_before_closing(monkeypatch):
    # |GL_2(F_59)| = 11 908 560 > ENUM_LIMIT: refused before any BFS
    def no_closure(*args):
        raise AssertionError("closure enumerated")
    monkeypatch.setattr("wittlift.galois_model.group_closure", no_closure)
    group = surrogate_free()
    ring = cr.make_witt_ring(59, 1, 1)
    rho = Deformation(group, ring, {g: Mat.identity(ring, 2) for g in group.generators})
    with pytest.raises(InvalidQuery, match="11908560 exceeds ENUM_LIMIT = 10000000"):
        check_running_hypotheses(rho)


def test_epsilon_consistency_of_shipped_groups():
    assert check_tame_consistency(surrogate_free(), 5, 4) == []
    assert check_tame_consistency(surrogate_tame(), 5, 4) == []


def test_unramified_diagnostics():
    rho = deformation_tame(2)
    group = rho.group
    ok, unip = is_unramified_at(rho, group.place("q03"))
    assert ok and unip is None
    ok, unip = is_unramified_at(rho, group.place("q01"))
    assert not ok and unip is True  # tau maps to a unipotent


def test_ramification_report():
    rep = validate_deformation(deformation_tame(2))
    assert rep.ok
    assert set(rep.ramified_places) == {"q01", "q02"}


def test_group_json_round_trip():
    group = surrogate_tame()
    data = group.to_json_dict()
    back = ModelGroup.from_json_dict(data)
    assert back == group
    assert back.digest() == group.digest()


def test_group_json_rejects_wrong_version():
    data = surrogate_free().to_json_dict()
    data["schema_version"] = 99
    with pytest.raises(SchemaError):
        ModelGroup.from_json_dict(data)


def test_deformation_json_round_trip():
    rho = deformation_tame(2)
    data = deformation_to_json_dict(rho)
    back = deformation_from_json_dict(data, rho.group)
    assert back.images == rho.images
    assert back.ring == rho.ring
