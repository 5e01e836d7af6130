"""Finitely presented surrogate groups with decorated places.

A ModelGroup carries named generators, relator words, places (each with a
Frobenius word sigma, a tame generator word tau, and a norm q), and the
determinant character epsilon given as an integer unit per generator.  A
Deformation assigns a matrix over W(F_{l^d})/l^m to each generator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import reprlib
from dataclasses import dataclass

from . import coeffring as cr
from .errors import ParamMismatch, SchemaError, UnknownGenerator
from .matlin import Mat, full_residual_image_size, group_closure

SCHEMA_VERSION = 1

_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")


def json_object(value, field):
    """value, when it is a JSON object; else a SchemaError naming the field."""
    if not isinstance(value, dict):
        raise SchemaError(f"{field}: {reprlib.repr(value)} is not a JSON object")
    return value


def json_field(obj, key, where=""):
    """obj[key], or a SchemaError naming the missing field."""
    if key not in obj:
        raise SchemaError(f"{where}missing field {key!r}")
    return obj[key]


def parse_word(text):
    """Parse 'a b^3 c^-1' (or 'a*b^3*c^-1') into ((name, exponent), ...)."""
    if not isinstance(text, str):
        raise SchemaError(f"word {text!r} is not a string")
    text = text.strip()
    if not text:
        return ()
    out = []
    for tok in re.split(r"[\s*]+", text):
        m = _TOKEN_RE.match(tok)
        if not m:
            raise SchemaError(f"bad word token {tok!r}")
        e = int(m.group(2)) if m.group(2) is not None else 1
        if e != 0:
            out.append((m.group(1), e))
    return tuple(out)


def word_to_str(word):
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in word)


@dataclass(frozen=True)
class Place:
    """A decorated place: Frobenius word, tame generator word, norm q, tags."""

    label: str
    sigma: tuple
    tau: tuple
    q: int
    member_of: tuple = ()

    def __post_init__(self):
        if self.q < 2:
            raise SchemaError(f"place {self.label}: q must be >= 2")


@dataclass(frozen=True)
class ModelGroup:
    """Generators, relator words, places, and epsilon units per generator."""

    generators: tuple
    relators: tuple  # tuple of words
    places: tuple  # tuple of Place
    epsilon: dict  # generator name -> integer unit (same integer at all levels)

    def __post_init__(self):
        for name in self.generators:
            if name not in self.epsilon:
                raise SchemaError(f"epsilon missing for generator {name!r}")
        known = set(self.generators)
        for w in self.relators:
            for n, _ in w:
                if n not in known:
                    raise UnknownGenerator(f"relator uses unknown generator {n!r}")
        for p in self.places:
            for w in (p.sigma, p.tau):
                for n, _ in w:
                    if n not in known:
                        raise UnknownGenerator(
                            f"place {p.label} uses unknown generator {n!r}")

    def epsilon_of_word(self, word, modulus):
        acc = 1
        for n, e in word:
            if n not in self.epsilon:
                raise UnknownGenerator(n)
            acc = acc * pow(self.epsilon[n], e, modulus) % modulus
        return acc

    def place(self, label):
        for p in self.places:
            if p.label == label:
                return p
        raise SchemaError(f"no place labeled {label!r}")

    def to_json_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "generators": list(self.generators),
            "relators": [word_to_str(w) for w in self.relators],
            "places": [
                {"label": p.label, "sigma": word_to_str(p.sigma),
                 "tau": word_to_str(p.tau), "q": p.q,
                 "member_of": list(p.member_of)}
                for p in self.places
            ],
            "epsilon": dict(self.epsilon),
        }

    @classmethod
    def from_json_dict(cls, data):
        if json_object(data, "group").get("schema_version") != SCHEMA_VERSION:
            raise SchemaError("unsupported or missing schema_version")
        try:
            places = tuple(
                Place(p["label"], parse_word(p["sigma"]), parse_word(p["tau"]),
                      int(p["q"]), tuple(p.get("member_of", ())))
                for p in data["places"])
            return cls(tuple(data["generators"]),
                       tuple(parse_word(r) for r in data["relators"]),
                       places,
                       {k: int(v) for k, v in json_object(data["epsilon"], "epsilon").items()})
        except KeyError as exc:
            raise SchemaError(f"missing field {exc}") from exc

    def digest(self):
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class Deformation:
    """Level-m, degree-d representation of a ModelGroup by generator images.

    images must not change after construction: evaluate_word memoises word
    products and generator inverses on the deformation, and
    cohomology.build_module its conjugation module.
    """

    group: ModelGroup
    ring: object  # WittRingParams
    images: dict  # generator name -> Mat
    # memo tables, filled on first use: word -> product, generator name ->
    # inverse image, and degree e -> build_module's conjugation module over
    # F_{l^e} (e = 1 when every entry is a constant)
    _words: dict = dataclasses.field(default_factory=dict, init=False,
                                     repr=False, compare=False)
    _inverses: dict = dataclasses.field(default_factory=dict, init=False,
                                        repr=False, compare=False)
    _modules: dict = dataclasses.field(default_factory=dict, init=False,
                                       repr=False, compare=False)

    def __post_init__(self):
        for name, eps in self.group.epsilon.items():
            if eps % self.ring.ell == 0:
                raise SchemaError(f"epsilon of generator {name!r} is {eps}, "
                                  f"not a unit mod l = {self.ring.ell}")

    def image(self, name):
        if name not in self.images:
            raise UnknownGenerator(name)
        return self.images[name]

    def inverse_image(self, name):
        """The inverse of a generator image, computed at most once."""
        inv = self._inverses.get(name)
        if inv is None:
            inv = self._inverses[name] = self.image(name).inverse()
        return inv

    def reduce(self, m2):
        ring2 = cr.make_witt_ring(self.ring.ell, self.ring.d, m2)
        return Deformation(self.group, ring2,
                           {k: v.reduce(m2) for k, v in self.images.items()})

    def embed(self, d_big):
        ring2 = cr.make_witt_ring(self.ring.ell, d_big, self.ring.m)
        return Deformation(self.group, ring2,
                           {k: v.embed(d_big) for k, v in self.images.items()})


def evaluate_word(rho, word):
    """Product of generator images with exponents; empty word is the identity.

    Memoised per word on rho, and each generator is inverted at most once.
    """
    acc = rho._words.get(word)
    if acc is not None:
        return acc
    for name, e in word:
        if e < 0:
            x, e = rho.inverse_image(name), -e
        else:
            x = rho.image(name)
        x = x ** e
        acc = x if acc is None else acc * x
    if acc is None:
        acc = Mat.identity(rho.ring, 2)
    rho._words[word] = acc
    return acc


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple  # (kind, witness) pairs, first failure leads
    ramified_places: tuple

    @property
    def first_failure(self):
        return self.failures[0] if self.failures else None


def validate_deformation(rho):
    """Check relators map to I and det = epsilon; report the ramified places."""
    group = rho.group
    failures = []
    for w in group.relators:
        if not evaluate_word(rho, w).is_identity():
            failures.append(("relator", word_to_str(w)))
    modulus = rho.ring.q
    one = cr.witt_one(rho.ring)
    for name in group.generators:
        want = cr.witt_scale(one, group.epsilon.get(name, 1) % modulus)
        if rho.image(name).det() != want:
            failures.append(("det", name))
    ramified = tuple(p.label for p in group.places if not is_unramified_at(rho, p)[0])
    return ValidationReport(not failures, tuple(failures), ramified)


def is_unramified_at(rho, place):
    """(tau_v maps to I, and if not, whether its image is unipotent)."""
    t = evaluate_word(rho, place.tau)
    if t.is_identity():
        return True, None
    # unipotent <=> (t - I)^2 = 0 for 2x2
    n = t - Mat.identity(rho.ring, t.n)
    return False, (n * n) == Mat.zero(rho.ring, t.n)


def check_running_hypotheses(rho):
    """Surjectivity onto GL_2(F_l) plus det = epsilon, at level 1, degree 1."""
    if rho.ring.m != 1 or rho.ring.d != 1:
        raise ParamMismatch("running hypotheses are checked at m = 1, d = 1")
    ell = rho.ring.ell
    if ell < 5:
        return False
    size = full_residual_image_size(ell)
    if not validate_deformation(rho).ok:
        return False
    gens = [[[a.coeffs[0] for a in row] for row in rho.image(n).rows]
            for n in rho.group.generators]
    return len(group_closure(gens, ell)) == size


def check_tame_consistency(group, ell, max_level=3):
    """epsilon(sigma_v) = q_v and epsilon(tau_v) = 1 mod l^m for m <= max_level,
    and epsilon(relator) = 1.  Returns a list of violation strings."""
    out = []
    for m in range(1, max_level + 1):
        modulus = ell ** m
        for w in group.relators:
            if group.epsilon_of_word(w, modulus) != 1:
                out.append(f"epsilon(relator {word_to_str(w)}) != 1 mod {modulus}")
        for p in group.places:
            if group.epsilon_of_word(p.tau, modulus) != 1 % modulus:
                out.append(f"epsilon(tau_{p.label}) != 1 mod {modulus}")
            if group.epsilon_of_word(p.sigma, modulus) != p.q % modulus:
                out.append(f"epsilon(sigma_{p.label}) != q mod {modulus}")
    return out


def deformation_to_json_dict(rho):
    mats = {}
    for name, mat in rho.images.items():
        mats[name] = [[cr.witt_to_str(a) for a in row] for row in mat.rows]
    return {
        "schema_version": SCHEMA_VERSION,
        "ell": rho.ring.ell,
        "d": rho.ring.d,
        "m": rho.ring.m,
        "group_digest": rho.group.digest(),
        "images": mats,
    }


def deformation_from_json_dict(data, group):
    if json_object(data, "deformation").get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("unsupported or missing schema_version")
    ell, d, m = [int(json_field(data, key, "deformation: ")) for key in ("ell", "d", "m")]
    ring = cr.make_witt_ring(ell, d, m)
    given = json_object(json_field(data, "images", "deformation: "), "images")
    if sorted(given) != sorted(group.generators):
        raise SchemaError(f"images: keys {sorted(given)} are not the generators")
    images = {}
    for name, rows in given.items():
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise SchemaError(f"images: {name!r} is not 2 x 2")
        entries = [[cr.witt_from_str(s) for s in row] for row in rows]
        for x in entries[0] + entries[1]:
            if x.ring != ring:
                raise SchemaError(f"images: {name!r} has an entry over {x.ring}, not {ring}")
        images[name] = Mat.from_rows(ring, entries)
    return Deformation(group, ring, images)
