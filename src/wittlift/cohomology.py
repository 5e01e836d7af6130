"""Group cohomology in degree one for finitely presented groups.

The coefficient modules are the trace-zero adjoint of a residual
representation (basis e12, h, e21), its scalar extensions, and the twisted
contragredient dual.  Cocycles are stored by their values on generators and
extended to words by f(gh) = f(g) + g.f(h); relator constraints become an
explicit linear system, so Z^1 is a nullspace and B^1 an image.  Every such
system comes from two maps memoised per word on the module, the Fox Jacobian
and the rows of A_w - I, and is eliminated once: over F_l when the module is
an F_l module extended to F_{l^d} (GModule.base), with one right-hand-side
column per coefficient over F_l.  build_module memoises its modules on the
residual deformation, and the extensions of one F_l module share it as
their base, so a tower computes these maps once for all its levels.
Systems, their solutions, cocycle values and relator defects hold canonical
values, as Mat.entries does; elements appear only in lift_solve's
adjustment, built there and read back by apply_adjustment alone.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

from . import coeffring as cr
from . import linalg
from .errors import (
    DetNotEpsilon,
    LiftsDoNotReduce,
    NotACocycle,
    ParamMismatch,
    UnknownGenerator,
)
from .galois_model import Deformation, evaluate_word
from .matlin import Mat, _entry_value, _imul, _mat, _mod_entries


@dataclass(frozen=True)
class GModule:
    """A finite-dimensional module: an action matrix per generator.  When every
    action entry is a constant, this module is M (x) k for the F_l module M = base;
    as H^1(G, M (x) k) = H^1(G, M) (x) k, linear systems run on base, and act_gen's
    inverses and word_matrix are base's, padded.  Otherwise base is the module.
    The extensions of one F_l module made by extended share it as their base,
    and so its memo tables."""

    field: object  # F_{l^d}, the ring W(F_{l^d})/l
    dim: int
    action: dict  # generator name -> Mat over field (dim x dim)
    epsilon: dict  # generator name -> integer (needed for the dual pairing)
    # memo tables, filled on first use: generator name -> inverse action,
    # (generators, word) -> Fox Jacobian rows, and word -> rows of A_w - I
    _inverses: dict = dataclasses.field(default_factory=dict, init=False,
                                        repr=False, compare=False)
    _fox: dict = dataclasses.field(default_factory=dict, init=False,
                                   repr=False, compare=False)
    _delta: dict = dataclasses.field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    @functools.cached_property
    def base(self):
        """The F_l module whose extension this is, read from the action's
        values, or the module itself; set by extended to the F_l module it
        extends, so that every degree's module of one tower shares it."""
        if self.field.d == 1 or any(any(x[1:]) for a in self.action.values() for x in a.entries):
            return self
        f1 = cr.make_witt_ring(self.field.ell, 1, self.field.m)
        return GModule(f1, self.dim, {name: _mat(f1, a.n, tuple([x[:1] for x in a.entries]))
                                      for name, a in self.action.items()}, self.epsilon)

    def extended(self, d):
        """This module over F_{l^d}, d a multiple of its degree: the same action,
        embedded.  The extension of an F_l module has it as its base."""
        out = GModule(cr.make_field(self.field.ell, d), self.dim,
                      {name: a.embed(d) for name, a in self.action.items()}, self.epsilon)
        if self.field.d == 1:
            out.__dict__["base"] = self  # where the cached_property keeps it
        return out

    def act_gen(self, name, e=1):
        if name not in self.action:
            raise UnknownGenerator(name)
        if e >= 0:
            return self.action[name] ** e
        inv = self._inverses.get(name)
        if inv is None:
            inv = self._inverses[name] = (self.action[name].inverse() if self.base is self
                                          else self.base.act_gen(name, -1).embed(self.field.d))
        return inv ** (-e)

    def word_matrix(self, word):
        if self.base is not self:
            return self.base.word_matrix(word).embed(self.field.d)
        acc = Mat.identity(self.field, self.dim)
        for name, e in word:
            acc = acc * self.act_gen(name, e)
        return acc

    def delta(self, word):
        """The rows of A_w - I as canonical values, A_w the word's action; memoised."""
        rows = self._delta.get(word)
        if rows is None:
            ident = Mat.identity(self.field, self.dim)
            rows = self._delta[word] = (self.word_matrix(word) - ident).entry_rows
        return rows


def _padded(module, vecs):
    """Vectors of values over module.base's field as vectors over module's."""
    zeros = (0,) * (module.field.d - module.base.field.d)
    return [[x + zeros for x in v] for v in vecs]


# ---------------------------------------------------------------------------
# module construction


def build_module(rhobar, d):
    """The trace-zero conjugation module of a level-1 deformation, over F_{l^d};
    dual_module gives its Cartier dual.  The conjugations run once per rhobar,
    memoised on it: over F_l when every residual entry is a constant, and
    every degree's module is then extended from that F_l module, its base, so
    that Fox Jacobians, delta rows and inverse actions are computed once for
    all degrees."""
    if rhobar.ring.m != 1:
        raise ParamMismatch("build_module expects a level-1 deformation")
    if d % rhobar.ring.d != 0:
        raise ParamMismatch("coefficient degree must be a multiple of the residual degree")
    images = rhobar.images.values()
    e = 1 if all(not any(x[1:]) for g in images for x in g.entries) else rhobar.ring.d
    core = rhobar._modules.get(e)
    if core is None:
        core = rhobar._modules[e] = _conjugation_module(rhobar, cr.make_field(rhobar.ring.ell, e))
    return core if d == e else core.extended(d)


def _conjugation_module(rhobar, field):
    """The conjugation action on (e12, h, e21) over field, F_l or rhobar's
    field, from rhobar's images and memoised inverses cut to field's degree."""
    basis = [
        Mat.from_ints(field, [[0, 1], [0, 0]]),   # e12
        Mat.from_ints(field, [[1, 0], [0, -1]]),  # h
        Mat.from_ints(field, [[0, 0], [1, 0]]),   # e21
    ]
    action = {}
    for name in rhobar.group.generators:
        g, ginv = (_mat(field, 2, tuple([x[:field.d] for x in a.entries]))
                   for a in (rhobar.image(name), rhobar.inverse_image(name)))
        conj = [(g * x * ginv).entries for x in basis]
        # row i: coordinate i in (e12, h, e21) of each conjugate [[a, b], [c, -a]], so b, a, c
        action[name] = _mat(field, 3, tuple([y[j] for j in (1, 0, 2) for y in conj]))
    return GModule(field, 3, action, dict(rhobar.group.epsilon))


def module_from_action(field, action):
    """Wrap explicit generator action matrices (used for test modules)."""
    dim = next(iter(action.values())).n if action else 0
    return GModule(field, dim, dict(action), {})


def dual_module(module):
    """Contragredient twisted by epsilon, for any module with epsilon data:
    each action matrix a becomes epsilon times its inverse transpose, on module.base."""
    base = module.base
    action = {name: base.act_gen(name, -1).transpose().scale(
                  cr.ff_from_int(base.field, module.epsilon.get(name, 1))).embed(module.field.d)
              for name in module.action}
    return GModule(module.field, module.dim, action, module.epsilon)


# ---------------------------------------------------------------------------
# cocycles


@dataclass(frozen=True)
class Cocycle:
    """A 1-cocycle by its values on module's generators, checked (ParamMismatch)."""

    module: GModule
    values: dict  # generator name -> tuple of d-tuples in [0, q), as in Mat.entries

    def __post_init__(self):
        field, dim = self.module.field, self.module.dim
        for name in self.module.action:
            vec = self.values.get(name, ())
            if len(vec) != dim:
                raise ParamMismatch(f"cocycle has {len(vec)} values at {name}, not {dim}")
            if not all(isinstance(x, tuple) and len(x) == field.d
                       and 0 <= min(x) and max(x) < field.q for x in vec):
                raise ParamMismatch(f"cocycle values at {name} are not {field.d}-tuples "
                                    f"of ints in [0, {field.q})")
        if len(self.values) != len(self.module.action):
            raise ParamMismatch("cocycle has values at names that are not generators")

    @classmethod
    def from_flat(cls, group, module, flat):
        """The cocycle with flat values, as linalg gives them: dim per generator."""
        dim = module.dim
        return cls(module, {name: tuple(flat[i * dim:(i + 1) * dim])
                            for i, name in enumerate(group.generators)})

    def __call__(self, word):
        return cocycle_eval(self.module, self, word)


def cocycle_eval(module, values, word):
    """f(word) as canonical values, f the cocycle with these generator values:
    module.base's Fox Jacobian times the flat values, each a block of
    coefficient columns over base's field as in linalg.solve, in one product.
    values is a Cocycle on module, checked when it was built, or a dict of
    generator values: ParamMismatch unless each has module.dim field.d-tuples."""
    base, field = module.base, module.field
    if isinstance(values, Cocycle):
        if values.module is not module and values.module != module:
            raise ParamMismatch("the cocycle is on another module")
        values = values.values
    else:
        for name in values:
            if list(map(len, values[name])) != [field.d] * module.dim:
                raise ParamMismatch(f"cocycle values at {name} are not "
                                    f"{module.dim} {field.d}-tuples")
    gens, w = tuple(values), base.field.d
    jac = _fox_rows(gens, base, word)
    cols = field.d // w
    flat = [v[i:i + w] for name in gens for v in values[name] for i in range(0, field.d, w)]
    prod = cr._matmul(base.field, [x for r in jac for x in r], flat, len(flat) // cols, cols)
    return [tuple([c for v in prod[i:i + cols] for c in v]) for i in range(0, len(prod), cols)]


def fox_jacobian(group, module, word):
    """The Fox Jacobian of a word: dim rows, one column per (generator, coordinate).

    Column (g, c) is the value at the word of the cocycle sending g to the
    c-th basis vector and every other generator to 0, so the matrix maps the
    flat generator values of any cocycle to its value at the word.  One pass
    keeps the prefix action P: a letter g^e with e > 0 adds P, P A, ...,
    P A^(e-1) to g's block (A the action of g); with e < 0 it subtracts
    P A^-1, ..., P A^e.  Memoised on the module; rows are tuples of canonical values.
    """
    return _fox_rows(group.generators, module, word)


def _fox_rows(generators, module, word):
    """fox_jacobian with its columns in the order of these generators."""
    memo_key = (generators, word)
    rows = module._fox.get(memo_key)
    if rows is not None:
        return rows
    field, dim = module.field, module.dim
    index = {name: gi for gi, name in enumerate(generators)}
    blocks = [Mat.zero(field, dim)] * len(index)
    prefix = Mat.identity(field, dim)
    for name, e in word:
        if name not in index:
            raise UnknownGenerator(name)
        gi = index[name]
        if e > 0:
            a = module.act_gen(name)
            for _ in range(e):
                blocks[gi] = blocks[gi] + prefix
                prefix = prefix * a
        elif e < 0:
            ainv = module.act_gen(name, -1)
            for _ in range(-e):
                prefix = prefix * ainv
                blocks[gi] = blocks[gi] - prefix
    block_rows = [b.entry_rows for b in blocks]
    rows = tuple(tuple(x for br in block_rows for x in br[i]) for i in range(dim))
    module._fox[memo_key] = rows
    return rows


def relator_system(group, module):
    """Rows of the linear map (values on generators) -> (relator evaluations).

    Columns index (generator, coordinate); rows index (relator, coordinate):
    the Fox Jacobians of the relators, stacked, as canonical values.  Without
    relators the map is zero, given as a single zero row.
    """
    if not group.relators:
        return [[(0,) * module.field.d] * (len(group.generators) * module.dim)]
    return [list(row) for rel in group.relators
            for row in fox_jacobian(group, module, rel)]


def coboundary_of(group, module, m):
    """The coboundary g -> g.m - m = (A_g - I) m as a Cocycle, m canonical values."""
    if len(m) != module.dim or any(len(x) != module.field.d for x in m):
        raise ParamMismatch(f"m is not {module.dim} values over {module.field}")
    return Cocycle(module, {name: cr._matmul(module.field, sum(module.delta(((name, 1),)), ()),
                                             m, module.dim, 1) for name in group.generators})


def _coboundary_basis(group, module):
    """Echelonized B^1: the unit vectors' coboundaries are the columns of the
    A_g - I stacked over the generators, and one rref of them over module.base gives it."""
    base = module.base
    stacked = [r for name in group.generators for r in base.delta(((name, 1),))]
    red, pivots = linalg.rref([list(col) for col in zip(*stacked)], base.field)
    return _padded(module, red[:len(pivots)])


def cocycle_space(group, module):
    """(Z^1 basis, B^1 basis, h^1), echelonized canonical values, solved over module.base."""
    base = module.base
    z1 = linalg.nullspace(relator_system(group, base), base.field)
    b1 = _coboundary_basis(group, module)
    return _padded(module, z1), b1, len(z1) - len(b1)


def invariants_dim(group, module):
    """dim of the G-fixed subspace (common eigenspace for eigenvalue 1)."""
    base = module.base
    ident = Mat.identity(base.field, base.dim)
    rows = [list(r) for name in group.generators
            for r in (base.act_gen(name) - ident).entry_rows]
    return len(linalg.nullspace(rows, base.field))


# ---------------------------------------------------------------------------
# local restriction and the locally-trivial kernel


def restrict_and_classify(f, place):
    """Classify f at a place: zero_class, unramified_nonzero, or ramified.

    The local group is generated by the sigma and tau words; its coboundaries
    are pairs ((A_sigma - I)m, (A_tau - I)m), solved over f.module.base, and
    f's values at the two words come from base's Fox Jacobians (cocycle_eval).
    """
    base = f.module.base
    fs, ft = f(place.sigma), f(place.tau)
    # stacked system: does some m give both components as coboundaries?
    tau_rows = [list(r) for r in base.delta(place.tau)]
    stacked = [list(r) for r in base.delta(place.sigma)] + tau_rows
    if linalg.solve(stacked, fs + ft, base.field) is not None:
        return "zero_class"
    if linalg.solve(tau_rows, ft, base.field) is not None:
        return "unramified_nonzero"
    return "ramified"


def sha_kernel(group, module, places):
    """Echelonized locally-trivial classes modulo coboundaries, solved over module.base."""
    base = module.base
    field, dim, q = base.field, base.dim, base.field.q
    ncoc = len(group.generators) * dim  # cocycle coords, then one m_v per place
    places = list(places)
    pad = [(0,) * field.d] * (len(places) * dim)
    rows = [r + pad for r in relator_system(group, base)]
    for pi, place in enumerate(places):
        for word in (place.sigma, place.tau):
            # f(word) - (A - I) m_v = 0, with f(word) the Fox Jacobian times f
            for fox_row, delta_row in zip(fox_jacobian(group, base, word),
                                          base.delta(word)):
                row = list(fox_row) + pad
                row[ncoc + pi * dim:ncoc + (pi + 1) * dim] = [_imul(x, -1, q) for x in delta_row]
                rows.append(row)
    sols = linalg.nullspace(rows, field)
    return _padded(module, linalg.independent_complement(
        _coboundary_basis(group, base), [s[:ncoc] for s in sols], field))


# ---------------------------------------------------------------------------
# relator defects and obstruction solving


def normalize_det(group, name, lift):
    """Scale a level-(m+1) generator lift so its determinant equals epsilon.

    The discrepancy is a 1-unit congruent to 1 mod l^m; its square root is
    1 + l^m w/2, which exists since l is odd.
    """
    ring = lift.ring
    ell, m1 = ring.ell, ring.m
    want = cr.witt_from_int(ring, group.epsilon[name])
    det = lift.det()
    if det == want:
        return lift
    # det = eps mod l^(m1-1), so eps det^-1 - 1 = -(det - eps) eps^-1 mod l^m1
    diff = cr.witt_scale(det - want, -pow(group.epsilon[name], -1, ring.q))
    if diff.valuation() < m1 - 1:
        raise DetNotEpsilon(f"det discrepancy at {name} is not 1 mod l^{m1 - 1}")
    # diff = l^(m1-1) w, so the square root 1 + l^(m1-1) w/2 is 1 + diff/2
    s = cr.witt_one(ring) + cr.witt_scale(diff, pow(2, -1, ell))
    out = lift.scale(s)
    if out.det() != want:
        raise DetNotEpsilon(f"determinant normalization failed at {name}")
    return out


def _defect_coords(e_mat, m):
    """z with e_mat = I + l^m z, adjoint coordinates (b, a, c): the digits at l^m."""
    ell, lm = e_mat.ring.ell, e_mat.ring.ell ** m
    diff = (e_mat - Mat.identity(e_mat.ring, 2)).entries
    if any(v % lm for x in diff for v in x):
        raise LiftsDoNotReduce("relator image is not I mod l^m")
    a, b, c, a2 = [tuple([v // lm % ell for v in x]) for x in diff]
    if any((x + y) % ell for x, y in zip(a, a2)):
        raise DetNotEpsilon("relator defect has nonzero trace; normalize det first")
    return (b, a, c)


def relator_defects(rho_m, lifts):
    """Defect z_r per relator (_defect_coords) for generator lifts at level m+1;
    evaluate_word multiplies the lifts, inverting each at most once."""
    group = rho_m.group
    m = rho_m.ring.m
    ring1 = next(iter(lifts.values())).ring
    if ring1.m != m + 1 or ring1.d != rho_m.ring.d:
        raise ParamMismatch("lifts must live one level above rho_m")
    for name in group.generators:
        if lifts[name].reduce(m) != rho_m.image(name):
            raise LiftsDoNotReduce(f"lift at {name} does not reduce to rho_m")
    lifted = Deformation(group, ring1, lifts)
    return [_defect_coords(evaluate_word(lifted, rel), m) for rel in group.relators]


@dataclass(frozen=True)
class LiftSolveResult:
    ok: bool
    adjustment: dict = None  # generator name -> adjoint coords, elements of F_{l^d}
    obstruction: tuple = None  # unsolvable stacked right-hand side, canonical values


def lift_solve(group, module, defects):
    """Solve the relator linearization for an adjustment cancelling defects.

    The module must be the adjoint module of the residual representation at
    the lifts' coefficient degree.  On success the assignment c satisfies
    (Fox system) . c = -z, so (I + l^m c(g)) lift(g) kills every defect.
    The system is module.base's, one right-hand-side column per coefficient
    over F_l; the adjustment's coordinates are elements, built here once.
    """
    base, field, dim = module.base, module.field, module.dim
    rhs = [_imul(x, -1, field.q) for z in defects for x in z]
    if any(len(x) != field.d for x in rhs):
        raise ParamMismatch(f"defects are not values over {field}")
    sol = linalg.solve(relator_system(group, base), rhs or [(0,) * field.d], base.field)
    if sol is None:
        return LiftSolveResult(False, None, tuple(rhs))
    els = [cr.element(field, x) for x in sol]
    return LiftSolveResult(True, {name: tuple(els[i * dim:(i + 1) * dim])
                                  for i, name in enumerate(group.generators)})


def adjoint_mul(coords, g, k):
    """(I + l^k C) g for C = [[a, b], [c, -a]], adjoint coordinates (b, a, c)
    as canonical values over the residue field of g's ring W/l^m and
    0 <= k < m, lifted trivially.
    It is g + l^k lift(C (g mod l^(m-k))), as l^k x mod l^m depends only on
    x mod l^(m-k): one 2 x 2 product over W/l^(m-k), over the residue field
    when k = m - 1 as in every tower step."""
    ring = g.ring
    if not 0 <= k < ring.m:
        raise ParamMismatch(f"adjoint step l^{k} at precision {ring.m}")
    low = cr.make_witt_ring(ring.ell, ring.d, ring.m - k)
    q, s = ring.q, ring.ell ** k
    b, a, c = coords
    prod = cr._matmul(low, (a, b, c, _imul(a, -1, low.q)), _mod_entries(g.entries, low.q), 2, 2)
    return _mat(ring, 2, tuple([tuple([(x + s * y) % q for x, y in zip(gx, px)])
                                for gx, px in zip(g.entries, prod)]))


def apply_adjustment(lifts, adjustment, m):
    """Replace each level-(m+1) lift g by (I + l^m c(g)) . g, through
    adjoint_mul: one product over the residue field.  The one reader of
    lift_solve's adjustment elements, each checked by _entry_value."""
    return {name: adjoint_mul([_entry_value(g.ring.residue_field, x) for x in adjustment[name]],
                              g, m) for name, g in lifts.items()}


def check_cocycle(group, module, values):
    """The Cocycle with these values; raises NotACocycle if a relator fails."""
    f = Cocycle(module, values)
    for rel in group.relators:
        if any(map(any, f(rel))):
            raise NotACocycle(f"fails relator {rel}")
    return f
