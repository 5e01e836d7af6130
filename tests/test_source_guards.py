"""Source guards over src/wittlift: every element is built by
coeffring.element, which reduces its coefficients, or by the trusted
builder coeffring._elem, which does not and so is named only in coeffring
and in matlin's Mat views of canonical values; the names of the old
field/Witt-ring split and of the element bridges into linalg do not come
back, linalg, which runs on canonical values, names no element, and
cohomology and lifting, whose cocycles and defects are canonical values,
build or read elements only at the lift_solve result boundary."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wittlift"
ELEMENT_CLASSES = {"WittElem", "FFElem"}
DELETED = {"FieldParams", "ff_embed", "_is_field", "elem_matmul", "_matmul_entries"}
# names that build or read an element; linalg uses none of them
ELEMENT_NAMES = {"element", "ff_zero", "ff_one", "FFElem", "WittElem", "is_zero", "inverse"}
# the calls that build or read an element, and the functions of cohomology and
# lifting that may make them: lift_solve builds its adjustment's elements and
# apply_adjustment reads them back
BOUNDARY_CALLS = {"element", "_entry_value"}
BOUNDARY = {("cohomology", "lift_solve"), ("cohomology", "apply_adjustment")}
# the element builder that takes coefficients as canonical, and the scopes
# outside coeffring that may name it: matlin's views of canonical values
TRUSTED_BUILDER = "_elem"
TRUSTED_VIEWS = {("Mat", "rows"), ("Mat", "trace"), ("Mat", "det"), ("char_poly",)}


def _identifiers(node):
    """The names a node binds or reads: variables, attributes, imports,
    definitions and parameters."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.arg):
        return [node.arg]
    return []


def _violations(module, source):
    """Problems in one module's source, as 'module:line: what' strings."""
    found = []

    def visit(node, scope):
        for name in _identifiers(node):
            if name in DELETED:
                found.append(f"{module}:{node.lineno}: uses {name}")
            if module == "linalg" and name in ELEMENT_NAMES:
                found.append(f"{module}:{node.lineno}: uses the element name {name}")
            if name == TRUSTED_BUILDER and module != "coeffring" and not (
                    module == "matlin" and scope in TRUSTED_VIEWS):
                found.append(f"{module}:{node.lineno}: uses {name} outside coeffring "
                             f"and matlin's Mat views")
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee in ELEMENT_CLASSES and (module, scope) != ("coeffring", ("element",)):
                found.append(f"{module}:{node.lineno}: calls {callee}( outside "
                             f"coeffring.element")
            if (module in ("cohomology", "lifting") and callee in BOUNDARY_CALLS
                    and (module, scope[0] if scope else None) not in BOUNDARY):
                found.append(f"{module}:{node.lineno}: calls {callee}( outside "
                             f"the lift_solve boundary")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_guard_catches_what_it_forbids():
    assert _violations("matlin", "x = cr.WittElem(ring, (1,))\n")
    assert _violations("coeffring", "def lift(r, c):\n    return FFElem(r, c)\n")
    assert _violations("cli", "from .coeffring import ff_embed\n")
    assert _violations("matlin", "def _is_field(ring):\n    pass\n")
    assert _violations("coeffring", "ok = isinstance(r, FieldParams)\n")
    assert not _violations("coeffring", "def element(r, c):\n    return FFElem(r, c)\n")
    assert _violations("matlin", "def element(r, c):\n    return FFElem(r, c)\n")
    assert _violations("lifting", "from .matlin import elem_matmul\n")
    assert _violations("matlin", "def _matmul_entries(ring, a, b, inner, cols):\n    pass\n")
    assert _violations("linalg", "inv = x.inverse()\n")
    assert _violations("linalg", "if row[c].is_zero():\n    pass\n")
    assert _violations("linalg", "from .coeffring import ff_one, ff_zero\n")
    assert _violations("linalg", "v = cr.element(field, (1,))\n")
    assert not _violations("linalg", "inv = cr._unit_inverse(field, x)\n")
    assert not _violations("cohomology", "inv = x.inverse()\n")
    assert _violations("cohomology", "def cocycle_eval(m, v, w):\n    return _entry_value(f, x)\n")
    assert _violations("cohomology", "def coboundary_of(g, m, x):\n    return cr.element(f, x)\n")
    assert _violations("lifting", "def twist(rho, f):\n    return [element(r, v) for v in f]\n")
    assert _violations("lifting", "def lift_solve(g, m, z):\n    return cr.element(f, z)\n")
    assert _violations("cohomology", "x = _entry_value(f, y)\n")
    assert not _violations("cohomology", "def lift_solve(g, m, z):\n    return cr.element(f, z)\n")
    assert not _violations("cohomology",
                           "def apply_adjustment(l, a, m):\n    return _entry_value(f, a)\n")
    assert not _violations("matlin", "def trace(self):\n    return cr.element(r, v)\n")
    assert not _violations("coeffring", "def witt_zero(ring):\n    return _elem(ring, z)\n")
    assert not _violations("matlin",
                           "class Mat:\n    def rows(self):\n        return cr._elem(r, v)\n")
    assert not _violations("matlin", "def char_poly(g):\n    return [cr._elem(r, v) for v in c]\n")
    assert _violations("matlin",
                       "class Mat:\n    def scale(self, s):\n        return cr._elem(r, v)\n")
    assert _violations("matlin", "def rows(self):\n    return cr._elem(r, v)\n")
    assert _violations("matlin", "from .coeffring import _elem\n")
    assert _violations("linalg", "v = cr._elem(field, x)\n")
    assert _violations("cohomology", "def lift_solve(g, m, z):\n    return cr._elem(f, z)\n")
    assert _violations("lifting", "build = cr._elem\n")
    assert _violations("density", "x = _elem(ring, (1,))\n")


def test_elements_are_built_only_through_element():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _violations(path.stem, path.read_text())
    assert found == []
