"""Every import of the library modules is used, and none calls mpmath's zeta.

No linter ships with the test environment, so this walks each module's
syntax tree with the standard library: a name bound by an import must be
read somewhere in the module (or listed in its ``__all__``).
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "thetaresum"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == \
        [(1, "os"), (2, "tau")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


def mpmath_zeta_calls(source: str) -> list:
    """Lines that call mpmath's zeta: mp.zeta(...) or mpmath.zeta(...) under
    any import alias, or a zeta imported from mpmath.  A method of another
    object that happens to be named zeta (RootOfUnity.zeta) is not one."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "mpmath"}
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            for alias in node.names:
                if alias.name in ("mp", "fp", "iv"):
                    modules.add(alias.asname or alias.name)
                elif alias.name == "zeta":
                    names.add(alias.asname or alias.name)
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "zeta"
                and isinstance(func.value, ast.Name) and func.value.id in modules) \
                or (isinstance(func, ast.Name) and func.id in names):
            lines.append(node.lineno)
    return lines


def test_detects_an_mpmath_zeta_call():
    source = ("from mpmath import mp, zeta as z\nimport mpmath as m\n"
              "a = mp.zeta(2, 0.5)\nb = z(3)\nc = m.zeta(4)\nd = q.zeta()\n")
    assert mpmath_zeta_calls(source) == [3, 4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_mpmath_zeta(path):
    """The library's Dirichlet sums are closed forms in cotangents and
    Bernoulli numbers (resum.tilde_dirichlet); mpmath's zeta stays out."""
    assert mpmath_zeta_calls(path.read_text()) == [], path.name


def library_names(sources) -> set:
    """Names of the classes and functions defined at the top level of the
    given module sources."""
    return {node.name for source in sources for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def pass_through_wrappers(source: str, names: set) -> list:
    """(line, name) for every function whose whole body, past a docstring,
    is return G(its own parameters, in order), G another of names: a
    second name for G that its callers can use directly."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in names and call.func.id != node.name):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        passed = [a.id if isinstance(a, ast.Name) else None for a in call.args]
        passed += [k.arg if isinstance(k.value, ast.Name) and k.value.id == k.arg else None
                   for k in call.keywords]
        if passed == params:
            out.append((node.lineno, node.name))
    return out


def test_detects_a_pass_through_wrapper():
    source = ('class Box:\n    pass\n\n\n'
              'def box(x):\n    """A second name."""\n    return Box(x)\n\n\n'
              'def unit(ctx=None):\n    return one(1, ctx)\n\n\n'
              'def one(n, ctx=None):\n    return Box(n, ctx=ctx)\n\n\n'
              'def plain(x):\n    return len(x)\n')
    names = library_names([source])
    assert pass_through_wrappers(source, names) == [(5, "box"), (14, "one")]


def test_no_pass_through_wrappers():
    """Each library object has one name: no function only forwards its own
    arguments to another library class or function."""
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    names = library_names(sources.values())
    found = [(name, *hit) for name, source in sources.items()
             for hit in pass_through_wrappers(source, names)]
    assert found == []
