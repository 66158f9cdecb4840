"""resum.ell_sum picks no precision and sizes no moment of its own.

tilde_dirichlet sums all of a sum's moments at one precision and returns
their error bar, so the precision rule and the bar live in one place.  No
linter ships with the test environment, so this walks the syntax tree as
tests/test_imports.py does: ell_sum must call no workprec, no mp.mag and no
max_abs, the three calls a per-moment precision rule is made of.
"""

import ast
import pathlib

RESUM_PY = pathlib.Path(__file__).resolve().parents[1] / "src" / "thetaresum" / "resum.py"
BARRED = ("workprec", "mag", "max_abs")


def barred_calls(source: str, function: str) -> list:
    """(line, name) for every call of workprec, mag or max_abs, bare or as
    an attribute, inside the module-level function of that name."""
    tree = ast.parse(source)
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    out = []
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BARRED:
                out.append((node.lineno, name))
    return sorted(out)


def test_detects_each_barred_call():
    source = ("def ell_sum(table):\n"
              "    hmax = table.max_abs()\n"
              "    top = mp.mag(hmax)\n"
              "    with workprec(top):\n"
              "        pass\n"
              "def other(table):\n"
              "    return table.max_abs()\n")
    assert barred_calls(source, "ell_sum") == [(2, "max_abs"), (3, "mag"), (4, "workprec")]


def test_ell_sum_leaves_the_moment_precision_to_tilde_dirichlet():
    assert barred_calls(RESUM_PY.read_text(), "ell_sum") == []
