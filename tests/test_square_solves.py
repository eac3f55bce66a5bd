"""The six-term search fills every unknown map through one helper:
``kclass/sixterm.py`` names ``solve_hom_equations`` in exactly one call,
inside ``_fill``, so a second hand-built square cannot creep back in."""
import ast
from pathlib import Path

SIXTERM = Path(__file__).resolve().parents[1] / "src" / "kclass" / "sixterm.py"
NAME = "solve_hom_equations"


def mentions(tree):
    """Every read of the name, bare or as an attribute."""
    return [n for n in ast.walk(tree)
            if (isinstance(n, ast.Name) and n.id == NAME)
            or (isinstance(n, ast.Attribute) and n.attr == NAME)]


def test_sixterm_solves_hom_equations_only_in_fill():
    tree = ast.parse(SIXTERM.read_text())
    imports = [a for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               for a in n.names if a.name == NAME]
    assert [a.asname for a in imports] == [None]
    fill = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_fill"]
    named = mentions(tree)
    assert len(fill) == 1 and len(named) == 1
    assert any(isinstance(n, ast.Call) and n.func is named[0] for n in ast.walk(fill[0]))
