"""Automorphism sets are listed by one breadth-first loop: in
``kclass/autgroups.py`` the ``@`` operator appears in exactly one
function, so a second hand-written product loop cannot creep back in."""
import ast
from pathlib import Path

AUTGROUPS = Path(__file__).resolve().parents[1] / "src" / "kclass" / "autgroups.py"


def composes(node):
    """Whether ``node`` contains a matrix product, ``a @ b`` or ``a @= b``."""
    return any(isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)
               for n in ast.walk(node))


def test_autgroups_composes_in_one_function():
    tree = ast.parse(AUTGROUPS.read_text())
    holders = [n for n in tree.body if composes(n)]
    assert len(holders) == 1 and isinstance(holders[0], ast.FunctionDef)
