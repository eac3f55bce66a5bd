"""Every quotient is a cokernel: in ``src/kclass`` only ``groups.py``
names ``Presentation``, and nothing calls a ``.quotient(`` method, so a
second route to a quotient with canonical coordinates cannot creep back
in beside ``cokernel``."""
import ast
from pathlib import Path

KCLASS = Path(__file__).resolve().parents[1] / "src" / "kclass"


def trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(KCLASS.glob("*.py"))}


def names_presentation(tree):
    return any((isinstance(n, ast.Name) and n.id == "Presentation")
               or (isinstance(n, ast.Attribute) and n.attr == "Presentation")
               or (isinstance(n, ast.alias) and n.name == "Presentation")
               for n in ast.walk(tree))


def test_only_groups_names_presentation():
    assert [name for name, tree in trees().items() if names_presentation(tree)] == ["groups.py"]


def test_nothing_calls_quotient():
    calls = [(name, n.lineno) for name, tree in trees().items() for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and n.func.attr == "quotient"]
    assert calls == []
