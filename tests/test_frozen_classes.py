"""No class in src/kclass writes its own __setattr__, __eq__ or __hash__.

An immutable value type is a ``@dataclass(frozen=True)``, which declares
its fields once and derives assignment refusal, equality and hashing
from them; a hand-written copy of those three can miss a field without
any error.  A class that needs one all the same is listed in ALLOWED
(by class, or by ``Class.method``) with the reason.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kclass"
GUARDED = {"__setattr__", "__eq__", "__hash__"}

ALLOWED = {
    "QuadraticIrrational": "normalizes every field in its constructor and "
                           "compares by value across radicands",
    "SixTermInvariant.__hash__": "its fields are dicts, which do not hash",
}


def hand_written():
    """Class.method for each guarded dunder a class in src/kclass defines
    or assigns."""
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                yield from (f"{cls.name}.{n}" for n in names if n in GUARDED)


def test_no_class_writes_its_own_setattr_eq_or_hash():
    found = set(hand_written())
    assert sorted(m for m in found
                  if m not in ALLOWED and m.split(".")[0] not in ALLOWED) == []
    # every entry still names something
    assert all(any(m == key or m.startswith(key + ".") for m in found) for key in ALLOWED)
