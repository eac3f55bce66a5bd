"""README.md states every search bound of the library with its value.

A module-level constant in ``src/kclass`` whose name starts with
``MAX_`` or ends in ``_BUDGET``, ``_LIMIT``, ``_BALL`` or ``_STEPS`` is a
bound that can turn an answer into ``unknown`` or exit 3, so the README
must quote it as `` `NAME = <its source expression>` ``.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kclass"
BOUND = re.compile(r"^(MAX_\w+|\w+_(BUDGET|LIMIT|BALL|STEPS))$")


def bounds():
    """(module, name, source expression) of every bound constant."""
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and BOUND.match(target.id):
                        yield path.name, target.id, ast.get_source_segment(source, node.value)


def test_readme_names_every_bound():
    readme = (ROOT / "README.md").read_text()
    found = list(bounds())
    assert {"CF_STEPS", "MAX_VERTICES", "PAIR_BUDGET"} <= {name for _, name, _ in found}
    missing = [f"{module}: `{name} = {expr}`" for module, name, expr in found
               if f"`{name} = {expr}`" not in readme]
    assert missing == []
