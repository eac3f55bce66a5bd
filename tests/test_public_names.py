"""Every public function and method in kclass is named outside its definition,
every imported name is used, every parameter is read, and every name the
benchmark traces resolves.

A public name that nothing in ``src/kclass`` or ``bench/*.py`` mentions
besides its own ``def`` line is code that only its unit tests reach:
delete it, or list it in ALLOWED with the reason it stays.  A module
function is mentioned by its bare name, a property or classmethod by
``.name``, and any other method only by a call ``.name(``, so a method
is not taken as reached through a word or attribute of the same name.
A name a module imports and never reads is deleted from the import, and
so is a parameter its function never reads (dunder methods apart).
"""
import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kclass"

ALLOWED = {
    "stationary_cone": "constructor of the stationary_dg cone, beside the other three",
}


def public_definitions():
    """(path, def node, pattern of a mention) for module functions and
    methods of module classes."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            is_class = isinstance(node, ast.ClassDef)
            for fn in node.body if is_class else [node]:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                decorators = {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
                if not is_class:
                    pattern = rf"\b{fn.name}\b"
                elif decorators & {"property", "classmethod"}:
                    pattern = rf"\.{fn.name}\b"
                else:
                    pattern = rf"\.{fn.name}\("
                yield path, fn, re.compile(pattern)


def test_every_public_function_is_named_elsewhere():
    lines = [(path, i, line)
             for path in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]
             for i, line in enumerate(path.read_text().splitlines(), 1)]
    defined = set()
    unreached = []
    for path, fn, mention in public_definitions():
        defined.add(fn.name)
        if fn.name in ALLOWED:
            continue
        if not any(mention.search(line) for p, i, line in lines
                   if (p, i) != (path, fn.lineno)):
            unreached.append(f"{path.name}: {fn.name}")
    assert unreached == []
    assert set(ALLOWED) <= defined


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, apart from ``__future__``
    features and the names it re-exports through ``__all__``."""
    tree = ast.parse(path.read_text())
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for path in sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")])
              for name in unused_imports(path)]
    assert unused == []


def unread_parameters(path: Path) -> list[str]:
    """Parameters of a function that its body never reads, for every
    function and method apart from dunder methods."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, ast.FunctionDef) or (
                fn.name.startswith("__") and fn.name.endswith("__")):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{fn.name}({p.arg})" for p in params if p.arg not in read]
    return out


def test_every_parameter_is_read():
    unread = [f"{path.name}: {entry}"
              for path in sorted(SRC.glob("*.py"))
              for entry in unread_parameters(path)]
    assert unread == []


def test_every_traced_name_resolves():
    # the benchmark's traced run patches each kclass.<module>.<path> of
    # bench/spans.py::TRACED and stops at a missing one; its own tests
    # need a prepared work directory, so a deleted traced function shows
    # here first
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    missing = []
    for _, module, path, _ in traced:
        owner = importlib.import_module(f"kclass.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert len(traced) >= 30 and missing == []
