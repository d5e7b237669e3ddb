"""Every public top-level name in src/coldstart has a caller.

A name counts as used when code outside its own definition refers to it:
another top-level statement of the package, or a script in perfbench/, as
a loaded name, an attribute, an imported name or a string that is a dotted
name holding it (as the benchmark tracer's targets are). Tests do not
count: a name only the tests reach is not part of the pipeline.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def defined_names(node):
    """The public names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return {name for name in names if not name.startswith("_")}


def referenced_names(node):
    """The names a statement refers to: loaded names, attributes, imported
    names, and each part of a string constant that is a dotted name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def statements(pattern):
    for path in sorted(ROOT.glob(pattern)):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            yield path, node


def test_every_public_name_has_a_caller():
    src = list(statements("src/coldstart/*.py"))
    bench = set().union(*(referenced_names(node) for _, node in statements("perfbench/*.py")))
    uses = [referenced_names(node) for _, node in src]
    unused = []
    for i, (path, node) in enumerate(src):
        for name in sorted(defined_names(node)):
            if name not in bench and not any(name in names for j, names in enumerate(uses) if j != i):
                unused.append(f"{path.stem}.{name}")
    assert unused == []
