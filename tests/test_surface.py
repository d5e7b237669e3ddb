"""Every public top-level name in src/coldstart has a caller, and so does
every public method and property of its classes; every parameter default
of a called function is overridden by some caller.

A name counts as used when code outside its own definition refers to it:
another top-level statement of the package, or a script in perfbench/, as
a loaded name, an attribute, an imported name or a string that is a dotted
name holding it (as the benchmark tracer's targets are). A class member
counts as used when any statement there refers to its name. Tests do not
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


def names_without_a_src_caller(outside):
    """module.name of each public src/coldstart name that no other top-level
    statement of the package refers to and that the name set ``outside``
    does not hold, sorted."""
    src = list(statements("src/coldstart/*.py"))
    uses = [referenced_names(node) for _, node in src]
    return sorted(
        f"{path.stem}.{name}"
        for i, (path, node) in enumerate(src)
        for name in defined_names(node)
        if name not in outside and not any(name in names for j, names in enumerate(uses) if j != i)
    )


def members_without_a_caller():
    """module.Class.member of each public method or property of a top-level
    src/coldstart class whose name no statement of the package or of
    perfbench refers to, sorted. Members are matched by name, as calls are,
    so a use of another member of the same name counts too: the check can
    miss a member, never flag one in use."""
    src = list(statements("src/coldstart/*.py"))
    uses = set().union(*(referenced_names(node) for _, node in src + list(statements("perfbench/*.py"))))
    return sorted(
        f"{path.stem}.{node.name}.{sub.name}"
        for path, node in src
        if isinstance(node, ast.ClassDef)
        for sub in node.body
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not sub.name.startswith("_")
        and sub.name not in uses
    )


# the public class members that only the acceptance suite calls: a new one
# fails here, and so does one of these once the pipeline reaches it
ACCEPTANCE_ONLY = {"metrics.ImportanceReport.rank_of"}


def test_every_public_name_has_a_caller():
    bench = set().union(*(referenced_names(node) for _, node in statements("perfbench/*.py")))
    assert names_without_a_src_caller(bench) == []
    assert members_without_a_caller() == sorted(ACCEPTANCE_ONLY)


# the public names that only the benchmark reaches, as tracer targets: a new
# one fails here, and the benchmark change that drops a target drops its name
BENCHMARK_ONLY = {"trees.predict_tree", "trees.predict_gbt", "tuning.cross_validate_pipeline"}


def test_names_only_the_benchmark_reaches_are_pinned():
    assert set(names_without_a_src_caller(set())) == BENCHMARK_ONLY


# parameters whose default is set from outside the code: the console script
# calls main() and leaves its arguments to argparse
SET_OUTSIDE = {("cli", "main", "argv")}


def defaulted_params(func, is_method):
    """The parameters of a def that have a default, as (name, position):
    position counts the arguments a call passes positionally (None for a
    keyword-only parameter), after a method's bound first argument."""
    args = func.args
    positional = args.posonlyargs + args.args
    if is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list):
        positional = positional[1:]
    first_defaulted = len(positional) - len(args.defaults)
    params = [(a.arg, i) for i, a in enumerate(positional) if i >= first_defaulted]
    params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return params


def functions(path):
    """Each def of a module, nested ones too, with whether it is a method."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    methods = {
        id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, id(node) in methods


def calls_by_name(paths):
    """Name -> the calls made to that name, as a plain name or an attribute."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def passes(call, name, position):
    """Whether ``call`` passes the parameter ``name`` at ``position``."""
    if any(k.arg in (name, None) for k in call.keywords):  # by name, or through **kwargs
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == position:
            return True
    return False


def test_every_parameter_default_is_overridden_by_some_caller():
    # calls are matched to a def by the name they call it by, so a call of
    # another def of the same name counts too: the check can miss a default,
    # never flag one that a caller sets
    sources = sorted(ROOT.glob("src/coldstart/*.py"))
    calls = calls_by_name(sources + sorted(ROOT.glob("perfbench/*.py")))
    never_set = []
    for path in sources:
        for func, is_method in functions(path):
            reached = calls.get(func.name, [])
            if not reached:
                continue
            for name, position in defaulted_params(func, is_method):
                if (path.stem, func.name, name) in SET_OUTSIDE:
                    continue
                if not any(passes(call, name, position) for call in reached):
                    never_set.append(f"{path.stem}.{func.name}({name})")
    assert never_set == []
