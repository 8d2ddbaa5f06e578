"""Code that only tests call belongs in tests/: every top-level function,
class and constant of the package is used somewhere else in the package,
or is an entry point named below with the reason it stays; and every method
and dataclass field of a package class is read as an attribute somewhere in
the package.  The package's settable values are counted and pinned."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mvsao"

ENTRY_POINTS = {
    "fk_kernel_regular": "the documented kernel estimator of acceptance criterion 2",
    "save_noise": "writes the noise archives that the oracle's noise_archive option reads",
    "load_spectra": "reads the files that the oracle's spectra_out option writes",
    "__version__": "the package version",
    "random_matching": "perfbench traces it (combinatorics.matching_s) and its tests require "
                       "every trace target to resolve; the batched white draw does not call it",
}


def _definitions(tree):
    """(name, node) of each top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(tree, skip):
    """Names loaded, attributes read and names imported in tree, outside
    the subtree skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced_names():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    out = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if not any(name in _references(other, node) for other in trees.values()):
                out.append(f"{module}:{name}")
    return out


def test_package_names_are_used_in_the_package():
    flagged = unreferenced_names()
    extra = [entry for entry in flagged if entry.split(":")[1] not in ENTRY_POINTS]
    assert not extra, f"only tests use {extra}: move them to tests/ or delete them"
    # an entry point that the package itself uses now needs no entry here
    stale = set(ENTRY_POINTS) - {entry.split(":")[1] for entry in flagged}
    assert not stale, f"listed as entry points but used in the package: {sorted(stale)}"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _members(tree):
    """(class, name) of each method (dunder methods aside) and each
    dataclass field of the top-level classes in tree."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield cls.name, node.name
            elif (_is_dataclass(cls) and isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                yield cls.name, node.target.id


def _module_names(tree):
    """Names that the import statements in tree bind to modules."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names}


def _member_reads(tree):
    """Attributes read in tree, except those read off an imported module
    (np.abs is not a read of a method abs)."""
    modules = _module_names(tree)
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)}


def unread_members():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_member_reads, trees.values()))
    return [f"{module}:{cls}.{name}" for module, tree in trees.items()
            for cls, name in _members(tree) if name not in read]


def test_package_members_are_read_in_the_package():
    # a field that is only set, or a method that only tests call, is dead
    # weight in the package: delete it, or move what reads it into tests/
    flagged = unread_members()
    assert not flagged, f"the package never reads {flagged}"


# Parameters with a default plus dataclass fields with a default in the
# package.  Each is a value a caller may set, and each doubles the settings
# that tests and benchmarks may need to cover: a change that adds one raises
# this number where a reviewer sees it, and a change that removes one lowers
# it, so the slack cannot be spent unseen later.
SETTABLE_VALUES = 38


def settable_values():
    """module:owner.name of every parameter and dataclass field with a default."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
                owner = getattr(node, "name", "<lambda>")
                out += [f"{path.name}:{owner}.{arg.arg}" for arg in named]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out += [f"{path.name}:{node.name}.{item.target.id}" for item in node.body
                        if isinstance(item, ast.AnnAssign) and item.value is not None]
    return out


def test_settable_values_are_pinned():
    found = settable_values()
    assert len(found) == SETTABLE_VALUES, (
        f"the package has {len(found)} settable values, pinned at {SETTABLE_VALUES}: "
        f"update the pin, and say why in the change ({sorted(found)})")
