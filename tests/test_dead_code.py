"""Every top-level function and class of the package has a caller or a test.

A name counts as used when it is read somewhere in ``src/``, ``tests/`` or
``tools/``: as a plain name or as an attribute.  Its own ``def``, import
lines and ``__all__`` entries are not reads, so they do not count.  Every
import in the package is read in the scope that makes it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_unreferenced_top_level_definitions():
    defined = {}
    used = set()
    for path, tree in _trees("src", "tests", "tools"):
        if path.is_relative_to(ROOT / "src" / "ssetkit"):
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[node.name] = path.relative_to(ROOT)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(f"{path}: {name}" for name, path in defined.items() if name not in used)
    assert unused == []


def _classes_and_reads():
    """The classes defined in ``src/`` by name, and every attribute name
    some attribute load in ``src/`` reads."""
    classes = {}
    reads = set()
    for path, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return classes, reads


def _unread_fields(classes, reads, records):
    return sorted(
        f"{name}.{stmt.target.id}"
        for name in records
        for stmt in classes[name].body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in reads
    )


def test_every_former_record_field_is_read():
    """Each field of a type former's record, or of a binder, is read in ``src/``.

    The records are ``Binder`` and the subclasses of ``Former``; a field
    counts as read when some attribute load in ``src/`` names it.
    """
    classes, reads = _classes_and_reads()
    records = {"Binder"}
    grew = True
    while grew:
        subclasses = {
            name
            for name, node in classes.items()
            if any(isinstance(b, ast.Name) and b.id in records | {"Former"} for b in node.bases)
        }
        grew = not subclasses <= records
        records |= subclasses
    assert records >= {"Binder", "Sigma", "Pi", "Hom", "Id", "Coprod", "UnstableCoprod", "Ext"}
    assert _unread_fields(classes, reads, records) == []


def test_every_limit_record_field_is_read():
    """Each field of the chosen (co)limit records is read in ``src/``, as above."""
    classes, reads = _classes_and_reads()
    assert _unread_fields(classes, reads, {"Pullback", "Pushout", "Coproduct"}) == []


def _bound_names(node):
    """The names an import statement binds, with the statement's line."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        ((alias.asname or alias.name).split(".")[0], node.lineno)
        for alias in node.names
        if alias.name != "*"
    ]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _imports_in(node):
    """The import statements under ``node`` outside any nested scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, _SCOPES):
            yield from _imports_in(child)


def _unread_imports(scope, exported):
    """Imports made in ``scope`` itself that no name load under it reads."""
    reads = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [
        (name, line)
        for node in _imports_in(scope)
        for name, line in _bound_names(node)
        if name not in reads | exported
    ]


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def test_every_import_in_the_package_is_read():
    """Each import in ``src/ssetkit``, at module level or in a function, is
    read in its scope.  Names in ``__all__`` and the re-exports of a
    package's ``__init__`` are the module's interface, so they count as read."""
    unread = []
    for path, tree in _trees("src/ssetkit"):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(ROOT)
        scopes = [(tree, _exports(tree))] + [
            (node, set()) for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        unread += [f"{rel}:{line}: {name}" for scope, exported in scopes for name, line in _unread_imports(scope, exported)]
    assert unread == []
