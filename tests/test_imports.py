"""Every module of the package and of the tests reads each name it imports."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unread_imports(path):
    """The names that ``path`` binds by an import and never reads.

    A package ``__init__`` is skipped: its imports are the package's API.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_no_unread_imports():
    files = [p for p in sorted((ROOT / "src").rglob("*.py"))
             if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 20
    unread = {str(p.relative_to(ROOT)): names for p in files
              if (names := unread_imports(p))}
    assert unread == {}
