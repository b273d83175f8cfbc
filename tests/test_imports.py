"""Every name a ``divekit`` module imports is read in that module, unless
the benchmark's span tracer requires the binding there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "divekit"


def traced_bindings():
    """``(module, name)`` for every binding site that ``SITES`` in
    ``perfbench/spans.py`` requires to exist."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    sites = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SITES" for t in node.targets))
    return {(module, attr) for _, attr, modules in sites.values() for module in modules}


def unread_imports(path):
    """The names ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_import_is_read():
    traced = traced_bindings()
    unread, pinned = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        for name in sorted(unread_imports(path)):
            (pinned if (path.stem, name) in traced else unread).append(f"{path.stem}.{name}")
    assert unread == []
    # the one import that only the tracer's binding check keeps
    assert set(pinned) <= {"diving.to_standard_form"}
