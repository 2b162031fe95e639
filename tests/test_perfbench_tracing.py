"""The benchmark's tracer wraps library functions by the names their callers
bind; those names must stay bound, and a traced round must restore them."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_and_are_restored():
    tracing = _load_tracing()
    targets = [(owner, attr) for owner, attr, *_ in tracing.SPANS + tracing.COUNTS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not hasattr(owner, attr)]
    assert not missing
    originals = [getattr(owner, attr) for owner, attr in targets]
    with tracing.Tracer():
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(targets, originals))
    assert all(getattr(owner, attr) is fn
               for (owner, attr), fn in zip(targets, originals))


def _unread_imports(path):
    """Names a module binds by import (``__future__`` aside) and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_unread_imports_are_the_tracers():
    # an import no code reads stays only because the tracer wraps it there;
    # once the tracer stops binding a name, this names the import to delete
    tracing = _load_tracing()
    bound = {(owner.__name__, attr) for owner, attr, *_ in tracing.SPANS + tracing.COUNTS}
    stray = [f"{path.stem}.{name}"
             for path in sorted((ROOT / "src" / "blindptycho").glob("*.py"))
             if path.stem != "__init__"
             for name in sorted(_unread_imports(path))
             if (f"blindptycho.{path.stem}", name) not in bound]
    assert not stray, f"imported, never read and not traced: {stray}"
