"""The benchmark's tracer wraps library functions by the names their callers
bind; those names must stay bound, and a traced round must restore them."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
