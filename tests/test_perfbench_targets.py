"""perfbench's span tracer must find every traced name in hdclab.

``perfbench/tracing.py`` names the functions and methods it wraps as
strings, so a rename or move in hdclab breaks only a traced benchmark run.
This test loads that file by path (it imports only the standard library)
and enters and exits a ``Tracer`` against the package.
"""

import importlib.util
import sys
from pathlib import Path

import hdclab  # noqa: F401  (the tracer finds its targets in sys.modules)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MISSING = object()


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(name):
    """The raw attribute a target names: a module function or a class __dict__ entry."""
    module_name, *owner_path, attr = name.split(".")
    owner = sys.modules[f"hdclab.{module_name}"]
    for part in owner_path:
        owner = getattr(owner, part, MISSING)
        if owner is MISSING:
            return MISSING
    return vars(owner).get(attr, MISSING)


def test_tracer_resolves_every_target_and_restores_it():
    tracing = _load_tracing()
    originals = {name: _lookup(name) for name in tracing.TARGETS}
    assert [name for name, fn in originals.items() if fn is MISSING] == []
    snapshots = {
        key: dict(vars(module)) for key, module in sys.modules.items()
        if module is not None and (key == "hdclab" or key.startswith("hdclab."))
    }

    with tracing.Tracer():
        still_raw = [name for name in tracing.TARGETS if _lookup(name) is originals[name]]
        assert still_raw == []

    for name, original in originals.items():
        assert _lookup(name) is original, name
    for key, snapshot in snapshots.items():
        now = vars(sys.modules[key])
        assert [k for k, v in snapshot.items() if now.get(k) is not v] == [], key
