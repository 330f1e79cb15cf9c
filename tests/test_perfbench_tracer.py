"""The benchmark's layer tracer still installs on the current source.

``perfbench/tracing.py`` wraps named methods by reading
``owner.__dict__[attr]``, so deleting or moving one of its traced
methods makes ``perfbench/run.py --trace 1`` raise.  This test loads
the tracer by path, installs it, and checks that every wrapped entry
point is restored exactly on removal.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _originals(tracing) -> dict:
    """``{(owner, attr): object}`` for every attribute the tracer patches."""
    from repro.serving.routers import ROUTERS, Router

    found = {}
    for module_name, class_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        if class_name is None:
            found[(module, attr)] = getattr(module, attr)
        else:
            owner = getattr(module, class_name)
            assert attr in owner.__dict__, (
                f"{class_name}.{attr} is traced by perfbench/tracing.py but is "
                f"not a method defined on {class_name} itself"
            )
            found[(owner, attr)] = owner.__dict__[attr]
    for cls in {Router, *ROUTERS.values()}:
        for attr, _ in tracing.ROUTER_METHODS:
            if attr in cls.__dict__:
                found[(cls, attr)] = cls.__dict__[attr]
    return found


def test_tracer_installs_and_restores_every_target():
    tracing = _load_tracing()
    originals = _originals(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original, f"{owner}.{attr} not wrapped"
    finally:
        tracer.remove()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"
