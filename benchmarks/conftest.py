"""Benchmark harness configuration.

Every bench regenerates one paper table/figure at a reduced scale (the
comparison shape is scale-invariant; see EXPERIMENTS.md) and prints
the same rows/series the paper reports.  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the rendered tables; without it they are captured but the
shape assertions still run.

The perf harnesses never write the tracked ``BENCH_*.json`` files.
They read them as the committed reference (trajectory bands, carried
history) and write each fresh artifact to the git-ignored
``benchmarks/out/``; to record new figures, copy ``out/`` over the
tracked files (see benchmarks/README.md).
"""

import json
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = _BENCH_DIR / "out"


def pytest_collection_modifyitems(items):
    """Mark every bench ``slow``: the figure/table regenerations and the
    perf harness belong to the full tier-1 lane, not the fast CI lane
    (``-m "not slow"``; see scripts/ci.sh)."""
    for item in items:
        if Path(item.fspath).resolve().parent == _BENCH_DIR:
            item.add_marker(pytest.mark.slow)


def emit(text: str) -> None:
    """Print a rendered experiment table under the bench's name."""
    print("\n" + text + "\n")


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (ValueError, OSError):
        return {}


def committed_artifact(name: str) -> dict:
    """The tracked ``benchmarks/<name>`` (read-only), or ``{}``."""
    return _read_json(_BENCH_DIR / name)


def latest_artifact(name: str) -> dict:
    """``out/<name>`` if a harness wrote it in this checkout, else the
    committed artifact."""
    fresh = OUT_DIR / name
    return _read_json(fresh) if fresh.exists() else committed_artifact(name)


def record_artifact(name: str, payload: dict) -> Path:
    """Write ``payload`` to ``out/<name>`` and return the path."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
