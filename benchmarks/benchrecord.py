"""Lightweight performance recording for the benchmark suite.

The perf trajectory of the hot paths is tracked in ``BENCH_engine.json`` at
the repository root: every run of ``benchmarks/bench_engine_throughput.py``
measures engine steps/sec (vectorized vs. the seed reference engine) and
sweep wall-clock (serial vs. parallel) and merges the numbers into that file
via :func:`record`, so regressions show up as a diff.

Each :func:`record` call additionally *appends* to the file's ``history``
list (timestamped, keyed by the package version and ``git describe`` when
available), so the perf trajectory across PRs is preserved even though every
section holds only its latest numbers.

Only stdlib + time-based measurement; deliberately no dependency on
pytest-benchmark so the smoke job can run anywhere.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro._version import __version__

__all__ = [
    "DEFAULT_BENCH_PATH",
    "HISTORY_LIMIT",
    "measure_steps_per_sec",
    "compare_steps_per_sec",
    "time_call",
    "record",
]

#: Cap on the ``history`` list so the record file cannot grow without bound
#: (oldest entries are dropped first).
HISTORY_LIMIT = 200

#: Default output file, resolved relative to the current working directory
#: (the repository root when running pytest from a checkout).  Override with
#: the ``REPRO_BENCH_PATH`` environment variable.
DEFAULT_BENCH_PATH = "BENCH_engine.json"


def measure_steps_per_sec(
    engine_factory: Callable[[], Any],
    *,
    steps: int = 200,
    warmup: int = 50,
    repeats: int = 5,
) -> float:
    """Best observed ``engine.step()`` throughput in steps per second.

    A fresh engine is built per repeat (identical initial state each time —
    the factory must seed its own RNGs), warmed up, then timed; the best of
    ``repeats`` is returned to suppress scheduler noise.
    """
    best = 0.0
    for _ in range(repeats):
        engine = engine_factory()
        for _ in range(warmup):
            engine.step()
        start = time.perf_counter()
        for _ in range(steps):
            engine.step()
        elapsed = time.perf_counter() - start
        best = max(best, steps / elapsed)
    return best


def compare_steps_per_sec(
    engine_factories: Dict[str, Callable[[], Any]],
    *,
    steps: int = 150,
    warmup: int = 50,
    repeats: int = 8,
) -> Dict[str, float]:
    """Best observed throughput per variant, measured in interleaved rounds.

    Round-robin over the variants (A, B, A, B, ...) instead of timing each
    to completion, so CPU-frequency and scheduler drift hits every variant
    equally and best-of ratios stay meaningful on noisy machines.
    """
    best = {name: 0.0 for name in engine_factories}
    for _ in range(repeats):
        for name, factory in engine_factories.items():
            engine = factory()
            for _ in range(warmup):
                engine.step()
            start = time.perf_counter()
            for _ in range(steps):
                engine.step()
            elapsed = time.perf_counter() - start
            best[name] = max(best[name], steps / elapsed)
    return best


def time_call(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` once, returning ``(result, wall_clock_seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _bench_path(path: Optional[str]) -> str:
    return path or os.environ.get("REPRO_BENCH_PATH", DEFAULT_BENCH_PATH)


def _git_describe(anchor: str) -> Optional[str]:
    """``git describe --always --dirty`` of the repo containing ``anchor``.

    Best effort: returns None outside a git checkout or when git is absent,
    so recording never fails because of version lookup.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(anchor)) or ".",
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def record(section: str, payload: Dict[str, Any], *, path: Optional[str] = None) -> str:
    """Merge ``payload`` under ``section`` into the benchmark record file.

    Existing sections are preserved (corrupt files are replaced), a ``meta``
    block records the interpreter/platform, and the file is written
    atomically.  The run is also *appended* to the file's ``history`` list —
    timestamped and keyed by package version / ``git describe`` — so
    overwriting a section never loses the perf trajectory across PRs.
    Returns the path written.
    """
    target = _bench_path(path)
    data: Dict[str, Any] = {}
    if os.path.exists(target):
        try:
            with open(target) as fh:
                loaded = json.load(fh)
            if isinstance(loaded, dict):
                data = loaded
        except (OSError, ValueError):
            data = {}
    recorded_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    data["meta"] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "recorded_at": recorded_at,
    }
    data[section] = payload
    history = data.get("history")
    if not isinstance(history, list):
        history = []
    history.append(
        {
            "section": section,
            "recorded_at": recorded_at,
            "version": __version__,
            "git": _git_describe(target),
            "payload": payload,
        }
    )
    data["history"] = history[-HISTORY_LIMIT:]
    tmp = f"{target}.tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, target)
    return target
