"""Where the package lives, and how the benchmark starts fresh Python processes."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120


def child_env() -> dict[str, str]:
    """The caller's environment with src/ importable.

    Any int<->str digit-limit override is dropped so that children run with
    the interpreter's default limit, as a user's `ppt` would.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def run_python(args: list[str], env: dict[str, str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run `python args...` to completion; returns (wall seconds, result)."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - t0, done
