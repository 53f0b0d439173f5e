"""The `ppt` process: what starting it imports, and how it ends when its reader goes away."""

import os
import subprocess
import sys

import pytest

# Modules that cost start-up time and compute nothing for a text request.
_SLOW_TO_IMPORT = {"dataclasses", "inspect", "json"}


def _imported(*args: str) -> set[str]:
    # Every module a fresh interpreter imports for these arguments, read off -X importtime.
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, check=True, timeout=60
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args",
    [("-c", "import pptalgebra.cli"), ("-m", "pptalgebra", "info", "3", "4", "5")],
    ids=["import", "info-text"],
)
def test_start_up_skips_slow_imports(args):
    bare = _imported("-c", "pass")
    loaded = _imported(*args) - bare
    assert "pptalgebra.cli" in loaded
    assert not loaded & _SLOW_TO_IMPORT


def test_closed_stdout_exits_quietly():
    # Level 9 prints about 0.5 MB, far more than a pipe holds, so the process is still
    # writing when the reader closes its end after the first line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "pptalgebra", "level", "9"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert first == b"level 9: 19683 triples\n"
    assert stderr == b""
    assert proc.returncode == 1


@pytest.mark.parametrize("argv", [("info", "3", "4", "5"), ("info", "3", "4", "5", "--json"), ("level", "9")])
def test_stdout_closed_before_the_reply_exits_quietly(argv):
    # With stdout buffered, a short reply still sits in the buffer when run() returns,
    # so the broken pipe shows only when it is flushed; a long one breaks while printed.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pptalgebra", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write)
    assert result.stderr == b""
    assert result.returncode == 1
