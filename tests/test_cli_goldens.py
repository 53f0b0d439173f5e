"""Byte-for-byte CLI goldens: the exit code and the sha256 of stdout and stderr per argv.

test_text_and_json_agree checks only that text and JSON agree with each other,
so a change made alike to both passes it.  cli_goldens.json pins both: one record
per argv of AGREEMENT_CASES and of test_domain_errors, in text and with --json.
argparse's own text (--help, usage errors) is left out, because its wording
differs across the supported Python versions.

After a deliberate change to the output, rewrite the file with

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

from pptalgebra import cli
from pptalgebra.cli import run
from test_cli import AGREEMENT_CASES, DOMAIN_ERRORS

GOLDENS = pathlib.Path(__file__).with_name("cli_goldens.json")


def _argvs() -> list[list[str]]:
    cases = [*AGREEMENT_CASES, *(argv for argv, _ in DOMAIN_ERRORS)]
    return [argv for case in cases for argv in (case, [*case, "--json"])]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "code": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def test_cli_output_matches_goldens():
    goldens = {tuple(record["argv"]): record for record in json.loads(GOLDENS.read_text())}
    argvs = _argvs()
    assert sorted(goldens) == sorted(map(tuple, argvs)), "argv list changed: rewrite cli_goldens.json"
    differing = [" ".join(argv) for argv in argvs if _outcome(argv) != goldens[tuple(argv)]]
    assert not differing, f"output differs from the goldens for: {differing}"


def test_json_requests_render_no_text(monkeypatch):
    # A --json request renders its values once, as JSON: with the text renderers made to fail, each still
    # matches its golden, errors and exit codes included.
    def refuse(*args):
        raise AssertionError("a --json request rendered text")

    monkeypatch.setattr(cli, "_text", refuse)
    monkeypatch.setattr(cli, "_lines", refuse)
    goldens = {tuple(record["argv"]): record for record in json.loads(GOLDENS.read_text())}
    argvs = [argv for argv in _argvs() if argv[-1] == "--json"]
    assert len(argvs) == len(goldens) // 2
    differing = [" ".join(argv) for argv in argvs if _outcome(argv) != goldens[tuple(argv)]]
    assert not differing, f"output differs from the goldens for: {differing}"


if __name__ == "__main__":
    GOLDENS.write_text("[\n" + ",\n".join(json.dumps(_outcome(argv)) for argv in _argvs()) + "\n]\n")
