#!/usr/bin/env python3
"""Mutation smoke for the guards whose sufficiency a comment proves.

Line coverage cannot show that a test would notice a guard going wrong; a mutant can
(DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE Computer, 1978).  Each
mutant below replaces one exact piece of text in one module of src/pptalgebra.  The
script copies src to a temporary directory, applies the mutant there, runs the test
files that cover it with -x against the copy, and prints "killed" (a test failed) or
"survived".  An unmutated copy runs first, as the control; a mutant whose tests run past
three times the control's time is stopped and counted as killed, since a mutant can send
a loop round forever (a chunk read wrong can land on a pair that no step regresses).

A mutant is expected to be killed unless it is marked "equivalent" (a proof, or a
search, shows it changes no result); an outcome that differs is marked UNEXPECTED.
The script only reports: it exits 0 whatever the outcomes, and fails only when the
unmutated copy cannot be tested.  Run from the repository root:

    python3 tests/mutants.py

pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # in src/pptalgebra
    old: str  # occurs exactly once in the file
    new: str
    why: str
    expected: str  # "killed" or "equivalent"
    tests: tuple[str, ...]


CORE, TREE, SYMPHONIC = ("tests/test_triple_core.py",), ("tests/test_tree.py",), ("tests/test_symphonic.py",)
HOT, BIGINT = ("tests/test_hot_path.py",), ("tests/test_bigint.py",)
SQUARE_LOOP = "    _NOT_SQUARE_MOD[_x * _x % 1155] = False\n"
ROUTE = "if a & 1 and 2 * (a - b).bit_length() > c.bit_length():"
CHECKS = "if 2 * (p * p) == s and 2 * (q * q) == d and 2 * p * q == b and math.gcd(p, q) == 1:"
CHILD_PAIRS = "        yield q, p + 2 * q\n        yield p, 2 * p + q\n"

MUTANTS = [
    Mutant("ppt-a-odd", "triple_core.py", ROUTE, ROUTE.replace("a & 1 and ", ""),
           "Euclid's form with an even first leg: twice a swapped triple passes every other check",
           "killed", CORE),
    Mutant("ppt-p-square", "triple_core.py", CHECKS, CHECKS.replace("2 * (p * p) == s and ", ""),
           "(a + 2, b, c + 2) keeps Q and the floor of P", "killed", CORE),
    Mutant("ppt-q-square", "triple_core.py", CHECKS, CHECKS.replace("2 * (q * q) == d and ", ""),
           "(a - 2, b, c + 2) keeps P, and so Q = b // 2P", "killed", CORE),
    Mutant("ppt-b", "triple_core.py", CHECKS, CHECKS.replace("2 * p * q == b and ", ""),
           "(a, b + 2, c) keeps both P and Q", "killed", CORE),
    Mutant("ppt-gcd", "triple_core.py", CHECKS, CHECKS.replace(" and math.gcd(p, q) == 1", ""),
           "k^2 times a triple, k odd, passes the square checks", "killed", CORE),
    Mutant("ppt-half-bits", "triple_core.py", ROUTE,
           ROUTE.replace(" and 2 * (a - b).bit_length() > c.bit_length()", ""), "triples with near-equal legs would keep a pair, against the cost rule", "killed", CORE),
    Mutant("make-ppt-sides", "triple_core.py",
           "    for side in (x, y, z):\n        if not isinstance(side, int) or side <= 0:\n"
           "            raise TripleError(f\"sides must be positive integers, got {_shown(side, 'integer', repr)}\")\n",
           "", "make_ppt(\"3\", 4, 5) raises sorted()'s bare TypeError", "killed", CORE),
    Mutant("witness-assert", "triple_core.py",
           "    if len(three) != 1 or len(five) != 1 or t.b % 4 != 0:\n"
           "        raise AssertionError(f\"divisibility pattern violated for {t}\")\n",
           "", "a theorem: 4 | b, and 3 and 5 each divide exactly one side of a PPT", "equivalent", CORE),
    Mutant("b-jump-cap", "tree.py",
           "k = int(min(2 * top_p.bit_length() - norm - 9, 2 * (q.bit_length() - floor.bit_length()) - 4) / 2.543)",
           "k = int((2 * top_p.bit_length() - norm - 9) / 2.543)",
           "the cap alone keeps a jump's landing at or above the floor", "killed", TREE),
    Mutant("b-jump-landing", "tree.py", "    if 0 < p_k - 2 * q_k <= q_k:\n", "    if True:\n",
           "no jump from 2.3M drawn pairs of B runs, under drawn floors, was refused by this test",
           "equivalent", TREE),
    Mutant("b-jump-k-zero", "tree.py", "if k < 1:  # the floor is near", "if k < 0:  # the floor is near",
           "a k of 0 lands on (q, p) itself with the identity, the refusal's own result", "equivalent", TREE),
    Mutant("regress-a-floor", "tree.py", "if (p_up := p - 2 * count * q) < floor:",
           "if (p_up := p - 2 * count * q) < 0:", "an A run taken past a chunk's floor", "killed", TREE),
    Mutant("locate-any-chunk", "tree.py", "if not (chunk and 0 < q_up < p_up):", "if not chunk:",
           "a chunk accepted without the in-domain test that proves its letters", "killed", TREE),
    Mutant("path-times", "tree.py", "seam = times > 1 and", "seam = times > 0 and",
           "one copy has no seam: the seam branch gives runs[:-1] + runs[-1:]", "equivalent", TREE),
    Mutant("child-b", "tree.py", "        r = 2 * p + q\n", "        r = 2 * p - q\n",
           "_child_triples' middle block builds the C child, so each level repeats its C triples", "killed", TREE),
    Mutant("child-a-leg", "tree.py", "t.a = rr - qq", "t.a = rr - pp",
           "_child_triples' A block takes its odd leg from the parent's p, not its q", "killed", TREE),
    Mutant("child-a-class", "tree.py", "        t.c = rr + qq\n        t.__class__ = PPT\n", "        t.c = rr + qq\n",
           "_child_triples' A block yields its _OpenPPT unswapped: a PPT subclass that takes attribute stores",
           "killed", HOT),
    Mutant("open-setattr", "triple_core.py", "    __setattr__ = object.__setattr__\n", "",
           "_OpenPPT inherits PPT's frozen __setattr__, so the tree's first slot store raises", "killed", HOT),
    Mutant("child-pairs-order", "tree.py", CHILD_PAIRS, "".join(reversed(CHILD_PAIRS.splitlines(keepends=True))),
           "_child_pairs yields B before A, so levels below the first come out of left-to-right order", "killed",
           TREE),
    Mutant("hyp-class", "tree.py", "        t.c = pp + qq\n        t.__class__ = PPT\n", "        t.c = pp + qq\n",
           "iter_by_hypotenuse yields its _OpenPPT unswapped: a PPT subclass that takes attribute stores", "killed",
           HOT),
    Mutant("hyp-child-map", "tree.py", "r, s = 2 * p - q, p + 2 * q", "r, s = 2 * p - q, p + q",
           "iter_by_hypotenuse's A child is q/(p + q), not q/(p + 2q): it leaves the tree", "killed", TREE),
    Mutant("chunk-unit-offset", "tree.py",
           "q_s, p_s = (q_u + _UNIT_HALF) >> _UNIT_BITS, (p_u + _UNIT_HALF) >> _UNIT_BITS",
           "q_s, p_s = q_u >> _UNIT_BITS, p_u >> _UNIT_BITS",
           "_top_chunk reads its column without the rounding offset, so a negative entry reads as 2^K less its size",
           "killed", TREE),
    Mutant("chunk-unit-bits", "tree.py", "_UNIT_BITS = _TOP_BITS - _TOP_FLOOR.bit_length() + 5",
           "_UNIT_BITS = _TOP_BITS - _TOP_FLOOR.bit_length() + 2",
           "K three below the proven bound: half a unit is 2^212, under the column entries of 213 bits that C^k and "
           "A^k B from the floor's pairs have at a 512-bit top, so their read is wrong", "killed", TREE),
    Mutant("run-bound", "tree.py", "return _RUNS[letter][count] if count < _SHARED_RUN else",
           "return _RUNS[letter][count] if count <= _SHARED_RUN else",
           "_run reads past the shared table on a run of exactly 64 letters and raises IndexError", "killed", TREE),
    Mutant("regress-fresh-run", "tree.py", "runs.append(shared[letter][count] if count < bound else (letter, count))",
           "runs.append((letter, count))",
           "_regress appends a tuple of its own for each new short run, so a located code holds about 64 bytes a run",
           "killed", TREE),
    Mutant("anti-integral", "symphonic.py", "    if m * m != disc:\n", "    if m * m > disc:\n",
           "the integral branch taken for a non-square discriminant", "killed", SYMPHONIC),
    Mutant("screen-square-1", "symphonic.py", SQUARE_LOOP, SQUARE_LOOP + "_NOT_SQUARE_MOD[1] = True\n",
           "the square residue 1 marked as a non-square: a hit with disc = 1 mod 1155 would be missed", "killed", HOT),
    Mutant("screen-modulus", "symphonic.py", "if _NOT_SQUARE_MOD[disc % 1155] or", "if _NOT_SQUARE_MOD[disc % 1001] or",
           "is_derivative's residue taken mod 1001, not the table's 1155, refuses square discriminants", "killed",
           SYMPHONIC),
    Mutant("bigint-lift", "_bigint.py", "k = (k + 1) // 2 + 1", "k = k // 2 + 1",
           "the lift keeps one bit too few on odd k, so wrong roots send valid triples to the sides' check", "killed",
           BIGINT + CORE),
    Mutant("bigint-threshold", "_bigint.py", "ROOT_FROM_BITS = 1 << 13", "ROOT_FROM_BITS = float('inf')",
           "the kernel is never taken: every pair is read by isqrt, right but slow", "killed", BIGINT),
]


def run_tests(src: Path, tests: tuple[str, ...], run: str, timeout: float | None = None) -> int | None:
    # Each run works in its own directory, so Hypothesis keeps no failing example from one mutant for the next.
    # Returns pytest's exit code, or None for a run stopped at the timeout.
    cwd = src.parent / run
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(str(ROOT / t) for t in tests)]
    try:
        return subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        found = subprocess.run([sys.executable, "-c", "import pptalgebra; print(pptalgebra.__file__)"],
                               env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        if not found.stdout.startswith(str(src)):
            sys.exit(f"the copy is not the package imported: {found.stdout.strip() or found.stderr.strip()}")
        start = time.perf_counter()
        if run_tests(src, tuple(sorted({t for m in MUTANTS for t in m.tests})), "control") != 0:
            sys.exit("control: the unmutated copy fails its tests, so no mutant can be judged")
        timeout = 3 * (time.perf_counter() - start)
        unexpected = 0
        for m in MUTANTS:
            path = src / "pptalgebra" / m.file
            original = path.read_text()
            if original.count(m.old) != 1:
                print(f"{m.name}: its old text occurs {original.count(m.old)} times in {m.file}  UNEXPECTED")
                unexpected += 1
                continue
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            code = run_tests(src, m.tests, m.name, timeout)
            path.write_text(original)
            outcome = {0: "survived", 1: "killed", None: "killed"}.get(code, f"error (pytest exit {code})")
            ok = outcome == ("killed" if m.expected == "killed" else "survived")
            unexpected += not ok
            print(f"{m.name:17} {outcome:9} expected {m.expected:10} {time.perf_counter() - start:5.1f} s"
                  f"{' (timed out)' if code is None else ''}{'' if ok else '  UNEXPECTED'}  {m.why}", flush=True)
    print(f"{len(MUTANTS) - unexpected} of {len(MUTANTS)} mutants as expected")


if __name__ == "__main__":
    main()
