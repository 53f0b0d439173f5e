"""cli: a closed loop with one client, one `python -m pptalgebra` process at a time.

A round is a seeded, shuffled mix of all 11 verbs, each in text and --json,
with small inputs and big ones of up to about 2500 digits.  Every request
pays interpreter start-up and the package import, so this is the workload
where import cost, argparse and rendering show, and where work moved into
import time would be caught.  Each request's stdout is checked against
values computed in this process from the reference formulas.

Requests the CLI is known to fail on stay out of the measured mix, where
every request must succeed; the traced run sends them as LIMIT_PROBES and
counts how they fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import reference as R
from proc import child_env, run_python
from spans import NullTracer
from speed import PROCESS

ITEMS = "requests"
CALIBRATION = PROCESS  # a request is a whole process
WARMUP = "from pptalgebra import cli; cli.run(['info', '3', '4', '5'])"
FERMAT_SIDES = (4565486027761, 1061652293520, 4687298610289)

# The first prints a value past CPython's default 4300-digit int<->str limit
# (ValueError); the second prints a path code longer than sys.maxsize letters
# (len() of the code overflows, uncaught).
LIMIT_PROBES = (
    ["path", "B^6000", "--json"],
    ["family", "fermat", "2000", "--derive", "minor"],
)
IMPORT_RUNS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import pptalgebra.cli; print(time.perf_counter() - t)"
REPLAYS = 3


@dataclass(frozen=True)
class CodeIs:
    """A printed path code that must lead from the root to the generator q/p."""

    q: int
    p: int

    def matches(self, text: str) -> bool:
        runs = R.parse_code(text)
        return runs is not None and R.apply_runs(runs) == (self.q, self.p)


@dataclass
class Request:
    argv: list[str]
    # (line prefix, rest of line) in text mode, (key, value) in JSON mode;
    # a CodeIs value accepts any spelling of the right code.
    expect: list[tuple[str, object]]
    whole: str | None = None  # the exact stdout, where it is checked whole

    @property
    def json(self) -> bool:
        return "--json" in self.argv


@dataclass
class Work:
    requests: list[Request]
    env: dict[str, str]

    @property
    def items(self) -> int:
        return len(self.requests)


def _tri(t) -> str:
    return f"[{t[0]}, {t[1]}, {t[2]}]"


def _tdict(t) -> dict[str, str]:
    return {"a": str(t[0]), "b": str(t[1]), "c": str(t[2])}


def _request(argv: list[str], js: bool, text: list, fields: list) -> Request:
    return Request(argv + ["--json"], fields) if js else Request(argv, text)


def _sides(t) -> list[str]:
    return [str(v) for v in t]


def _info(runs, js: bool) -> Request:
    t = R.triple_of(*R.apply_runs(runs))
    a, b, c = t
    f1, f2 = R.generators(t)
    q2, q1, p1, p2 = f2.numerator, f1.numerator, f1.denominator, f2.denominator
    key = f"[{q2},{q1},{p1},{p2}]"
    h, s, alt = Fraction(a * b, a + b), Fraction(a * b * c, a * b + c * c), Fraction(a * b, c)
    code, depth = R.code_text(runs), str(sum(k for _, k in runs))
    text = [
        ("triple: ", _tri(t)),
        ("primary generator: ", str(f1)),
        ("secondary generator: ", str(f2)),
        ("key sequence: ", key),
        ("radii: ", f"r1={q1 * q2} r2={q1 * p2} r3={q2 * p1} r4={p1 * p2}"),
        ("class: ", R.classify(t)),
        ("harmonic square: ", str(h)),
        ("symphonic square: ", str(s)),
        ("altitude: ", str(alt)),
        ("path: ", code),
        ("depth: ", depth),
    ]
    fields = [
        ("triple", _tdict(t)),
        ("primary_generator", str(f1)),
        ("secondary_generator", str(f2)),
        ("key_sequence", key),
        ("radii", {"r1": str(q1 * q2), "r2": str(q1 * p2), "r3": str(q2 * p1), "r4": str(p1 * p2)}),
        ("class", R.classify(t)),
        ("harmonic_square", str(h)),
        ("symphonic_square", str(s)),
        ("altitude", str(alt)),
        ("path", code),
        ("depth", depth),
    ]
    return _request(["info", *_sides(t)], js, text, fields)


def _derive(runs, kind: str, js: bool) -> Request:
    t = R.triple_of(*R.apply_runs(runs))
    d = (R.major if kind == "major" else R.minor)(t)
    g1, g2 = R.generators(d)
    text = [
        ("", f"{_tri(t)} --{kind}--> {_tri(d)}"),
        ("primary generator: ", str(g1)),
        ("secondary generator: ", str(g2)),
        ("class: ", R.classify(d)),
        ("path: ", CodeIs(g1.numerator, g1.denominator)),
    ]
    fields = [
        ("kind", kind),
        ("triple", _tdict(t)),
        ("derivative", _tdict(d)),
        ("primary_generator", str(g1)),
        ("secondary_generator", str(g2)),
        ("class", R.classify(d)),
        ("path", CodeIs(g1.numerator, g1.denominator)),
    ]
    return _request(["derive", f"--{kind}", *_sides(t)], js, text, fields)


def _antiderive(runs, kind: str, js: bool) -> Request:
    t = R.triple_of(*R.apply_runs(runs))
    d = (R.major if kind == "major" else R.minor)(t)
    q, p = R.generators(d)[0].as_integer_ratio()
    s = p + q if kind == "major" else p - q
    r = math.isqrt(s * s - 8 * p * q if kind == "major" else s * s + 8 * p * q)
    roots = [str((s + r) // 2), str((s - r) // 2)]
    hyp = str(p - q if kind == "major" else p + q)
    text = [
        ("", f"anti-derivative ({kind}) of {_tri(d)}"),
        ("roots: ", ", ".join(roots)),
        ("hypotenuse: ", hyp),
        ("integral: ", _tri(t)),
    ]
    fields = [("kind", kind), ("triple", _tdict(d)), ("roots", roots), ("hypotenuse", hyp), ("integral", _tdict(t))]
    return _request(["antiderive", f"--{kind}", *_sides(d)], js, text, fields)


def _locate(runs, by_triple: bool, js: bool) -> Request:
    q, p = R.apply_runs(runs)
    t = R.triple_of(q, p)
    code, length, compact = R.code_text(runs), str(sum(k for _, k in runs)), R.compact_text(runs)
    text = [("generator: ", f"{q}/{p}"), ("path: ", code), ("length: ", length), ("runs: ", compact)]
    fields = [("generator", f"{q}/{p}"), ("path", code), ("length", length), ("runs", compact)]
    if by_triple:
        text.append(("triple: ", _tri(t)))
        fields.append(("triple", _tdict(t)))
    return _request(["locate", *(_sides(t) if by_triple else [f"{q}/{p}"])], js, text, fields)


def _path(runs, js: bool) -> Request:
    q, p = R.apply_runs(runs)
    t = R.triple_of(q, p)
    code, length = R.code_text(runs), str(sum(k for _, k in runs))
    text = [("path: ", code), ("length: ", length), ("generator: ", f"{q}/{p}"), ("triple: ", _tri(t))]
    fields = [("path", code), ("length", length), ("generator", f"{q}/{p}"), ("triple", _tdict(t))]
    return _request(["path", R.compact_text(runs)], js, text, fields)


def _children(runs, js: bool) -> Request:
    q, p = R.apply_runs(runs)
    t = R.triple_of(q, p)
    kids = [R.triple_of(*R.step(q, p, letter)) for letter in "ABC"]
    text = [
        ("", f"children of {_tri(t)}"),
        ("left:   ", _tri(kids[0])),
        ("middle: ", _tri(kids[1])),
        ("right:  ", _tri(kids[2])),
    ]
    fields = [("triple", _tdict(t))] + [(k, _tdict(v)) for k, v in zip(("left", "middle", "right"), kids)]
    return _request(["children", *_sides(t)], js, text, fields)


def _level(n: int, js: bool) -> Request:
    triples = list(R.level_triples(n))
    if js:
        return Request(
            ["level", str(n), "--json"],
            [("level", str(n)), ("count", str(len(triples))), ("triples", [_tdict(t) for t in triples])],
        )
    whole = f"level {n}: {len(triples)} triples\n" + "".join(f"  {_tri(t)}\n" for t in triples)
    return Request(["level", str(n)], [], whole)


def _classify(runs, js: bool) -> Request:
    t = R.triple_of(*R.apply_runs(runs))
    cls = R.classify(t)
    three = "a" if t[0] % 3 == 0 else "b"
    five = next(name for name, v in zip("abc", t) if v % 5 == 0)
    derived = "T4" if cls in ("T1", "T2") else "T6"
    text = [
        ("", f"{_tri(t)}: class {cls}"),
        ("", f"3 divides {three}; 4 divides b; 5 divides {five}"),
        ("", f"derivatives land in {derived}"),
    ]
    fields = [
        ("triple", _tdict(t)),
        ("class", cls),
        ("three_divides", three),
        ("four_divides", "b"),
        ("five_divides", five),
        ("derivative_class", derived),
    ]
    return _request(["classify", *_sides(t)], js, text, fields)


def _squares(runs, js: bool) -> Request:
    t = R.triple_of(*R.apply_runs(runs))
    a, b, c = t
    h, s = Fraction(a * b, a + b), Fraction(a * b * c, a * b + c * c)
    rec = [str(1 / h), str(Fraction(1, c)), str(1 / s)]
    lam = math.lcm(h.denominator, s.denominator)
    scaled = (lam * a, lam * b, lam * c)
    sh, ss = str(lam * h), str(lam * s)
    text = [
        ("harmonic square: ", str(h)),
        ("symphonic square: ", str(s)),
        ("reciprocal triple: ", ", ".join(rec)),
        ("integer scale: ", str(lam)),
        ("scaled: ", f"{_tri(scaled)} with h={sh} s={ss}"),
    ]
    fields = [
        ("triple", _tdict(t)),
        ("harmonic_square", str(h)),
        ("symphonic_square", str(s)),
        ("reciprocal_triple", rec),
        ("scale", str(lam)),
        ("scaled_triple", _tdict(scaled)),
        ("scaled_harmonic", sh),
        ("scaled_symphonic", ss),
    ]
    return _request(["squares", *_sides(t)], js, text, fields)


def _family(line: str, n: int, kind: str | None, js: bool) -> Request:
    q, p = R.family_generator(line, n)
    member = R.triple_of(q, p)
    code = R.code_text(((R.FAMILY_LETTER[line], n - 1),))
    text = [
        ("", f"{line} family, member {n}"),
        ("path: ", code),
        ("generator: ", f"{q}/{p}"),
        ("triple: ", _tri(member)),
    ]
    fields = [("family", line), ("index", str(n)), ("path", code), ("generator", f"{q}/{p}"), ("triple", _tdict(member))]
    argv = ["family", line, str(n)]
    if kind is not None:
        d = (R.major if kind == "major" else R.minor)(member)
        g = R.generators(d)[0]
        where = CodeIs(g.numerator, g.denominator)
        text += [("", f"{kind} derivative: {_tri(d)}"), ("derivative generator: ", str(g)), ("derivative path: ", where)]
        fields += [("derive", kind), ("derivative", _tdict(d)), ("derivative_generator", str(g)), ("derivative_path", where)]
        argv += ["--derive", kind]
    return _request(argv, js, text, fields)


def _fermat_demo(js: bool) -> Request:
    t = FERMAT_SIDES
    g = R.generators(t)[0]
    where = CodeIs(g.numerator, g.denominator)
    text = [
        ("", f"Fermat's triple: {_tri(t)}"),
        ("primary generator: ", str(g)),
        ("code: ", where),
        ("class: ", R.classify(t)),
        ("", "major anti-derivative: none"),
        ("", "minor anti-derivative: none"),
    ]
    fields = [
        ("triple", _tdict(t)),
        ("generator", str(g)),
        ("path", where),
        ("class", R.classify(t)),
        ("major_integral", R.anti_integral(t, "major")),
        ("minor_integral", R.anti_integral(t, "minor")),
    ]
    return _request(["fermat-demo"], js, text, fields)


def prepare(seed: int, tiny: bool = False) -> Work:
    rng = random.Random(seed)
    big_bits = 300 if tiny else 2000  # sides of ~1200 digits; info prints abc, ~3600 digits

    def small():
        return R.merge_runs((rng.choice("ABC"), 1) for _ in range(rng.randint(3, 12)))

    def big(bits=big_bits):
        return R.random_code(rng, "mixed", bits)[0]

    def kind():
        return rng.choice(("major", "minor"))

    requests = [
        _info(small(), False),
        _info(big(), True),
        _derive(small(), kind(), False),
        _derive(big(), kind(), True),
        _antiderive(small(), kind(), False),
        _antiderive(big(), kind(), True),
        _locate(small(), False, False),
        _locate(big(), True, True),
        _path(small(), False),
        _path((("B", rng.randint(300, 400) if tiny else rng.randint(2500, 3200)),), True),
        _children(small(), False),
        _children(big(), True),
        _level(rng.randint(3, 6), False),
        _level(rng.randint(2, 5), True),
        _classify(small(), False),
        _classify(big(), True),
        _squares(small(), False),
        _squares(big(150), True),
        _family("platonic", rng.randint(10**6, 10**15), kind(), False),
        _family("pythagorean", rng.randint(10**6, 10**15), kind(), True),
        # Pell-sized minor-derivative codes stay below sys.maxsize letters up to 25.
        _family("fermat", rng.randint(8, 25), "minor", False),
        _family("fermat", rng.randint(200, 1000), None, True),
        _fermat_demo(False),
        _fermat_demo(True),
    ]
    rng.shuffle(requests)
    return Work(requests, child_env())


@dataclass
class Reply:
    wall: float
    code: int
    stdout: str
    stderr: str


def _send(argv: list[str], env: dict[str, str]) -> Reply:
    wall, done = run_python(["-m", "pptalgebra", *argv], env)
    return Reply(wall, done.returncode, done.stdout, done.stderr)


def run_pass(work: Work, tr=None, tick=None) -> list[Reply]:
    """One round: every request of the mix, one process after another."""
    tr = tr or NullTracer()
    out = []
    for r in work.requests:
        if tick is not None:
            tick()
        with tr.span("cli.request") as i:
            reply = _send(r.argv, work.env)
        if i is not None:
            tr.tags[i] = ("out_bytes", len(reply.stdout.encode()))
        out.append(reply)
    return out


def _matches(r: Request, stdout: str) -> bool:
    if r.whole is not None:
        return stdout == r.whole
    if r.json:
        try:
            payload = json.loads(stdout)
        except ValueError:
            return False
        if not isinstance(payload, dict):
            return False
        for key, want in r.expect:
            got = payload.get(key)
            if isinstance(want, CodeIs) and not (isinstance(got, str) and want.matches(got)):
                return False
            if not isinstance(want, CodeIs) and got != want:
                return False
        return True
    lines = stdout.splitlines()
    for prefix, want in r.expect:
        if isinstance(want, CodeIs):
            rests = [line[len(prefix):] for line in lines if line.startswith(prefix)]
            if not any(want.matches(rest) for rest in rests):
                return False
        elif prefix + want not in lines:
            return False
    return True


def _ok(r: Request, reply: Reply) -> bool:
    return reply.code == 0 and "Traceback" not in reply.stderr and _matches(r, reply.stdout)


def check(work: Work, out: list[Reply]) -> tuple[int, int]:
    """(attempted, failed) requests: a non-zero exit, a traceback or a wrong value fails."""
    failed = sum(1 for r, reply in zip(work.requests, out) if not _ok(r, reply))
    return len(work.requests), failed + abs(len(out) - len(work.requests))


def corrupt(work: Work) -> None:
    for r in work.requests:
        if r.argv[0] == "path":
            r.expect = [(k, v + "0") if k.startswith("generator") else (k, v) for k, v in r.expect]


def latencies(out: list[Reply]) -> list[float]:
    return [reply.wall for reply in out]


def summary(work: Work, out: list[Reply]) -> str:
    verbs = sorted({r.argv[0] for r in work.requests})
    return f"{len(work.requests)} requests per round over {len(verbs)} verbs"


def layer_metrics(work: Work, tr, passes: int) -> dict[str, float]:
    """cli.* metrics: request latency from the traced rounds, in-process
    cli.run time, the start-up left over, a fresh process's import time,
    output size, and how the LIMIT_PROBES fail."""
    from pptalgebra import cli

    walls: dict[int, list[float]] = {}
    names = tr.names
    req = [i for i, nid in enumerate(tr.name) if names[nid] == "cli.request"]
    for n, i in enumerate(req):
        walls.setdefault(n % len(work.requests), []).append(tr.end[i] - tr.start[i])
    run_s, out_bytes = [], []
    for r in work.requests:
        times = []
        for _ in range(REPLAYS):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                cli.run(list(r.argv))
                times.append(time.perf_counter() - t0)
        run_s.append(statistics.median(times))
        out_bytes.append(len(sink.getvalue().encode()))
    startup = [statistics.median(walls[n]) - run_s[n] for n in walls]
    imports = [float(run_python(["-c", IMPORT_PROBE], work.env)[1].stdout) for _ in range(IMPORT_RUNS)]
    probes = [_send(argv, work.env) for argv in LIMIT_PROBES]
    all_walls = [w for ws in walls.values() for w in ws]
    return {
        "cli.p50_ms": 1e3 * statistics.median(all_walls),
        "cli.p90_ms": 1e3 * statistics.quantiles(all_walls, n=10, method="inclusive")[-1],
        "cli.import_ms": 1e3 * statistics.median(imports),
        "cli.run_ms": 1e3 * statistics.fmean(run_s),
        "cli.startup_ms": 1e3 * statistics.median(startup),
        "cli.out_bytes": statistics.fmean(out_bytes),
        "cli.fail.ValueError": sum(1 for p in probes if p.code != 0 and "\nValueError: " in "\n" + p.stderr),
        "cli.fail.traceback": sum(1 for p in probes if "Traceback" in p.stderr),
    }
