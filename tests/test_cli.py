"""CLI behavior: text goldens, JSON round-trips, text/JSON agreement, errors."""

import argparse
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from pptalgebra import (
    DerivativeKind,
    FamilyLine,
    KeySequence,
    PathCode,
    QuadraticSurd,
    TClass,
    apply_path,
    generators_of,
    locate,
    major_derivative,
    make_ppt,
    parse_fraction,
    parse_key_sequence,
    triple_from_primary,
)
from pptalgebra import cli as cli_module, generators, symphonic, tree
from pptalgebra.cli import _text, _wire, run


@pytest.fixture
def cli(capsys):
    def invoke(*args: str):
        code = run(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_info_text_golden(cli):
    code, out, err = cli("info", "3", "4", "5")
    assert code == 0 and err == ""
    assert out == (
        "triple: [3, 4, 5]\n"
        "primary generator: 1/2\n"
        "secondary generator: 1/3\n"
        "key sequence: [1,1,2,3]\n"
        "radii: r1=1 r2=3 r3=2 r4=6\n"
        "class: T1\n"
        "harmonic square: 12/7\n"
        "symphonic square: 60/37\n"
        "altitude: 12/5\n"
        "path: (root)\n"
        "depth: 0\n"
    )


def test_derive_text_golden(cli):
    code, out, _ = cli("derive", "--minor", "3", "4", "5")
    assert code == 0
    assert out.splitlines() == [
        "[3, 4, 5] --minor--> [5, 12, 13]",
        "primary generator: 2/3",
        "secondary generator: 1/5",
        "class: T4",
        "path: C",
    ]


def test_locate_text_golden(cli):
    code, out, _ = cli("locate", "6/35")
    assert code == 0
    assert out.splitlines() == [
        "generator: 6/35",
        "path: AACAA",
        "length: 5",
        "runs: A^2 C A^2",
    ]


def test_locate_accepts_triple_sides(cli):
    code, out, _ = cli("locate", "33", "56", "65")
    assert code == 0
    assert out.splitlines() == [
        "triple: [33, 56, 65]",
        "generator: 4/7",
        "path: AC",
        "length: 2",
        "runs: A C",
    ]


def test_path_accepts_run_length(cli):
    code, out, _ = cli("path", "C^13")
    assert code == 0
    assert "triple: [29, 420, 421]" in out
    code, out, _ = cli("path", "AA C^16 B")
    assert code == 0
    assert out.splitlines() == [
        "path: AACCCCCCCCCCCCCCCCB",
        "length: 19",
        "generator: 86/253",
        "triple: [56613, 43516, 71405]",
    ]


def test_children_text_golden(cli):
    code, out, _ = cli("children", "3", "4", "5")
    assert out.splitlines() == [
        "children of [3, 4, 5]",
        "left:   [15, 8, 17]",
        "middle: [21, 20, 29]",
        "right:  [5, 12, 13]",
    ]


def test_level_text(cli):
    code, out, _ = cli("level", "1")
    assert out.splitlines() == [
        "level 1: 3 triples",
        "  [15, 8, 17]",
        "  [21, 20, 29]",
        "  [5, 12, 13]",
    ]


def test_classify_text(cli):
    code, out, _ = cli("classify", "5", "12", "13")
    assert out.splitlines() == [
        "[5, 12, 13]: class T4",
        "3 divides b; 4 divides b; 5 divides a",
        "derivatives land in T6",
    ]


def test_squares_text(cli):
    code, out, _ = cli("squares", "3", "4", "5")
    assert out.splitlines() == [
        "triple: [3, 4, 5]",
        "harmonic square: 12/7",
        "symphonic square: 60/37",
        "reciprocal triple: 7/12, 1/5, 37/60",
        "integer scale: 259",
        "scaled: [777, 1036, 1295] with h=444 s=420",
    ]


def test_family_with_derivative(cli):
    code, out, _ = cli("family", "fermat", "2", "--derive", "minor")
    lines = out.splitlines()
    assert "fermat family, member 2" in lines
    assert "generator: 2/5" in lines
    assert "triple: [21, 20, 29]" in lines
    assert "minor derivative: [29, 420, 421]" in lines
    assert "derivative path: CCCCCCCCCCCCC" in lines


def test_family_text_goldens(cli):
    code, out, _ = cli("family", "platonic", "1")
    assert code == 0
    assert out.splitlines() == [
        "platonic family, member 1",
        "path: (root)",
        "generator: 1/2",
        "triple: [3, 4, 5]",
    ]
    code, out, _ = cli("family", "pythagorean", "7", "--derive", "major")
    assert code == 0
    assert out.splitlines() == [
        "pythagorean family, member 7",
        "path: CCCCCC",
        "generator: 7/8",
        "triple: [15, 112, 113]",
        "major derivative: [14351, 1680, 14449]",
        "derivative generator: 7/120",
        "derivative path: CCCCCCAAAAAAAA",
    ]


def test_antiderive_text(cli):
    code, out, _ = cli("antiderive", "--major", "15", "8", "17")
    assert out.splitlines() == [
        "anti-derivative (major) of [15, 8, 17]",
        "roots: (5 + sqrt(-7))/2, (5 - sqrt(-7))/2",
        "hypotenuse: 3",
        "integral: none",
    ]
    code, out, _ = cli("antiderive", "--major", "35", "12", "37")
    assert out.splitlines() == [
        "anti-derivative (major) of [35, 12, 37]",
        "roots: 4, 3",
        "hypotenuse: 5",
        "integral: [3, 4, 5]",
    ]


FERMAT_DEMO_TEXT = """\
Fermat's triple: [4565486027761, 1061652293520, 4687298610289]
primary generator: 246792/2150905
regression to the root (41 steps):
  A 246792/1657321
  A 246792/1163737
  A 246792/670153
  B 176569/246792
  C 106346/176569
  C 36123/106346
  B 34100/36123
  C 32077/34100
  C 30054/32077
  C 28031/30054
  C 26008/28031
  C 23985/26008
  C 21962/23985
  C 19939/21962
  C 17916/19939
  C 15893/17916
  C 13870/15893
  C 11847/13870
  C 9824/11847
  C 7801/9824
  C 5778/7801
  C 3755/5778
  C 1732/3755
  B 291/1732
  A 291/1150
  A 291/568
  C 14/291
  A 14/263
  A 14/235
  A 14/207
  A 14/179
  A 14/151
  A 14/123
  A 14/95
  A 14/67
  A 14/39
  B 11/14
  C 8/11
  C 5/8
  C 2/5
  B 1/2
code: BCCCBAAAAAAAAACAABCCCCCCCCCCCCCCCCBCCBAAA
path: BCCCB AAAAAAAAA CAAB CCCCCCCCCCCCCCCC BCCB AAA (5 + 9 + 4 + 16 + 4 + 3 = 41)
class: T6
major anti-derivative: none
minor anti-derivative: none
"""


def test_fermat_demo_text(cli):
    code, out, _ = cli("fermat-demo")
    assert code == 0
    assert out == FERMAT_DEMO_TEXT


# ------------------------------------------------- payload values on the wire


def test_wire_and_text_render_every_payload_value():
    big = 10**5000  # past the int-to-str digit limit, which run() lifts
    payload = {
        "triple": make_ppt(3, 4, 5),
        "proper": Fraction(6, 35),
        "integral": Fraction(4, 2),
        "surd": QuadraticSurd(5, -7, 2),
        "collapsed": QuadraticSurd(1, 4, 2),
        "root": PathCode(),
        "path": PathCode.parse("AA C^3"),
        "key": KeySequence(1, 1, 2, 3),
        "class": TClass.T4,
        "kind": DerivativeKind.MINOR,
        "line": FamilyLine.FERMAT,
        "none": None,
        "letter": "b",
        "nested": [(1, Fraction(1, 2)), {"r1": 1, "t": [make_ppt(5, 12, 13)]}],
        "big": big,
    }
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        wired = _wire(payload)
        texts = {key: _text(value) for key, value in payload.items()}
    finally:
        sys.set_int_max_str_digits(limit)
    digits = "1" + "0" * 5000
    assert wired == {
        "triple": {"a": "3", "b": "4", "c": "5"},
        "proper": "6/35",
        "integral": "2",
        "surd": "(5 + sqrt(-7))/2",
        "collapsed": "3/2",
        "root": "",
        "path": "AACCC",
        "key": "[1,1,2,3]",
        "class": "T4",
        "kind": "minor",
        "line": "fermat",
        "none": None,
        "letter": "b",
        "nested": [["1", "1/2"], {"r1": "1", "t": [{"a": "5", "b": "12", "c": "13"}]}],
        "big": digits,
    }
    assert json.loads(json.dumps(wired)) == wired
    assert texts == {
        "triple": "[3, 4, 5]",
        "proper": "6/35",
        "integral": "2",
        "surd": "(5 + sqrt(-7))/2",
        "collapsed": "3/2",
        "root": "(root)",
        "path": "AACCC",
        "key": "[1,1,2,3]",
        "class": "T4",
        "kind": "minor",
        "line": "fermat",
        "none": "none",
        "letter": "b",
        "nested": "1, 1/2, r1=1 t=[5, 12, 13]",
        "big": digits,
    }


# ----------------------------------------------------------------- JSON mode


def test_info_json_round_trip(cli):
    code, out, _ = cli("info", "5", "12", "13", "--json")
    assert code == 0
    payload = json.loads(out)
    t = make_ppt(5, 12, 13)
    rebuilt = make_ppt(*(int(payload["triple"][k]) for k in "abc"))
    assert rebuilt == t
    assert parse_fraction(payload["primary_generator"]) == generators_of(t)[0]
    assert parse_key_sequence(payload["key_sequence"]) is not None
    assert PathCode.parse(payload["path"]) == locate(generators_of(t)[0])
    assert Fraction(payload["harmonic_square"]) == Fraction(60, 17)
    assert list(payload) == [
        "triple",
        "primary_generator",
        "secondary_generator",
        "key_sequence",
        "radii",
        "class",
        "harmonic_square",
        "symphonic_square",
        "altitude",
        "path",
        "depth",
    ]


def test_derive_json_round_trip(cli):
    code, out, _ = cli("derive", "--major", "3", "4", "5", "--json")
    payload = json.loads(out)
    d = make_ppt(*(int(payload["derivative"][k]) for k in "abc"))
    assert d == major_derivative(make_ppt(3, 4, 5))
    assert payload["kind"] == "major"


def test_locate_json_round_trip(cli):
    code, out, _ = cli("locate", "246792/2150905", "--json")
    payload = json.loads(out)
    f = parse_fraction(payload["generator"])
    code_obj = PathCode.parse(payload["path"])
    assert code_obj == PathCode.parse(payload["runs"]) == locate(f)
    assert int(payload["length"]) == 41
    assert apply_path(Fraction(1, 2), code_obj) == f


def test_path_json_round_trip(cli):
    code, out, _ = cli("path", "AACAA", "--json")
    payload = json.loads(out)
    f = parse_fraction(payload["generator"])
    assert f == Fraction(6, 35)
    assert make_ppt(*(int(payload["triple"][k]) for k in "abc")) == triple_from_primary(f)


def test_fermat_demo_json(cli):
    code, out, _ = cli("fermat-demo", "--json")
    payload = json.loads(out)
    assert payload["generator"] == "246792/2150905"
    assert payload["blocks"] == ["BCCCB", "AAAAAAAAA", "CAAB", "C" * 16, "BCCB", "AAA"]
    assert "".join(payload["blocks"]) == payload["path"]
    assert payload["block_lengths"] == ["5", "9", "4", "16", "4", "3"]
    assert len(payload["regression"]) == 41
    assert payload["regression"][0] == {"letter": "A", "fraction": "246792/1657321"}
    assert payload["regression"][-1] == {"letter": "B", "fraction": "1/2"}
    assert payload["class"] == "T6"
    assert payload["major_integral"] is None and payload["minor_integral"] is None


def test_codes_longer_than_sys_maxsize(cli):
    code, out, _ = cli("path", "C^99999999999999999999", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["path"] == "C^99999999999999999999"
    assert payload["length"] == "99999999999999999999"
    assert parse_fraction(payload["generator"]) == Fraction(10**20, 10**20 + 1)

    code, out, _ = cli("locate", "99999999999999999999/100000000000000000000", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["path"] == payload["runs"] == "C^99999999999999999998"
    assert payload["length"] == "99999999999999999998"

    code, out, _ = cli("family", "fermat", "2000", "--derive", "minor", "--json")
    payload = json.loads(out)
    assert code == 0
    derived = PathCode.parse(payload["derivative_path"])
    assert derived.length > sys.maxsize
    assert apply_path(Fraction(1, 2), derived) == parse_fraction(payload["derivative_generator"])


def test_values_past_the_int_digit_limit(cli):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, raw, _ = cli("path", "B^13100", "--json")
    assert code == 0
    payload = json.loads(raw)
    sides = [payload["triple"][k] for k in "abc"]
    assert len(sides[2]) >= 10**4
    code, out, _ = cli("path", "B^13100")
    assert code == 0
    assert out.splitlines() == [
        "path: B^13100",
        "length: 13100",
        f"generator: {payload['generator']}",
        f"triple: [{', '.join(sides)}]",
    ]

    code, raw, _ = cli("locate", *sides, "--json")
    assert code == 0
    located = json.loads(raw)
    assert located["triple"] == payload["triple"]
    assert located["generator"] == payload["generator"]
    assert located["path"] == located["runs"] == "B^13100"

    code, out, _ = cli("info", *sides)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"triple: [{', '.join(sides)}]"
    assert lines[1] == f"primary generator: {payload['generator']}"
    assert lines[-2:] == ["path: B^13100", "depth: 13100"]
    # run() lifts the digit limit only for its own call.
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_json_is_a_single_object(cli):
    code, out, _ = cli("children", "3", "4", "5", "--json")
    payload = json.loads(out)
    assert isinstance(payload, dict)
    assert out.startswith("{\n")


# ------------------------------------------------- text/JSON value agreement


FERMAT = ("4565486027761", "1061652293520", "4687298610289")

AGREEMENT_CASES = [
    *(["info", *map(str, sides)] for sides in [
        (3, 4, 5), (5, 12, 13), (15, 8, 17), (7, 24, 25), (21, 20, 29), (119, 120, 169),
    ]),
    ["info", *FERMAT],
    *(["derive", flag, *map(str, sides)]
      for flag in ("--major", "--minor")
      for sides in [(3, 4, 5), (5, 12, 13), (15, 8, 17), (21, 20, 29)]),
    *(["antiderive", flag, *map(str, sides)]
      for flag in ("--major", "--minor")
      for sides in [(15, 8, 17), (35, 12, 37), (5, 12, 13), (221, 60, 229)]),
    ["locate", "6/35"],
    ["locate", "1/2"],
    ["locate", "4/23"],
    ["locate", "246792/2150905"],
    ["locate", "3", "4", "5"],
    ["locate", "33", "56", "65"],
    ["path", "AACAA"],
    ["path", "C^13"],
    ["path", "AA C^16 B"],
    ["path", "BCCCB"],
    ["path", "C^99999999999999999999"],
    ["path", "B^6000"],
    ["locate", "99999999999999999999/100000000000000000000"],
    *(["children", *map(str, sides)] for sides in [(3, 4, 5), (15, 8, 17), (5, 12, 13)]),
    *(["level", str(n)] for n in range(4)),
    *(["classify", *map(str, sides)]
      for sides in [(3, 4, 5), (7, 24, 25), (15, 8, 17), (5, 12, 13), (21, 20, 29), (11, 60, 61)]),
    *(["squares", *map(str, sides)] for sides in [(3, 4, 5), (5, 12, 13), (15, 8, 17)]),
    *(["family", line, "1"] for line in ("platonic", "pythagorean", "fermat")),
    *(["family", line, "4"] for line in ("platonic", "pythagorean", "fermat")),
    *(["family", line, "2", "--derive", kind]
      for line in ("platonic", "pythagorean", "fermat")
      for kind in ("major", "minor")),
    ["family", "fermat", "2000", "--derive", "minor"],
    ["fermat-demo"],
]


def _string_leaves(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _string_leaves(v)
    elif isinstance(value, list):
        for v in value:
            yield from _string_leaves(v)
    elif value is not None:
        raise AssertionError(f"JSON leaf is not a string: {value!r}")


def test_agreement_corpus_is_large_enough():
    assert len(AGREEMENT_CASES) >= 50


@pytest.mark.parametrize("argv", AGREEMENT_CASES, ids=lambda argv: " ".join(argv))
def test_text_and_json_agree(cli, argv):
    code_text, text, _ = cli(*argv)
    code_json, raw, _ = cli(*argv, "--json")
    assert code_text == code_json == 0
    payload = json.loads(raw)
    for leaf in _string_leaves(payload):
        assert leaf in text


# ------------------------------------------------------------------- errors


DOMAIN_ERRORS = [
    (["info", "3", "4", "6"], "NotATriple"),
    (["info", "6", "8", "10"], "NotPrimitive"),
    (["locate", "1/3"], "NotInPrimaryTree"),
    (["locate", "5/3"], "ValueError"),
    (["locate", "1", "2"], "ValueError"),
    (["path", "AD"], "ValueError"),
    (["family", "platonic", "1", "--derive", "major"], "DegenerateIndex"),
    (["family", "platonic", "0"], "ValueError"),
    (["level", "13"], "ValueError"),
    (["level", "3", "--max-depth", "2"], "ValueError"),
    (["path", "A^\u0663"], "ValueError"),
    (["path", "A\u3000B"], "ValueError"),
]


@pytest.mark.parametrize("argv,name", DOMAIN_ERRORS)
def test_domain_errors(cli, argv, name):
    code, out, err = cli(*argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"{name}: ")


def test_level_cap_override(cli):
    code, out, _ = cli("level", "3", "--max-depth", "3")
    assert code == 0
    assert out.splitlines()[0] == "level 3: 27 triples"


def test_usage_errors_exit_2(cli):
    assert cli()[0] == 2
    assert cli("bogus")[0] == 2
    assert cli("derive", "3", "4", "5")[0] == 2  # missing --major/--minor


def test_help_exits_zero(cli):
    assert cli("--help")[0] == 0
    assert cli("locate", "--help")[0] == 0


# ------------------------------------------------------------ the verb table


VERBS = ["info", "derive", "antiderive", "locate", "path", "children", "level", "classify", "squares", "family",
         "fermat-demo"]

# One request that runs and one bad value per verb, the latter a usage error (exit 2).
VERB_CASES = {
    "info": (["5", "12", "13"], ["3", "4", "x"]),
    "derive": (["--minor", "3", "4", "5"], ["3", "4", "5"]),
    "antiderive": (["--major", "35", "12", "37"], ["--major", "--minor", "35", "12", "37"]),
    "locate": (["6/35"], ["6/35", "--max-depth", "3"]),
    "path": (["AACAA"], ["A", "B"]),
    "children": (["3", "4", "5"], ["3", "4"]),
    "level": (["2", "--json"], ["x"]),
    "classify": (["5", "12", "13"], ["3", "4", "5", "6"]),
    "squares": (["3", "4", "5"], ["--json", "x", "4", "5"]),
    "family": (["fermat", "2", "--derive", "minor"], ["bogus", "1"]),
    "fermat-demo": (["--json"], ["x"]),
}

# (argv, exit status): help exits 0 and a usage error 2.
PARSER_CASES = [
    ([], 2), (["--help"], 0), (["bogus"], 2), (["--json"], 2),
    *(([verb, "--help"], 0) for verb in VERBS),
    *(([verb], 0 if verb == "fermat-demo" else 2) for verb in VERBS),
    *(([verb, *good], 0) for verb, (good, _) in VERB_CASES.items()),
    *(([verb, *bad], 2) for verb, (_, bad) in VERB_CASES.items()),
]


def _argv_id(value) -> str:
    return " ".join(value) or "(none)" if isinstance(value, list) else str(value)


def test_the_table_holds_every_verb_in_help_order():
    assert list(cli_module._VERBS) == VERBS == list(VERB_CASES)


@pytest.mark.parametrize("argv,status", PARSER_CASES, ids=_argv_id)
def test_the_named_verbs_parser_answers_as_the_full_parser(cli, monkeypatch, argv, status):
    # The goldens leave argparse's own text out, so help, usage errors and results are compared
    # here with those of the parser that holds every verb of the table.
    got = cli(*argv)
    build = cli_module._parser
    monkeypatch.setattr(cli_module, "_parser", lambda argv: build([]))
    assert got == cli(*argv)
    assert got[0] == status and got[1] + got[2]


@pytest.mark.parametrize("argv,added", [(["info", "3", "4", "5"], 1), (["--help"], 11), (["bogus"], 11)], ids=_argv_id)
def test_a_request_builds_only_its_verbs_parser(cli, monkeypatch, argv, added):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    cli(*argv)
    assert len(calls) == added


@pytest.mark.parametrize("argv,reads", [
    (["derive", "--major", "3", "4", "5"], 1),
    (["derive", "--minor", "4565486027761", "1061652293520", "4687298610289"], 1),
    (["derive", "--major", "119", "120", "169", "--json"], 1),
    (["family", "fermat", "40", "--derive", "minor"], 0),
    (["family", "pythagorean", "40", "--derive", "major", "--json"], 0),
], ids=_argv_id)
def test_requests_read_a_generator_pair_from_sides_at_most_once(cli, monkeypatch, argv, reads):
    # derive maps the input's pair and builds the derivative from the pair it gets;
    # family --derive maps the member's generator, which is in hand.
    triples = []
    for module in generators, symphonic, tree:
        def counted(t, read=module._generator_pair):
            triples.append(t)
            return read(t)

        monkeypatch.setattr(module, "_generator_pair", counted)
    code, out, _ = cli(*argv)
    assert code == 0 and out
    assert len(triples) == reads


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "pptalgebra", "info", "3", "4", "5"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert "triple: [3, 4, 5]" in result.stdout
