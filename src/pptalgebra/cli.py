"""Command-line front end: inspect triples, walk the tree, take derivatives.

Every verb takes --json to emit a single JSON object instead of text.  A verb's
payload holds library values, and --json converts them once, in _wire: values are
decimal strings (sides routinely exceed 64 bits), fractions are "q/p", and path codes
use the same letters/run-length format parse() accepts, so output round-trips
losslessly.  A verb is a generator: it yields its payload, and then, only when text is
asked for, renders the same values as text lines through _text.

Each verb is declared once, by the @_verb line above its handler: its name, help and
argument spec go into the table _VERBS, and run() calls the handler with the parsed
arguments as keywords.  _parser builds the `ppt` parser from that table, with only the
verb a request names, or with every verb when it names none (as for `ppt --help`).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterator
from itertools import accumulate

from .triple_core import (
    PPT,
    altitude_kappa,
    classify,
    divisibility_witness,
    make_ppt,
)
from .generators import (
    generators_of,
    key_sequence_of,
    parse_fraction,
    radii,
    triple_from_primary,
)
from .tree import (
    Family,
    FamilyLine,
    PathCode,
    ROOT_GENERATOR,
    apply_path,
    children,
    derivative_location,
    derive_generator,
    enumerate_level,
    family_generator,
    locate,
    step,
)
from .symphonic import (
    DerivativeKind,
    anti_derivative,
    corollary_generators,
    factor_class_transition,
    inscribed_squares,
    integer_square_scale,
    is_derivative,
    reciprocal_triple,
)

_FERMAT_SIDES = (4565486027761, 1061652293520, 4687298610289)

# Display grouping of the 41-letter path to Fermat's triple.  The split is cosmetic;
# fermat_demo() fails loudly if the blocks ever stop making up the located letters.
_FERMAT_BLOCK_LENGTHS = (5, 9, 4, 16, 4, 3)


def _wire(value):
    """JSON form of a payload value: a triple as {"a", "b", "c"}, a list, tuple or dict
    member by member, None and strings as they are, anything else as its str()."""
    if isinstance(value, PPT):
        return {"a": str(value.a), "b": str(value.b), "c": str(value.c)}
    if isinstance(value, dict):
        return {key: _wire(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_wire(v) for v in value]
    return value if value is None or isinstance(value, str) else str(value)


def _text(value) -> str:
    """Text form of a payload value: a dict as k=v pairs, a list or tuple joined by commas, None
    as "none", the empty path as "(root)", anything else (a triple as [a, b, c]) as its str()."""
    if isinstance(value, dict):
        return " ".join(f"{k}={_text(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return ", ".join(map(_text, value))
    return "none" if value is None else str(value) or "(root)"


def _lines(payload: dict, *keys: str) -> list[str]:
    """One "key with spaces: value" line per field; every field when no keys are given."""
    return [f"{key.replace('_', ' ')}: {_text(payload[key])}" for key in keys or payload]


# Each verb's handler, help and argument spec, in the order `ppt --help` lists them.  An
# argument is the (names, options) of one add_argument call, or DerivativeKind for the
# required choice of --major or --minor.
_VERBS: dict[str, tuple[Callable[..., Iterator[dict | str]], str, tuple]] = {}


def _arg(*names: str, **options) -> tuple:
    return names, options


_SIDES = _arg("sides", nargs=3, type=int, metavar="side", help="the three sides, any leg order")


def _verb(name: str, help_: str, *spec: tuple) -> Callable:
    """Enter the decorated handler in _VERBS as verb `name`, taking the arguments in `spec`."""

    def declare(handler):
        _VERBS[name] = handler, help_, spec
        return handler

    return declare


@_verb("info", "generators, key sequence, radii, squares and class of a triple", _SIDES)
def _cmd_info(triple: PPT) -> Iterator[dict | str]:
    key = key_sequence_of(triple)
    r = radii(key)
    sq = inscribed_squares(triple)
    code = locate(key.primary)
    payload = {
        "triple": triple,
        "primary_generator": key.primary,
        "secondary_generator": key.secondary,
        "key_sequence": key,
        "radii": {"r1": r.r1, "r2": r.r2, "r3": r.r3, "r4": r.r4},
        "class": classify(triple),
        "harmonic_square": sq.h,
        "symphonic_square": sq.s,
        "altitude": altitude_kappa(triple),
        "path": code,
        "depth": code.length,
    }
    yield payload
    yield from _lines(payload)


@_verb("derive", "major or minor derivative of a triple", DerivativeKind, _SIDES)
def _cmd_derive(triple: PPT, kind: DerivativeKind) -> Iterator[dict | str]:
    d1, d2 = corollary_generators(triple, kind)
    d = triple_from_primary(d1)
    payload = {
        "kind": kind,
        "triple": triple,
        "derivative": d,
        "primary_generator": d1,
        "secondary_generator": d2,
        "class": classify(d),
        "path": locate(d1),
    }
    yield payload
    yield f"{_text(triple)} --{_text(kind)}--> {_text(d)}"
    yield from _lines(payload, "primary_generator", "secondary_generator", "class", "path")


@_verb("antiderive", "exact anti-derivative (surd roots, integral triple if any)", DerivativeKind, _SIDES)
def _cmd_antiderive(triple: PPT, kind: DerivativeKind) -> Iterator[dict | str]:
    anti = anti_derivative(triple, kind)
    payload = {
        "kind": kind,
        "triple": triple,
        "roots": anti.roots,
        "hypotenuse": anti.hypotenuse,
        "integral": anti.integral,
    }
    yield payload
    yield f"anti-derivative ({_text(kind)}) of {_text(triple)}"
    yield from _lines(payload, "roots", "hypotenuse", "integral")


@_verb("locate", "path code from the root to a generator or triple",
       _arg("target", nargs="+", help='a fraction "q/p" or three sides'))
def _cmd_locate(target: list[str]) -> Iterator[dict | str]:
    payload: dict = {}
    if len(target) == 1:
        f = parse_fraction(target[0])
    elif len(target) == 3:
        t = payload["triple"] = make_ppt(*(int(side) for side in target))
        f = generators_of(t)[0]
    else:
        raise ValueError("locate takes a fraction q/p or three sides")
    code = locate(f)
    payload["generator"] = f
    payload["path"] = code
    payload["length"] = code.length
    payload["runs"] = code.compact()
    yield payload
    yield from _lines(payload)


@_verb("path", "follow a path code down from the root",
       _arg("code", help='letters like AACAA; run-length tokens like "C^16" are accepted'))
def _cmd_path(code: str) -> Iterator[dict | str]:
    path = PathCode.parse(code)
    f = apply_path(ROOT_GENERATOR, path)
    payload = {
        "path": path,
        "length": path.length,
        "generator": f,
        "triple": triple_from_primary(f),
    }
    yield payload
    yield from _lines(payload)


@_verb("children", "the three successors of a triple", _SIDES)
def _cmd_children(triple: PPT) -> Iterator[dict | str]:
    left, middle, right = children(triple)
    payload = {
        "triple": triple,
        "left": left,
        "middle": middle,
        "right": right,
    }
    yield payload
    yield f"children of {_text(triple)}"
    yield from (f"{key + ':':<7} {_text(payload[key])}" for key in ("left", "middle", "right"))


@_verb("level", "all triples on one tree level", _arg("depth", type=int, help="tree level (root is 0)"),
       _arg("--max-depth", type=int, default=12, help="safety cap on the level (default 12; level n holds 3^n triples)"))
def _cmd_level(depth: int, max_depth: int) -> Iterator[dict | str]:
    if depth > max_depth:
        raise ValueError(f"level {depth} exceeds the cap {max_depth}; raise --max-depth to allow it")
    triples = enumerate_level(depth)
    payload = {
        "level": depth,
        "count": len(triples),
        "triples": triples,
    }
    yield payload
    yield f"level {_text(depth)}: {_text(len(triples))} triples"
    yield from (f"  {_text(t)}" for t in triples)


@_verb("classify", "divisibility class and guaranteed factors", _SIDES)
def _cmd_classify(triple: PPT) -> Iterator[dict | str]:
    witness = divisibility_witness(triple)
    original, derived = factor_class_transition(triple)
    payload = {
        "triple": triple,
        "class": original,
        "three_divides": witness.three_divides,
        "four_divides": "b",
        "five_divides": witness.five_divides,
        "derivative_class": derived,
    }
    yield payload
    yield f"{_text(triple)}: class {_text(original)}"
    yield f"3 divides {witness.three_divides}; 4 divides b; 5 divides {witness.five_divides}"
    yield f"derivatives land in {_text(derived)}"


@_verb("squares", "inscribed squares, reciprocal triple, integer scaling", _SIDES)
def _cmd_squares(triple: PPT) -> Iterator[dict | str]:
    sq = inscribed_squares(triple)
    scale = integer_square_scale(triple)
    payload = {
        "triple": triple,
        "harmonic_square": sq.h,
        "symphonic_square": sq.s,
        "reciprocal_triple": reciprocal_triple(triple),
        "scale": scale.scale,
        "scaled_triple": dict(zip("abc", scale.scaled)),
        "scaled_harmonic": scale.h,
        "scaled_symphonic": scale.s,
    }
    yield payload
    yield from _lines(payload, "triple", "harmonic_square", "symphonic_square", "reciprocal_triple")
    yield f"integer scale: {_text(scale.scale)}"
    yield f"scaled: [{_text(scale.scaled)}] with h={_text(scale.h)} s={_text(scale.s)}"


@_verb("family", "the classical families and their derivative locations",
       _arg("line", choices=[line.value for line in FamilyLine]),
       _arg("index", type=int, help="1-based member index"),
       _arg("--derive", choices=[kind.value for kind in DerivativeKind]))
def _cmd_family(line: str, index: int, derive: str | None) -> Iterator[dict | str]:
    fam = Family(FamilyLine(line), index)
    gen = family_generator(fam)
    member = triple_from_primary(gen)
    payload = {
        "family": fam.line,
        "index": fam.index,
        "path": fam.path_code,
        "generator": gen,
        "triple": member,
    }
    if derive is not None:
        kind = DerivativeKind(derive)
        d_gen = derive_generator(gen, kind)
        payload |= {
            "derive": kind,
            "derivative": triple_from_primary(d_gen),
            "derivative_generator": d_gen,
            "derivative_path": derivative_location(fam, kind),
        }
    yield payload
    yield f"{_text(fam.line)} family, member {_text(fam.index)}"
    yield from _lines(payload, "path", "generator", "triple")
    if derive is not None:
        yield f"{_text(kind)} derivative: {_text(payload['derivative'])}"
        yield from _lines(payload, "derivative_generator", "derivative_path")


@_verb("fermat-demo", "reproduce the location of Fermat's 13-digit triple")
def _cmd_fermat_demo() -> Iterator[dict | str]:
    t = make_ppt(*_FERMAT_SIDES)
    f = generators_of(t)[0]
    letters = locate(f).letters()
    # Walk the path down from the root; rows go bottom first, each letter with the generator its step leaves.
    starts = accumulate(letters, step, initial=ROOT_GENERATOR)
    rows = [{"letter": letter, "fraction": start} for letter, start in zip(letters, starts)][::-1]
    blocks = [letters[end - n : end] for n, end in zip(_FERMAT_BLOCK_LENGTHS, accumulate(_FERMAT_BLOCK_LENGTHS))]
    if "".join(blocks) != letters:
        raise AssertionError("path-code block structure out of sync with the located path")
    payload = {
        "triple": t,
        "generator": f,
        "regression": rows,
        "path": letters,
        "blocks": blocks,
        "block_lengths": _FERMAT_BLOCK_LENGTHS,
        "length": len(letters),
        "class": classify(t),
        "major_integral": is_derivative(t, DerivativeKind.MAJOR),
        "minor_integral": is_derivative(t, DerivativeKind.MINOR),
    }
    yield payload
    yield f"Fermat's triple: {_text(t)}"
    yield f"primary generator: {_text(f)}"
    yield f"regression to the root ({_text(len(letters))} steps):"
    yield from (f"  {row['letter']} {_text(row['fraction'])}" for row in rows)
    yield f"code: {letters}"
    yield f"path: {' '.join(blocks)} ({' + '.join(map(_text, _FERMAT_BLOCK_LENGTHS))} = {_text(len(letters))})"
    yield f"class: {_text(payload['class'])}"
    yield f"major anti-derivative: {_text(payload['major_integral'])}"
    yield f"minor anti-derivative: {_text(payload['minor_integral'])}"


def fermat_demo() -> dict:
    """End-to-end reproduction for the 13-digit triple Fermat found, in its JSON form.

    Validates the triple, locates its primary generator (41 letters, displayed in blocks
    of 5+9+4+16+4+3), walks that path down from the root recording the generator each
    step starts from, classifies it, and shows it is neither a major nor a minor derivative.
    """
    return _wire(next(_cmd_fermat_demo()))


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """The `ppt` parser with the one verb argv[0] names, or with every verb if it names none."""
    parser = argparse.ArgumentParser(prog="ppt", description="Exact algebra of primitive Pythagorean triples.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for name in argv[:1] if argv and argv[0] in _VERBS else _VERBS:
        help_, spec = _VERBS[name][1:]
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        for arg in spec:
            if arg is DerivativeKind:
                group = p.add_mutually_exclusive_group(required=True)
                for kind in DerivativeKind:
                    group.add_argument(f"--{kind}", dest="kind", action="store_const", const=kind)
            else:
                p.add_argument(*arg[0], **arg[1])
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute one verb; returns the process exit status.

    CPython 3.10.7+ refuses int<->str conversions past 4300 digits.  The
    limit is lifted for the call, so sides and results of any size parse and
    print in full, and the caller's limit is restored on return.
    """
    argv = sys.argv[1:] if argv is None else argv
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            fields = vars(_parser(argv).parse_args(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        handler, as_json = _VERBS[fields.pop("verb")][0], fields.pop("json")
        try:
            if "sides" in fields:
                fields["triple"] = make_ppt(*fields.pop("sides"))
            lines = handler(**fields)
            payload = next(lines)  # every check runs before the payload is yielded
        except ValueError as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        if as_json:
            import json  # only here: text requests need not pay for importing it
        print(json.dumps(_wire(payload), indent=2) if as_json else "\n".join(lines))
        return 0
    finally:
        sys.set_int_max_str_digits(previous)


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()  # a reader that closed the pipe early shows here, not at exit
    except BrokenPipeError:  # as in `ppt level 9 | head -1`: exit 1 quietly, the rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)


if __name__ == "__main__":
    main()
