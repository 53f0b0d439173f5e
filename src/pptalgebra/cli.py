"""Command-line front end: inspect triples, walk the tree, take derivatives.

Every verb takes --json to emit a single JSON object instead of text.  A verb's
payload holds library values, and --json converts them once, in _wire: values are
decimal strings (sides routinely exceed 64 bits), fractions are "q/p", and path codes
use the same letters/run-length format parse() accepts, so output round-trips
losslessly.  A verb is a generator: it yields its payload, and then, only when text is
asked for, renders the same values as text lines through _text.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
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
    derivative,
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


def _cmd_info(args: argparse.Namespace) -> Iterator[dict | str]:
    key = key_sequence_of(args.triple)
    r = radii(key)
    sq = inscribed_squares(args.triple)
    code = locate(key.primary)
    payload = {
        "triple": args.triple,
        "primary_generator": key.primary,
        "secondary_generator": key.secondary,
        "key_sequence": key,
        "radii": {"r1": r.r1, "r2": r.r2, "r3": r.r3, "r4": r.r4},
        "class": classify(args.triple),
        "harmonic_square": sq.h,
        "symphonic_square": sq.s,
        "altitude": altitude_kappa(args.triple),
        "path": code,
        "depth": code.length,
    }
    yield payload
    yield from _lines(payload)


def _cmd_derive(args: argparse.Namespace) -> Iterator[dict | str]:
    d = derivative(args.triple, args.kind)
    d1, d2 = generators_of(d)
    payload = {
        "kind": args.kind,
        "triple": args.triple,
        "derivative": d,
        "primary_generator": d1,
        "secondary_generator": d2,
        "class": classify(d),
        "path": locate(d1),
    }
    yield payload
    yield f"{_text(args.triple)} --{_text(args.kind)}--> {_text(d)}"
    yield from _lines(payload, "primary_generator", "secondary_generator", "class", "path")


def _cmd_antiderive(args: argparse.Namespace) -> Iterator[dict | str]:
    anti = anti_derivative(args.triple, args.kind)
    payload = {
        "kind": args.kind,
        "triple": args.triple,
        "roots": anti.roots,
        "hypotenuse": anti.hypotenuse,
        "integral": anti.integral,
    }
    yield payload
    yield f"anti-derivative ({_text(args.kind)}) of {_text(args.triple)}"
    yield from _lines(payload, "roots", "hypotenuse", "integral")


def _cmd_locate(args: argparse.Namespace) -> Iterator[dict | str]:
    payload: dict = {}
    if len(args.target) == 1:
        f = parse_fraction(args.target[0])
    elif len(args.target) == 3:
        t = payload["triple"] = make_ppt(*(int(side) for side in args.target))
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


def _cmd_path(args: argparse.Namespace) -> Iterator[dict | str]:
    code = PathCode.parse(args.code)
    f = apply_path(ROOT_GENERATOR, code)
    payload = {
        "path": code,
        "length": code.length,
        "generator": f,
        "triple": triple_from_primary(f),
    }
    yield payload
    yield from _lines(payload)


def _cmd_children(args: argparse.Namespace) -> Iterator[dict | str]:
    left, middle, right = children(args.triple)
    payload = {
        "triple": args.triple,
        "left": left,
        "middle": middle,
        "right": right,
    }
    yield payload
    yield f"children of {_text(args.triple)}"
    yield from (f"{key + ':':<7} {_text(payload[key])}" for key in ("left", "middle", "right"))


def _cmd_level(args: argparse.Namespace) -> Iterator[dict | str]:
    if args.depth > args.max_depth:
        raise ValueError(f"level {args.depth} exceeds the cap {args.max_depth}; raise --max-depth to allow it")
    triples = enumerate_level(args.depth)
    payload = {
        "level": args.depth,
        "count": len(triples),
        "triples": triples,
    }
    yield payload
    yield f"level {_text(args.depth)}: {_text(len(triples))} triples"
    yield from (f"  {_text(t)}" for t in triples)


def _cmd_classify(args: argparse.Namespace) -> Iterator[dict | str]:
    witness = divisibility_witness(args.triple)
    original, derived = factor_class_transition(args.triple)
    payload = {
        "triple": args.triple,
        "class": original,
        "three_divides": witness.three_divides,
        "four_divides": "b",
        "five_divides": witness.five_divides,
        "derivative_class": derived,
    }
    yield payload
    yield f"{_text(args.triple)}: class {_text(original)}"
    yield f"3 divides {witness.three_divides}; 4 divides b; 5 divides {witness.five_divides}"
    yield f"derivatives land in {_text(derived)}"


def _cmd_squares(args: argparse.Namespace) -> Iterator[dict | str]:
    sq = inscribed_squares(args.triple)
    scale = integer_square_scale(args.triple)
    payload = {
        "triple": args.triple,
        "harmonic_square": sq.h,
        "symphonic_square": sq.s,
        "reciprocal_triple": reciprocal_triple(args.triple),
        "scale": scale.scale,
        "scaled_triple": dict(zip("abc", scale.scaled)),
        "scaled_harmonic": scale.h,
        "scaled_symphonic": scale.s,
    }
    yield payload
    yield from _lines(payload, "triple", "harmonic_square", "symphonic_square", "reciprocal_triple")
    yield f"integer scale: {_text(scale.scale)}"
    yield f"scaled: [{_text(scale.scaled)}] with h={_text(scale.h)} s={_text(scale.s)}"


def _cmd_family(args: argparse.Namespace) -> Iterator[dict | str]:
    fam = Family(FamilyLine(args.line), args.index)
    gen = family_generator(fam)
    member = triple_from_primary(gen)
    payload = {
        "family": fam.line,
        "index": fam.index,
        "path": fam.path_code,
        "generator": gen,
        "triple": member,
    }
    if args.derive is not None:
        kind = DerivativeKind(args.derive)
        payload |= {
            "derive": kind,
            "derivative": derivative(member, kind),
            "derivative_generator": derive_generator(gen, kind),
            "derivative_path": derivative_location(fam, kind),
        }
    yield payload
    yield f"{_text(fam.line)} family, member {_text(fam.index)}"
    yield from _lines(payload, "path", "generator", "triple")
    if args.derive is not None:
        yield f"{_text(kind)} derivative: {_text(payload['derivative'])}"
        yield from _lines(payload, "derivative_generator", "derivative_path")


def _cmd_fermat_demo(args: argparse.Namespace | None) -> Iterator[dict | str]:
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
    return _wire(next(_cmd_fermat_demo(None)))


def _add_triple_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("sides", nargs=3, type=int, metavar="side", help="the three sides, any leg order")


def _add_kind_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    for kind in DerivativeKind:
        group.add_argument(f"--{kind}", dest="kind", action="store_const", const=kind)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppt",
        description="Exact algebra of primitive Pythagorean triples.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name: str, handler, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.set_defaults(handler=handler)
        return p

    p = add("info", _cmd_info, "generators, key sequence, radii, squares and class of a triple")
    _add_triple_args(p)

    p = add("derive", _cmd_derive, "major or minor derivative of a triple")
    _add_kind_flags(p)
    _add_triple_args(p)

    p = add("antiderive", _cmd_antiderive, "exact anti-derivative (surd roots, integral triple if any)")
    _add_kind_flags(p)
    _add_triple_args(p)

    p = add("locate", _cmd_locate, "path code from the root to a generator or triple")
    p.add_argument("target", nargs="+", help='a fraction "q/p" or three sides')

    p = add("path", _cmd_path, "follow a path code down from the root")
    p.add_argument("code", help='letters like AACAA; run-length tokens like "C^16" are accepted')

    p = add("children", _cmd_children, "the three successors of a triple")
    _add_triple_args(p)

    p = add("level", _cmd_level, "all triples on one tree level")
    p.add_argument("depth", type=int, help="tree level (root is 0)")
    p.add_argument(
        "--max-depth",
        type=int,
        default=12,
        help="safety cap on the level (default 12; level n holds 3^n triples)",
    )

    p = add("classify", _cmd_classify, "divisibility class and guaranteed factors")
    _add_triple_args(p)

    p = add("squares", _cmd_squares, "inscribed squares, reciprocal triple, integer scaling")
    _add_triple_args(p)

    p = add("family", _cmd_family, "the classical families and their derivative locations")
    p.add_argument("line", choices=[line.value for line in FamilyLine])
    p.add_argument("index", type=int, help="1-based member index")
    p.add_argument("--derive", choices=[kind.value for kind in DerivativeKind])

    add("fermat-demo", _cmd_fermat_demo, "reproduce the location of Fermat's 13-digit triple")

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute one verb; returns the process exit status.

    CPython 3.10.7+ refuses int<->str conversions past 4300 digits.  The
    limit is lifted for the call, so sides and results of any size parse and
    print in full, and the caller's limit is restored on return.
    """
    previous = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if previous:
        sys.set_int_max_str_digits(0)
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        try:
            if "sides" in args:
                args.triple = make_ppt(*args.sides)
            lines = args.handler(args)
            payload = next(lines)  # every check runs before the payload is yielded
        except ValueError as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        if args.json:
            import json  # only here: text requests need not pay for importing it
        print(json.dumps(_wire(payload), indent=2) if args.json else "\n".join(lines))
        return 0
    finally:
        if previous:
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
