"""Command-line front end: inspect triples, walk the tree, take derivatives.

Every verb takes --json to emit a single JSON object instead of text.  JSON
values are decimal strings (sides routinely exceed 64 bits), fractions are
"q/p", and path codes use the same letters/run-length format parse() accepts,
so output round-trips losslessly.  The text output is rendered from that same
payload, one "field: value" line per field after an optional heading.
"""

from __future__ import annotations

import argparse
import os
import sys

from .triple_core import (
    PPT,
    altitude_kappa,
    classify,
    divisibility_witness,
    make_ppt,
)
from .generators import (
    format_fraction,
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
    Root,
    apply_path,
    children,
    derivative_location,
    derive_generator,
    enumerate_level,
    family_generator,
    locate,
    parent,
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

# Display grouping of the 41-letter path to Fermat's triple.  The split is
# cosmetic; fermat_demo() rebuilds the letters from its regression and fails
# loudly if the grouped lengths ever stop matching them.
_FERMAT_BLOCK_LENGTHS = (5, 9, 4, 16, 4, 3)


def _triple_dict(t: PPT | None) -> dict[str, str] | None:
    return None if t is None else {"a": str(t.a), "b": str(t.b), "c": str(t.c)}


def _text(value) -> str:
    """Text form of a payload value: a triple as [a, b, c], any other dict as
    k=v pairs, a list joined by commas, None as "none", "" (the root) as "(root)"."""
    if isinstance(value, dict):
        if list(value) == ["a", "b", "c"]:
            return f"[{', '.join(value.values())}]"
        return " ".join(f"{k}={v}" for k, v in value.items())
    if isinstance(value, list):
        return ", ".join(map(_text, value))
    if value is None:
        return "none"
    return value or "(root)"


def _lines(payload: dict, *keys: str) -> list[str]:
    """One "key with spaces: value" line per field; every field when no keys are given."""
    return [f"{key.replace('_', ' ')}: {_text(payload[key])}" for key in keys or payload]


def _cmd_info(args: argparse.Namespace) -> tuple[dict, list[str]]:
    t = make_ppt(*args.sides)
    t1, t2 = generators_of(t)
    key = key_sequence_of(t)
    r = radii(key)
    sq = inscribed_squares(t)
    code = locate(t1)
    payload = {
        "triple": _triple_dict(t),
        "primary_generator": format_fraction(t1),
        "secondary_generator": format_fraction(t2),
        "key_sequence": str(key),
        "radii": {"r1": str(r.r1), "r2": str(r.r2), "r3": str(r.r3), "r4": str(r.r4)},
        "class": str(classify(t)),
        "harmonic_square": str(sq.h),
        "symphonic_square": str(sq.s),
        "altitude": str(altitude_kappa(t)),
        "path": str(code),
        "depth": str(code.length),
    }
    return payload, _lines(payload)


def _cmd_derive(args: argparse.Namespace) -> tuple[dict, list[str]]:
    t = make_ppt(*args.sides)
    d = derivative(t, args.kind)
    d1, d2 = generators_of(d)
    payload = {
        "kind": args.kind.value,
        "triple": _triple_dict(t),
        "derivative": _triple_dict(d),
        "primary_generator": format_fraction(d1),
        "secondary_generator": format_fraction(d2),
        "class": str(classify(d)),
        "path": str(locate(d1)),
    }
    heading = f"{_text(payload['triple'])} --{payload['kind']}--> {_text(payload['derivative'])}"
    return payload, [heading, *_lines(payload, "primary_generator", "secondary_generator", "class", "path")]


def _cmd_antiderive(args: argparse.Namespace) -> tuple[dict, list[str]]:
    t = make_ppt(*args.sides)
    anti = anti_derivative(t, args.kind)
    payload = {
        "kind": args.kind.value,
        "triple": _triple_dict(t),
        "roots": [str(anti.roots[0]), str(anti.roots[1])],
        "hypotenuse": str(anti.hypotenuse),
        "integral": _triple_dict(anti.integral),
    }
    heading = f"anti-derivative ({payload['kind']}) of {_text(payload['triple'])}"
    return payload, [heading, *_lines(payload, "roots", "hypotenuse", "integral")]


def _cmd_locate(args: argparse.Namespace) -> tuple[dict, list[str]]:
    payload: dict = {}
    if len(args.target) == 1:
        f = parse_fraction(args.target[0])
    elif len(args.target) == 3:
        t = make_ppt(*(int(side) for side in args.target))
        payload["triple"] = _triple_dict(t)
        f = generators_of(t)[0]
    else:
        raise ValueError("locate takes a fraction q/p or three sides")
    code = locate(f)
    payload["generator"] = format_fraction(f)
    payload["path"] = str(code)
    payload["length"] = str(code.length)
    payload["runs"] = code.compact()
    return payload, _lines(payload)


def _cmd_path(args: argparse.Namespace) -> tuple[dict, list[str]]:
    code = PathCode.parse(args.code)
    f = apply_path(ROOT_GENERATOR, code)
    payload = {
        "path": str(code),
        "length": str(code.length),
        "generator": format_fraction(f),
        "triple": _triple_dict(triple_from_primary(f)),
    }
    return payload, _lines(payload)


def _cmd_children(args: argparse.Namespace) -> tuple[dict, list[str]]:
    t = make_ppt(*args.sides)
    left, middle, right = children(t)
    payload = {
        "triple": _triple_dict(t),
        "left": _triple_dict(left),
        "middle": _triple_dict(middle),
        "right": _triple_dict(right),
    }
    lines = [f"children of {_text(payload['triple'])}"]
    lines.extend(f"{key + ':':<7} {_text(payload[key])}" for key in ("left", "middle", "right"))
    return payload, lines


def _cmd_level(args: argparse.Namespace) -> tuple[dict, list[str]]:
    if args.depth > args.max_depth:
        raise ValueError(
            f"level {args.depth} exceeds the cap {args.max_depth};"
            " raise --max-depth to allow it"
        )
    triples = enumerate_level(args.depth)
    payload = {
        "level": str(args.depth),
        "count": str(len(triples)),
        "triples": [_triple_dict(t) for t in triples],
    }
    lines = [f"level {payload['level']}: {payload['count']} triples"]
    lines.extend(f"  {_text(t)}" for t in payload["triples"])
    return payload, lines


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, list[str]]:
    t = make_ppt(*args.sides)
    witness = divisibility_witness(t)
    original, derived = factor_class_transition(t)
    payload = {
        "triple": _triple_dict(t),
        "class": str(original),
        "three_divides": witness.three_divides,
        "four_divides": "b",
        "five_divides": witness.five_divides,
        "derivative_class": str(derived),
    }
    lines = [
        f"{_text(payload['triple'])}: class {payload['class']}",
        f"3 divides {payload['three_divides']}; 4 divides {payload['four_divides']};"
        f" 5 divides {payload['five_divides']}",
        f"derivatives land in {payload['derivative_class']}",
    ]
    return payload, lines


def _cmd_squares(args: argparse.Namespace) -> tuple[dict, list[str]]:
    t = make_ppt(*args.sides)
    sq = inscribed_squares(t)
    scale = integer_square_scale(t)
    payload = {
        "triple": _triple_dict(t),
        "harmonic_square": str(sq.h),
        "symphonic_square": str(sq.s),
        "reciprocal_triple": [str(x) for x in reciprocal_triple(t)],
        "scale": str(scale.scale),
        "scaled_triple": dict(zip("abc", (str(v) for v in scale.scaled))),
        "scaled_harmonic": str(scale.h),
        "scaled_symphonic": str(scale.s),
    }
    lines = _lines(payload, "triple", "harmonic_square", "symphonic_square", "reciprocal_triple")
    lines += [
        f"integer scale: {payload['scale']}",
        f"scaled: {_text(payload['scaled_triple'])}"
        f" with h={payload['scaled_harmonic']} s={payload['scaled_symphonic']}",
    ]
    return payload, lines


def _cmd_family(args: argparse.Namespace) -> tuple[dict, list[str]]:
    fam = Family(FamilyLine(args.line), args.index)
    gen = family_generator(fam)
    member = triple_from_primary(gen)
    payload = {
        "family": fam.line.value,
        "index": str(fam.index),
        "path": str(fam.path_code),
        "generator": format_fraction(gen),
        "triple": _triple_dict(member),
    }
    lines = [f"{payload['family']} family, member {payload['index']}"]
    lines += _lines(payload, "path", "generator", "triple")
    if args.derive is not None:
        kind = DerivativeKind(args.derive)
        payload.update(
            {
                "derive": kind.value,
                "derivative": _triple_dict(derivative(member, kind)),
                "derivative_generator": format_fraction(derive_generator(gen, kind)),
                "derivative_path": str(derivative_location(fam, kind)),
            }
        )
        lines.append(f"{payload['derive']} derivative: {_text(payload['derivative'])}")
        lines += _lines(payload, "derivative_generator", "derivative_path")
    return payload, lines


def fermat_demo() -> dict:
    """End-to-end reproduction for the 13-digit triple Fermat found.

    Validates the triple, reads off its primary generator, regresses it to
    the root recording every intermediate fraction, reads its path off that
    regression (41 letters, displayed in blocks of 5+9+4+16+4+3), classifies
    it, and shows it is neither a major nor a minor derivative.
    """
    t = make_ppt(*_FERMAT_SIDES)
    f = generators_of(t)[0]
    steps = []
    cur = f
    while True:
        up = parent(cur)
        if isinstance(up, Root):
            break
        cur, letter = up
        steps.append({"letter": letter, "fraction": format_fraction(cur)})
    letters = "".join(row["letter"] for row in reversed(steps))
    blocks = []
    start = 0
    for length in _FERMAT_BLOCK_LENGTHS:
        blocks.append(letters[start : start + length])
        start += length
    if start != len(letters):
        raise AssertionError("path-code block structure out of sync with the located path")
    return {
        "triple": _triple_dict(t),
        "generator": format_fraction(f),
        "regression": steps,
        "path": letters,
        "blocks": blocks,
        "block_lengths": [str(n) for n in _FERMAT_BLOCK_LENGTHS],
        "length": str(len(letters)),
        "class": str(classify(t)),
        "major_integral": _triple_dict(is_derivative(t, DerivativeKind.MAJOR)),
        "minor_integral": _triple_dict(is_derivative(t, DerivativeKind.MINOR)),
    }


def _cmd_fermat_demo(args: argparse.Namespace) -> tuple[dict, list[str]]:
    payload = fermat_demo()
    grouped = " ".join(payload["blocks"])
    sums = " + ".join(payload["block_lengths"])
    lines = [
        f"Fermat's triple: {_text(payload['triple'])}",
        f"primary generator: {payload['generator']}",
        f"regression to the root ({payload['length']} steps):",
        *(f"  {row['letter']} {row['fraction']}" for row in payload["regression"]),
        f"code: {payload['path']}",
        f"path: {grouped} ({sums} = {payload['length']})",
        f"class: {payload['class']}",
        f"major anti-derivative: {_text(payload['major_integral'])}",
        f"minor anti-derivative: {_text(payload['minor_integral'])}",
    ]
    return payload, lines


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
            payload, lines = args.handler(args)
        except ValueError as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        if args.json:
            import json  # only here: text requests need not pay for importing it
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
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
