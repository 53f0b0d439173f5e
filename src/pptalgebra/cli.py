"""Command-line front end: inspect triples, walk the tree, take derivatives.

Every verb takes --json to emit a single JSON object instead of text.  JSON
values are decimal strings (sides routinely exceed 64 bits), fractions are
"q/p", and path codes use the same letters/run-length format parse() accepts,
so output round-trips losslessly.
"""

from __future__ import annotations

import argparse
import json
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
    family_member,
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


def _triple_dict(t: PPT) -> dict[str, str]:
    return {"a": str(t.a), "b": str(t.b), "c": str(t.c)}


def _or_root(code_text: str) -> str:
    return code_text or "(root)"


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
    lines = [
        f"triple: {t}",
        f"primary generator: {t1}",
        f"secondary generator: {t2}",
        f"key sequence: {key}",
        f"radii: r1={r.r1} r2={r.r2} r3={r.r3} r4={r.r4}",
        f"class: {payload['class']}",
        f"harmonic square: {sq.h}",
        f"symphonic square: {sq.s}",
        f"altitude: {payload['altitude']}",
        f"path: {_or_root(payload['path'])}",
        f"depth: {payload['depth']}",
    ]
    return payload, lines


def _cmd_derive(args: argparse.Namespace) -> tuple[dict, list[str]]:
    t = make_ppt(*args.sides)
    d = derivative(t, args.kind)
    d1, d2 = generators_of(d)
    code = locate(d1)
    payload = {
        "kind": args.kind.value,
        "triple": _triple_dict(t),
        "derivative": _triple_dict(d),
        "primary_generator": format_fraction(d1),
        "secondary_generator": format_fraction(d2),
        "class": str(classify(d)),
        "path": str(code),
    }
    lines = [
        f"{t} --{args.kind}--> {d}",
        f"primary generator: {d1}",
        f"secondary generator: {d2}",
        f"class: {payload['class']}",
        f"path: {_or_root(payload['path'])}",
    ]
    return payload, lines


def _cmd_antiderive(args: argparse.Namespace) -> tuple[dict, list[str]]:
    t = make_ppt(*args.sides)
    anti = anti_derivative(t, args.kind)
    payload = {
        "kind": args.kind.value,
        "triple": _triple_dict(t),
        "roots": [str(anti.roots[0]), str(anti.roots[1])],
        "hypotenuse": str(anti.hypotenuse),
        "integral": _triple_dict(anti.integral) if anti.integral else None,
    }
    lines = [
        f"anti-derivative ({anti.kind}) of {t}",
        f"roots: {anti.roots[0]}, {anti.roots[1]}",
        f"hypotenuse: {anti.hypotenuse}",
        f"integral: {anti.integral if anti.integral else 'none'}",
    ]
    return payload, lines


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
    payload.update(
        {
            "generator": format_fraction(f),
            "path": str(code),
            "length": str(code.length),
            "runs": code.compact(),
        }
    )
    lines = [
        f"generator: {f}",
        f"path: {_or_root(payload['path'])}",
        f"length: {payload['length']}",
        f"runs: {_or_root(payload['runs'])}",
    ]
    if "triple" in payload:
        lines.insert(0, f"triple: {t}")
    return payload, lines


def _cmd_path(args: argparse.Namespace) -> tuple[dict, list[str]]:
    code = PathCode.parse(args.code)
    f = apply_path(ROOT_GENERATOR, code)
    t = triple_from_primary(f)
    payload = {
        "path": str(code),
        "length": str(code.length),
        "generator": format_fraction(f),
        "triple": _triple_dict(t),
    }
    lines = [
        f"path: {_or_root(payload['path'])}",
        f"length: {payload['length']}",
        f"generator: {f}",
        f"triple: {t}",
    ]
    return payload, lines


def _cmd_children(args: argparse.Namespace) -> tuple[dict, list[str]]:
    t = make_ppt(*args.sides)
    left, middle, right = children(t)
    payload = {
        "triple": _triple_dict(t),
        "left": _triple_dict(left),
        "middle": _triple_dict(middle),
        "right": _triple_dict(right),
    }
    lines = [
        f"children of {t}",
        f"left:   {left}",
        f"middle: {middle}",
        f"right:  {right}",
    ]
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
    lines = [f"level {args.depth}: {len(triples)} triples"]
    lines.extend(f"  {t}" for t in triples)
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
        f"{t}: class {original}",
        f"3 divides {witness.three_divides}; 4 divides b; 5 divides {witness.five_divides}",
        f"derivatives land in {derived}",
    ]
    return payload, lines


def _cmd_squares(args: argparse.Namespace) -> tuple[dict, list[str]]:
    t = make_ppt(*args.sides)
    sq = inscribed_squares(t)
    rec = reciprocal_triple(t)
    scale = integer_square_scale(t)
    payload = {
        "triple": _triple_dict(t),
        "harmonic_square": str(sq.h),
        "symphonic_square": str(sq.s),
        "reciprocal_triple": [str(x) for x in rec],
        "scale": str(scale.scale),
        "scaled_triple": dict(zip("abc", (str(v) for v in scale.scaled))),
        "scaled_harmonic": str(scale.h),
        "scaled_symphonic": str(scale.s),
    }
    lines = [
        f"triple: {t}",
        f"harmonic square: {sq.h}",
        f"symphonic square: {sq.s}",
        f"reciprocal triple: {rec[0]}, {rec[1]}, {rec[2]}",
        f"integer scale: {scale.scale}",
        f"scaled: [{scale.scaled[0]}, {scale.scaled[1]}, {scale.scaled[2]}]"
        f" with h={scale.h} s={scale.s}",
    ]
    return payload, lines


def _cmd_family(args: argparse.Namespace) -> tuple[dict, list[str]]:
    fam = Family(FamilyLine(args.line), args.index)
    gen = family_generator(fam)
    member = family_member(fam)
    payload = {
        "family": fam.line.value,
        "index": str(fam.index),
        "path": str(fam.path_code),
        "generator": format_fraction(gen),
        "triple": _triple_dict(member),
    }
    lines = [
        f"{fam.line} family, member {fam.index}",
        f"path: {_or_root(payload['path'])}",
        f"generator: {gen}",
        f"triple: {member}",
    ]
    if args.derive is not None:
        kind = DerivativeKind(args.derive)
        d = derivative(member, kind)
        dgen = derive_generator(gen, kind)
        dcode = derivative_location(fam, kind)
        payload.update(
            {
                "derive": kind.value,
                "derivative": _triple_dict(d),
                "derivative_generator": format_fraction(dgen),
                "derivative_path": str(dcode),
            }
        )
        lines.extend(
            [
                f"{kind} derivative: {d}",
                f"derivative generator: {dgen}",
                f"derivative path: {dcode}",
            ]
        )
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
    major = is_derivative(t, DerivativeKind.MAJOR)
    minor = is_derivative(t, DerivativeKind.MINOR)
    return {
        "triple": _triple_dict(t),
        "generator": format_fraction(f),
        "regression": steps,
        "path": letters,
        "blocks": blocks,
        "block_lengths": [str(n) for n in _FERMAT_BLOCK_LENGTHS],
        "length": str(len(letters)),
        "class": str(classify(t)),
        "major_integral": _triple_dict(major) if major else None,
        "minor_integral": _triple_dict(minor) if minor else None,
    }


def _cmd_fermat_demo(args: argparse.Namespace) -> tuple[dict, list[str]]:
    payload = fermat_demo()
    t = payload["triple"]
    grouped = " ".join(payload["blocks"])
    sums = " + ".join(payload["block_lengths"])
    lines = [
        f"Fermat's triple: [{t['a']}, {t['b']}, {t['c']}]",
        f"primary generator: {payload['generator']}",
        f"regression to the root ({payload['length']} steps):",
    ]
    lines.extend(f"  {row['letter']} {row['fraction']}" for row in payload["regression"])
    lines.extend(
        [
            f"code: {payload['path']}",
            f"path: {grouped} ({sums} = {payload['length']})",
            f"class: {payload['class']}",
            "major anti-derivative: none",
            "minor anti-derivative: none",
        ]
    )
    return payload, lines


def _add_triple_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("sides", nargs=3, type=int, metavar="side", help="the three sides, any leg order")


def _add_kind_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--major", dest="kind", action="store_const", const=DerivativeKind.MAJOR
    )
    group.add_argument(
        "--minor", dest="kind", action="store_const", const=DerivativeKind.MINOR
    )


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
    """Parse argv and execute one verb; returns the process exit status."""
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
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
