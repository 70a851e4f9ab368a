"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (the error name goes to
stderr), 2 on usage errors.  A malformed value, an unreadable input file and
an unwritable output path are all InvalidFamilyParameters.  All stdout
output is JSON with rationals encoded as 'p/q' strings; figures go to files.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

# admissibility_lp and free_norm_lp are unused here; perfbench's
# CROSS_MODULE_BINDINGS still names cli.admissibility_lp and cli.free_norm_lp,
# until the next benchmark change binds admissibility and free_norm instead
from .constructions import (  # noqa: F401
    admissibility,
    admissibility_lp,
    plan_from_json,
    plan_to_json,
    radii_accumulation,
    radii_bounded_separated,
    radii_ultrametric,
    radii_unbounded,
    radii_unbounded_delta,
    verify_l1_isometry,
)
from .errors import InvalidFamilyParameters, LipfreeError, outside_input
from .metric_core import as_fraction, fraction_str, free_element_from_json, read_text
from .norm_engine import ball_section, free_norm, free_norm_lp, two_point_norm  # noqa: F401
from .space_catalog import FAMILY_INFO, parse_family, parse_space
from .svg import ball_section_csv, render_ball_section

CASES = ("auto", "accum", "bounded", "unbounded", "udelta", "ultra")


def _read_arg(value: str) -> str:
    return read_text(value[1:]) if value.startswith("@") else value


def _coeffs_from_json(text: str) -> list:
    with outside_input("--coeffs"):
        values = json.loads(text)
        if not isinstance(values, list):
            raise ValueError("a JSON list of rationals is needed")
        return [as_fraction(v) for v in values]


def _write(path: str, text: str) -> None:
    """Write an output file; an unwritable path is InvalidFamilyParameters."""
    with outside_input(f"output file {path}"), open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _construct_plan(family_label: str, case: str, n_pairs: int):
    family = parse_family(family_label)
    if case == "auto":
        if family.ultrametric:
            case = "ultra"
        elif family.converges_to_base:
            case = "accum"
        elif family.delta_unbounded:
            case = "udelta"
        elif family.bounded is False:
            case = "unbounded"
        else:
            case = "bounded"
    builder = {
        "accum": radii_accumulation,
        "bounded": radii_bounded_separated,
        "unbounded": radii_unbounded,
        "udelta": radii_unbounded_delta,
        "ultra": radii_ultrametric,
    }[case]
    return builder(family, n_pairs)


def _cmd_norm(args) -> None:
    space = parse_space(args.space)
    element = free_element_from_json(_read_arg(args.element))
    result = free_norm(element, space)
    out = {"norm": fraction_str(result.value)}
    if args.with_function:
        out["function"] = [fraction_str(v) for v in result.function.values]
    _emit(out)


def _cmd_two_point(args) -> None:
    with outside_input("two-point value"):
        values = [as_fraction(v) for v in (args.a, args.b, args.dx0, args.dy0, args.dxy)]
    _emit({"norm": fraction_str(two_point_norm(*values))})


def _cmd_ball_section(args) -> None:
    space = parse_space(args.space)
    section = ball_section(space, args.x, args.y)
    if args.svg:
        _write(args.svg, render_ball_section(section))
    if args.csv:
        _write(args.csv, ball_section_csv(section))
    _emit(
        {
            "x": section.x,
            "y": section.y,
            "vertices": [[fraction_str(u), fraction_str(v)] for u, v in section.vertices],
            "ball_vertices": [
                [fraction_str(a), fraction_str(b)] for a, b in section.ball_vertices
            ],
        }
    )


def _cmd_construct(args) -> None:
    plan = _construct_plan(args.family, args.case, args.N)
    obj = plan_to_json(plan)
    if args.emit:
        _write(args.emit, json.dumps(obj) + "\n")
    _emit(obj)


def _cmd_verify(args) -> None:
    if args.plan:
        plan = plan_from_json(read_text(args.plan))
    elif args.family:
        if args.N is None:
            raise InvalidFamilyParameters("--N is required with --family")
        plan = _construct_plan(args.family, args.case, args.N)
    else:
        raise InvalidFamilyParameters("verify needs --plan or --family")
    coeffs = _coeffs_from_json(_read_arg(args.coeffs))
    value = verify_l1_isometry(plan, coeffs)
    _emit({"l1_norm": fraction_str(value), "exact": plan.exact})


def _cmd_admissibility(args) -> None:
    family = parse_family(args.family)
    ordering = None
    if args.ordering is not None:
        with outside_input("--ordering"):
            ordering = [int(v) for v in args.ordering.split(",")]
    result = admissibility(family, args.N, ordering)
    if result.no_pair_slots:
        _emit({"no_pair_slots": True})
        return
    out = {"tau": fraction_str(result.tau), "r": [fraction_str(v) for v in result.radii]}
    if result.obstruction is not None:
        out["obstruction"] = {
            "upper": [list(pair) for pair in result.obstruction.upper],
            "slots": list(result.obstruction.slots),
        }
    _emit(out)


def _cmd_spaces(args) -> None:
    if args.action == "list":
        _emit(FAMILY_INFO)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="lipfree",
        description="Exact norms and embedding constructions in Lipschitz-free spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="free-space norm of an element")
    p.add_argument("--space", required=True, help="family:params:N or file:path.json")
    p.add_argument("--element", required=True, help='JSON [{"point": i, "coef": "p/q"}], or @file')
    p.add_argument("--with-function", action="store_true", help="include an attaining function")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("two-point", help="closed-form norm of a*delta_x + b*delta_y")
    for flag in ("--a", "--b", "--dx0", "--dy0", "--dxy"):
        p.add_argument(flag, required=True)
    p.set_defaults(func=_cmd_two_point)

    p = sub.add_parser("ball-section", help="two-point unit ball cross-section")
    p.add_argument("--space", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--svg", help="write an SVG figure to this path")
    p.add_argument("--csv", help="write the vertex lists to this path")
    p.set_defaults(func=_cmd_ball_section)

    p = sub.add_parser("construct", help="build an embedding plan")
    p.add_argument("--family", required=True)
    p.add_argument("--case", choices=CASES, default="auto")
    p.add_argument("--N", type=int, required=True, help="number of pairs")
    p.add_argument("--emit", help="write the plan JSON to this path")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a plan and evaluate the l1 norm identity")
    p.add_argument("--plan", help="plan JSON path")
    p.add_argument("--family", help="alternatively, construct the plan first")
    p.add_argument("--case", choices=CASES, default="auto")
    p.add_argument("--N", type=int, help="number of pairs (with --family)")
    p.add_argument("--coeffs", required=True, help="JSON list of rationals, or @file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "admissibility", help="best worst-pair ratio on a prefix, and a cycle that caps it below 1"
    )
    p.add_argument("--family", required=True)
    p.add_argument("--N", type=int, required=True, help="number of points")
    p.add_argument("--ordering", help="comma-separated family indices")
    p.set_defaults(func=_cmd_admissibility)

    p = sub.add_parser("spaces", help="catalog information")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=_cmd_spaces)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except LipfreeError as exc:
        sys.stderr.write(f"{exc.name}: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
