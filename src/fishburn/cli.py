"""Command-line interface.

Subcommands: enumerate, stats, apply, table, series, check. Each handler
returns (exit code, JSON payload, CSV rows), and `main` alone writes the
result to stdout, once, after the handler returns, as JSON (default) or
CSV; so an error writes nothing to stdout. The members that `enumerate`
lists stay lazy, in either format: `main` writes them one at a time, and
every refusal comes before the first. All numbers are exact, with
rationals rendered as "p/q". Exit codes: 0 success / all checks pass, 1 a
check failed, 2 usage or domain error, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import random
import sys
from collections.abc import Iterator

from . import bijections, decomp, genfun, stats
from .errors import DomainError, ResourceLimitError, UsageError
from .genfun import (SpecPoint, admissible_for_length_series, fishburn_series,
                     random_point, series_G, series_asczero, series_zeromax)
from .harness import (CHECK_NAMES, check_parameters, dist_table,
                      merged_parameters, run_check, spot_check_cache)
from .seqcore import ClassId, Perm, Seq, enumerate_class, is_member


def _parse_object(class_id: ClassId, text: str):
    return (Perm.from_text(text) if class_id.is_permutation_class
            else Seq.from_text(text))


# --- enumerate -------------------------------------------------------------


def _cmd_enumerate(args) -> tuple:
    class_id = ClassId.from_name(args.class_name)
    prefix = ()
    if args.prefix:
        # a prefix need not be a member itself: enumerate_class decides
        # whether any member extends it
        prefix = (Perm.parse_word(args.prefix)
                  if class_id.is_permutation_class
                  else tuple(Seq.from_text(args.prefix)))
    # enumerate_class refuses a length or a limit here, before the first
    # member; one stream of texts serves the format that main writes
    texts = (obj.to_text() for obj in
             enumerate_class(class_id, args.n, prefix=prefix,
                             limit=args.limit))
    return 0, texts, ([text] for text in texts)


# --- stats -----------------------------------------------------------------


def _stat_bundle(class_id: ClassId, obj) -> dict:
    if not is_member(class_id, obj):
        raise UsageError(
            f"{obj.to_text()!r} is not a member of {class_id.name}")
    if class_id.is_permutation_class:
        return stats.perm_stats(obj)
    bundle = {**stats.scalar_stats(obj), **stats.set_stats(obj)}
    bundle.update((name, getattr(stats, name)(obj))
                  for name, home in stats.MARKERS.items() if home is class_id)
    return bundle


def _cmd_stats(args) -> tuple:
    class_id = ClassId.from_name(args.class_name)
    obj = _parse_object(class_id, args.object)
    bundle = _stat_bundle(class_id, obj)
    return 0, bundle, ([key, " ".join(map(str, val)) if isinstance(val, tuple)
                        else val] for key, val in bundle.items())


# --- apply -----------------------------------------------------------------

# name -> (shape, forward, inverse): the bijections, whose shape is the kind
# of object they take and whose inverses have names of their own, then the
# decomposition maps, the first three fields of each row of decomp.MAPS
_MAPS = {
    "theta_lehmer": ("perm", bijections.lehmer_code, None),
    "bv": ("perm", bijections.bv_code, None),
    "bv_inv": ("seq", bijections.bv_decode, None),
    "beta": ("seq", bijections.beta, None),
    "beta_inv": ("seq", bijections.beta_inv, None),
    "gamma": ("seq", bijections.gamma, None),
    "gamma_inv": ("seq", bijections.gamma_inv, None),
    "psi": ("perm", bijections.psi, None),
    "psi_inv": ("seq", bijections.psi_inv, None),
    "phi": ("perm", bijections.phi, None),
    "phi_inv": ("seq", bijections.phi_inv, None),
    "upsilon": ("seq", bijections.upsilon, None),
    **{name: row[:3] for name, row in decomp.MAPS.items()},
}
_TRACEABLE = frozenset(
    name for name, (_, forward, _) in _MAPS.items()
    if "_trace" in inspect.signature(forward).parameters)

MAP_NAMES = tuple(_MAPS)


def _forward_or_inverse(args, name) -> str:
    direction = args.direction or "forward"
    if direction not in ("forward", "inverse"):
        raise UsageError(
            f"map {name!r} takes --direction forward or inverse, "
            f"not {direction!r}")
    return direction


def _require_side_index(args, name):
    if args.side_index is None:
        raise UsageError(f"map {name!r} needs --side-index here")
    return args.side_index


def _no_side_index(args, name):
    if args.side_index is not None:
        raise UsageError(f"map {name!r} does not take --side-index")


def _apply_named_map(name, obj, args, trace):
    """The map's image of obj: a sequence or permutation, or a MapResult."""
    shape, forward, inverse = _MAPS[name]
    traced = {"_trace": trace} if name in _TRACEABLE else {}
    if shape in ("perm", "seq"):
        if args.direction is not None:
            raise UsageError(
                f"map {name!r} does not take --direction; inverse maps "
                f"have their own names")
        _no_side_index(args, name)
        return forward(obj, **traced)
    if shape == "shift":
        _no_side_index(args, name)
        if args.direction not in ("up", "down"):
            raise UsageError(f"map {name!r} needs --direction up or down")
        return forward(obj, args.direction, **traced)
    if shape == "drop":
        _no_side_index(args, name)
    inverting = _forward_or_inverse(args, name) == "inverse"
    fn = inverse if inverting else forward
    # a reduce inverse and a walk forward take the side index; a reduce
    # forward and a walk inverse hand it back in a MapResult
    if shape != "drop" and inverting == (shape == "reduce"):
        return fn(obj, _require_side_index(args, name), **traced)
    _no_side_index(args, name)
    return fn(obj, **traced)


def _cmd_apply(args) -> tuple:
    name = args.map
    if name not in MAP_NAMES:
        raise UsageError(
            f"unknown map {name!r}; available: {', '.join(MAP_NAMES)}")
    if args.trace and name not in _TRACEABLE:
        raise UsageError(
            f"map {name!r} has no trace; traceable maps: "
            f"{', '.join(sorted(_TRACEABLE))}")
    obj = (Perm.from_text(args.object) if _MAPS[name][0] == "perm"
           else Seq.from_text(args.object))
    if not obj:
        raise UsageError(f"map {name!r} needs a nonempty object")
    trace = [] if args.trace else None
    out = _apply_named_map(name, obj, args, trace)
    side = {}
    if isinstance(out, decomp.MapResult):
        out, side = out.output, {"side_index": out.side_index}
    payload = {"map": name, "input": obj.to_text(), "output": out.to_text(),
               **side}
    if trace is not None:
        payload["trace"] = [[str(label), step.to_text()]
                            for label, step in trace]
    header = ["map", "input", "output", "side_index"]
    rows = [header, [payload.get(key, "") for key in header]]
    rows += [["trace", *step] for step in payload.get("trace", [])]
    return 0, payload, rows


# --- table -----------------------------------------------------------------


def _cmd_table(args) -> tuple:
    class_id = ClassId.from_name(args.class_name)
    names = tuple(name.strip() for name in args.stats.split(",") if name.strip())
    table = dist_table(class_id, args.n, names, use_cache=not args.no_cache)
    counts = sorted(table.counts.items())
    payload = {"class": class_id.name, "n": table.n, "stats": list(names),
               "total": table.total(),
               "counts": [[list(key), count] for key, count in counts]}
    return 0, payload, ([payload["stats"] + ["count"]]
                        + [key + [count] for key, count in payload["counts"]])


# --- series ----------------------------------------------------------------

# series -> (its markers, (order, point) -> the series)
_SERIES = {
    "fishburn": ((), lambda order, _: fishburn_series(order)),
    "G": (("x", "q", "u", "z"), series_G),
    "zeromax": (("q", "z"), lambda order, p: series_zeromax(order, p.q, p.z)),
    "asczero1": (("u", "z"), lambda order, p: series_asczero(
        order, p.u, p.z, "primitive")),
    "asczero2": (("u", "z"), lambda order, p: series_asczero(
        order, p.u, p.z, "alternative")),
}


def _series_point(args, allowed) -> SpecPoint:
    given = {name: getattr(args, name) for name in ("x", "q", "u", "z", "w")
             if getattr(args, name) is not None}
    for name in given:
        if name not in allowed:
            raise UsageError(
                f"series {args.which!r} does not take --{name}; "
                f"markers: {', '.join(allowed) if allowed else 'none'}")
    if args.seed is not None:
        if given:
            raise UsageError(
                "give either explicit marker values or --seed, not both")
        rng = random.Random(args.seed)
        constraint = (admissible_for_length_series
                      if args.which == "G" else None)
        point = random_point(rng, constraint)
        print(f"point: {json.dumps(point.as_dict())}", file=sys.stderr)
        return point
    return SpecPoint(**given)


def _cmd_series(args) -> tuple:
    allowed, build = _SERIES[args.which]
    if not allowed and args.seed is not None:
        raise UsageError(f"series {args.which!r} has no markers to randomize")
    series = build(args.order, _series_point(args, allowed))
    coeffs = [str(c) for c in series.coeffs]
    return 0, coeffs, enumerate(coeffs)


# --- check -----------------------------------------------------------------


def _cmd_check(args) -> tuple:
    overrides = {"max_n": args.max_n, "order": args.order,
                 "seed": args.seed, "points": args.points}
    if args.name is not None:
        # a named check gets every flag the user set; run_check rejects
        # the ones the check does not accept
        reports = [run_check(args.name, **overrides)]
    else:
        # each check gets the flags it accepts; all are validated before
        # the first check runs
        suite = [(name, merged_parameters(name, **{
                    k: v for k, v in overrides.items()
                    if k in check_parameters(name)}))
                 for name in CHECK_NAMES]
        reports = [run_check(name, **params) for name, params in suite]
        reports.append(spot_check_cache(random.Random(args.seed)))
    payload = [rep.as_dict() for rep in reports]
    rows = [["name", "verdict", "seconds", "parameters", "counterexample"]]
    rows += [[d["name"], d["verdict"], d["seconds"],
              json.dumps(d["parameters"]), "" if d["counterexample"] is None
              else json.dumps(d["counterexample"])] for d in payload]
    return 0 if all(rep.passed for rep in reports) else 1, payload, rows


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishburn",
        description="Exact combinatorics of ascent sequences: enumeration, "
                    "statistics, bijections, generating functions, and "
                    "theorem checks.",
        epilog="Set FISHBURN_CACHE to relocate the distribution-table cache "
               "(default ~/.cache/fishburn).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("enumerate", help="list a class in lexicographic order")
    p.add_argument("--class", dest="class_name", required=True,
                   help="INV, ASC, T21, B, C, PERM_ALL, PERM_AVOID_A, "
                        "PERM_AVOID_B")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prefix", help="restrict to members with this prefix, "
                                    "e.g. 0,1 or, for permutations, 31")
    p.add_argument("--limit", type=int,
                   help="override the default length safety ceiling")
    add_format(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("stats", help="all statistics of one object")
    p.add_argument("--class", dest="class_name", required=True)
    p.add_argument("object", help="sequence like 0,1,0,2 or permutation "
                                  "word like 61832547")
    add_format(p)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("apply", help="apply a named bijection or "
                                     "decomposition map")
    p.add_argument("--map", required=True,
                   help=", ".join(MAP_NAMES))
    p.add_argument("--direction",
                   help="up/down for the shift maps, forward/inverse for "
                        "the reducing maps")
    p.add_argument("--side-index", type=int, dest="side_index",
                   help="ordinal parameter for the indexed maps")
    p.add_argument("--trace", action="store_true",
                   help="emit each intermediate sequence")
    p.add_argument("object")
    add_format(p)
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("table", help="joint distribution of statistics "
                                     "over a class")
    p.add_argument("--class", dest="class_name", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stats", required=True,
                   help="comma-separated statistic names, e.g. rep,max")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk table cache")
    add_format(p)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("series", help="exact truncated power series")
    p.add_argument("--which", required=True, choices=tuple(_SERIES))
    p.add_argument("--order", type=int, default=genfun.DEFAULT_ORDER)
    for marker in ("x", "q", "u", "z", "w"):
        p.add_argument(f"--{marker}",
                       help=f"marker value as an exact rational, e.g. 2/3")
    p.add_argument("--seed", type=int,
                   help="draw the marker point from a seeded generator "
                        "instead of giving explicit values")
    add_format(p)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("check", help="run one named theorem check, or all "
                                     "of them")
    p.add_argument("--name", choices=CHECK_NAMES,
                   help="omit to run the full suite plus a cache spot check")
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--order", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--points", type=int)
    add_format(p)
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, rows = args.handler(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    if args.format == "json" and isinstance(payload, Iterator):
        # a JSON list written member by member, as json.dump writes it
        sys.stdout.write("[")
        sep = ""
        for item in payload:
            sys.stdout.write(sep + json.dumps(item))
            sep = ", "
        sys.stdout.write("]\n")
    elif args.format == "json":
        json.dump(payload, sys.stdout)
        sys.stdout.write("\n")
    else:
        csv.writer(sys.stdout).writerows(rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
