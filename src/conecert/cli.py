"""Command-line interface.

Exit codes: 0 success / certified, 2 input error, 3 not certified (also used
for NOT_POSITIVE and failed classification).  A `cmd_*` returns its exit code,
payload (or None) and stdout lines; `main` alone writes, prints and exits.
Every report file echoes the fully resolved configuration; output paths are
left out of the echo so runs that differ only in destination stay
byte-identical.
"""

import argparse
import math
import os
import sys
from collections import Counter

from .errors import ClassificationError, ConecertError, EncodingError
from .exposedness import Verdict, certify_exposed, classify, conjugate_obstruction_space
from .maps import SearchParams, SeparableElement, is_positive, pairing
from .sampling import random_operator, random_psd, random_unit_vector, rng_from
from .serialization import (
    format_complex,
    load_json,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_dict,
    vector_to_json,
    write_json_atomic,
)

# exit code of `expose`; NOT_CERTIFIED exits 3
EXPOSE_EXIT = {Verdict.EXPOSED_LINEAR: 0, Verdict.EXPOSED_FACE: 0, Verdict.INPUT_REJECTED: 2}


def _resolve_seed(value: int | None) -> int:
    """--seed, else CONECERT_SEED, else 0; numpy seeds must be >= 0."""
    if value is not None:
        _check_range(0, **{"--seed": value})
        return value
    env = os.environ.get("CONECERT_SEED", "0")
    try:
        value = int(env)
    except ValueError as exc:
        raise EncodingError(f"CONECERT_SEED must be an integer, got {env!r}") from exc
    _check_range(0, CONECERT_SEED=value)
    return value


def _check_range(lo: int, hi: float = math.inf, **values: int) -> None:
    """EncodingError unless every named value lies in [lo, hi]."""
    for name, value in values.items():
        if not lo <= value <= hi:
            bound = f">= {lo}" if value < lo else f"<= {hi}"
            raise EncodingError(f"{name} must be {bound}, got {value}")


def cmd_pairing(args):
    map_rep = map_from_json(load_json(args.map))
    obj = load_json(args.operator)
    if not isinstance(obj, dict):
        raise EncodingError("operator file must hold a JSON object")
    kind = obj.get("kind", "full" if "w" in obj else "product")
    if kind == "product":
        if "x" not in obj or "y" not in obj:
            raise EncodingError("product operator needs 'x' and 'y' matrices")
        w = SeparableElement(matrix_from_json(obj["x"]), matrix_from_json(obj["y"]))
    elif kind == "full":
        if "w" not in obj:
            raise EncodingError("full operator needs a 'w' matrix")
        w = matrix_from_json(obj["w"])
    else:
        raise EncodingError(f"unknown operator kind {obj.get('kind')!r}")
    return 0, None, [format_complex(pairing(map_rep, w))]


def cmd_expose(args):
    a = matrix_from_json(load_json(args.A))
    report = certify_exposed(a, transposed=args.transposed)
    payload = report_to_dict(report, include_timing=not args.no_timing)
    payload["config"] = {"command": "expose", "transposed": bool(args.transposed)}
    return EXPOSE_EXIT.get(report.verdict, 3), payload, [
        f"verdict: {report.verdict.value}",
        f"nullspace dim: {report.nullspace.dim}",
        f"overlap with phi: {report.overlap_with_phi:.12f}",
    ]


def cmd_sweep(args):
    """Payload: {file name under --report: JSON}, summary.json last."""
    _check_range(1, n=args.n, m=args.m)
    _check_range(0, count=args.count)
    seed = _resolve_seed(args.seed)
    rng = rng_from(seed)
    config = {"command": "sweep", "seed": seed, "n": args.n, "m": args.m}
    files, verdict_counts, dim_hist = {}, Counter(), Counter()
    for rank in range(1, min(args.n, args.m) + 1):
        for i in range(args.count):
            a = random_operator(rng, args.n, args.m, rank)
            for transposed in (False, True):
                report = certify_exposed(a, transposed=transposed)
                payload = report_to_dict(report, include_timing=not args.no_timing)
                payload["config"] = {**config, "rank": rank, "instance": i,
                                     "transposed": transposed}
                name = f"n{args.n}_m{args.m}_rank{rank}_i{i:03d}_{'T' if transposed else 'N'}.json"
                files[name] = payload
                verdict_counts[report.verdict.value] += 1
                dim_hist[str(report.nullspace.dim)] += 1
    summary = {
        "config": {**config, "count": args.count},
        "reports": list(files),
        "verdict_counts": verdict_counts,
        "dimension_histogram": dim_hist,
        "not_certified": verdict_counts[Verdict.NOT_CERTIFIED.value],
    }
    lines = [f"{len(files)} runs ({args.count} per rank class, both flags)"]
    lines += [f"  {v}: {verdict_counts[v]}" for v in sorted(verdict_counts)]
    lines += [f"  dim {d}: {dim_hist[d]}" for d in sorted(dim_hist, key=int)]
    return 0, {**files, "summary.json": summary}, lines


def cmd_classify(args):
    result = classify(map_from_json(load_json(args.map)))
    payload = {
        "case": result.case.value,
        "b": None if result.b is None else matrix_to_json(result.b),
        "r": None if result.r_matrix is None else matrix_to_json(result.r_matrix),
        "zeta": None if result.zeta is None else vector_to_json(result.zeta),
        "phase_convention": "largest-magnitude entry real positive",
        "config": {"command": "classify"},
    }
    return 0, payload, [f"case: {result.case.value}"]


def cmd_positivity(args):
    map_rep = map_from_json(load_json(args.map))
    seed = _resolve_seed(args.seed)
    search = SearchParams(restarts=args.restarts, max_iters=args.iters, seed=seed)
    result = is_positive(map_rep, search)
    payload = {
        "verdict": result.verdict,
        "min_value": result.min_value,
        "restarts_used": result.restarts_used,
        "xi": vector_to_json(result.xi),
        "eta": vector_to_json(result.eta),
        "config": {
            "command": "positivity",
            "seed": seed,
            "restarts": args.restarts,
            "iters": args.iters,
        },
    }
    return 0 if result.positive else 3, payload, [
        f"verdict: {result.verdict}",
        f"min block value: {result.min_value:.6e}",
    ]


def cmd_obstruction(args):
    result = conjugate_obstruction_space(matrix_from_json(load_json(args.A)))
    payload = {
        "dim": result.dim,
        "singular_values": [float(s) for s in result.singular_values],
        "basis": [matrix_to_json(b) for b in result.basis],
        "config": {"command": "obstruction"},
    }
    return 0, payload, [f"solution dim: {result.dim}"]


def cmd_random_map(args):
    """--rank is at most min(n, m) for ad and m for omega_q's m x m R."""
    _check_range(1, n=args.n, m=args.m)
    if args.rank is not None:
        _check_range(1, min(args.n, args.m) if args.kind == "ad" else args.m, rank=args.rank)
    rng = rng_from(_resolve_seed(args.seed))
    if args.kind == "ad":
        a = random_operator(rng, args.n, args.m, args.rank)
        obj = map_to_json("ad", A=a, transposed=args.transposed)
    else:
        r = random_psd(rng, args.m, args.rank)
        obj = map_to_json("omega_q", R=r, zeta=random_unit_vector(rng, args.n))
    return 0, obj, [args.out]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecert",
        description="Numerical exposedness certificates for conjugation-type positive maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", default=None, help="write the report JSON here")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("pairing", help="evaluate the duality pairing <map, W>")
    p.add_argument("map", help="map JSON file")
    p.add_argument("operator", help="operator JSON: product {x,y} or full {w}")
    p.set_defaults(func=cmd_pairing)

    p = sub.add_parser("expose", parents=[report], help="certify that ad_A spans an exposed ray")
    p.add_argument("A", help="matrix JSON file for A")
    p.add_argument("--transposed", action="store_true",
                   help="certify X -> A X^T A* instead of X -> A X A*")
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall_time_ms for byte-identical reruns")
    p.set_defaults(func=cmd_expose)

    p = sub.add_parser("sweep", parents=[seed], help="batch certification across rank classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, default=5, help="instances per rank class")
    p.add_argument("--report", required=True, help="output directory")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("classify", parents=[report],
                       help="sort a map into AD / AD_TRANSPOSE / OMEGA_Q")
    p.add_argument("map", help="map JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "positivity", parents=[report, seed],
        help="block positivity: a Choi-spectrum proof for CP and co-CP maps, "
             "else an evidence-based restart search",
    )
    p.add_argument("map", help="map JSON file")
    p.add_argument("--restarts", type=int, default=64,
                   help="random restarts of the search; a map proved CP or co-CP, "
                        "or shown not positive by its first descent, draws none")
    p.add_argument("--iters", type=int, default=200,
                   help="iterations per descent; a map proved CP by its Choi spectrum takes one")
    p.set_defaults(func=cmd_positivity)

    p = sub.add_parser("obstruction", parents=[report],
                       help="solution space of the kernel-implication system")
    p.add_argument("A", help="matrix JSON file for A")
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("random-map", parents=[seed], help="generate a seeded random map JSON")
    p.add_argument("--kind", choices=("ad", "omega_q"), default="ad")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--transposed", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_random_map)

    return parser


def main(argv=None) -> int:
    """Write the subcommand's payload, then print its lines; return its exit code."""
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        if args.command == "sweep":
            os.makedirs(args.report, exist_ok=True)
            for name, obj in payload.items():
                write_json_atomic(os.path.join(args.report, name), obj)
        elif args.command == "random-map":
            write_json_atomic(args.out, payload)
        elif payload is not None and args.report:
            write_json_atomic(args.report, payload)
    except (ConecertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ClassificationError) else 2
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
