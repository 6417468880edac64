"""Command-line interface.

Exit codes: 0 success / certified, 2 input error, 3 not certified (also used
for NOT_POSITIVE and failed classification).  Every report file echoes the
fully resolved configuration; output paths are left out of the echo so runs
that differ only in destination stay byte-identical.
"""

import argparse
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


def _resolve_seed(value: int | None) -> int:
    """--seed, else CONECERT_SEED, else 0; numpy seeds must be >= 0."""
    source = "--seed"
    if value is None:
        env = os.environ.get("CONECERT_SEED")
        if env is None:
            return 0
        source = "CONECERT_SEED"
        try:
            value = int(env)
        except ValueError as exc:
            raise EncodingError(f"CONECERT_SEED must be an integer, got {env!r}") from exc
    if value < 0:
        raise EncodingError(f"{source} must be >= 0, got {value}")
    return value


def cmd_pairing(args) -> int:
    map_rep = map_from_json(load_json(args.map))
    obj = load_json(args.operator)
    if not isinstance(obj, dict):
        raise EncodingError("operator file must hold a JSON object")
    kind = obj.get("kind", "full" if "w" in obj else "product")
    if kind == "product":
        if "x" not in obj or "y" not in obj:
            raise EncodingError("product operator needs 'x' and 'y' matrices")
        w = SeparableElement(
            x_factor=matrix_from_json(obj["x"]), y_factor=matrix_from_json(obj["y"])
        )
    elif kind == "full":
        if "w" not in obj:
            raise EncodingError("full operator needs a 'w' matrix")
        w = matrix_from_json(obj["w"])
    else:
        raise EncodingError(f"unknown operator kind {obj.get('kind')!r}")
    print(format_complex(pairing(map_rep, w)))
    return 0


def cmd_expose(args) -> int:
    a = matrix_from_json(load_json(args.A))
    report = certify_exposed(a, transposed=args.transposed)
    payload = report_to_dict(report, include_timing=not args.no_timing)
    payload["config"] = {
        "command": "expose",
        "transposed": bool(args.transposed),
    }
    if args.report:
        write_json_atomic(args.report, payload)
    print(f"verdict: {report.verdict.value}")
    print(f"nullspace dim: {report.nullspace.dim}")
    print(f"overlap with phi: {report.overlap_with_phi:.12f}")
    if report.verdict in (Verdict.EXPOSED_LINEAR, Verdict.EXPOSED_FACE):
        return 0
    return 2 if report.verdict is Verdict.INPUT_REJECTED else 3


def cmd_sweep(args) -> int:
    if args.n < 1 or args.m < 1:
        raise EncodingError("dimensions must be positive")
    if args.count < 0:
        raise EncodingError("count must be >= 0")
    seed = _resolve_seed(args.seed)
    rng = rng_from(seed)
    ranks = range(1, min(args.n, args.m) + 1)
    verdict_counts, dim_hist, files = Counter(), Counter(), []
    for rank in ranks:
        for i in range(args.count):
            a = random_operator(rng, args.n, args.m, rank)
            # made after a draw: a refused shape leaves none
            os.makedirs(args.report, exist_ok=True)
            for transposed in (False, True):
                report = certify_exposed(a, transposed=transposed)
                payload = report_to_dict(report, include_timing=not args.no_timing)
                payload["config"] = {
                    "command": "sweep",
                    "seed": seed,
                    "n": args.n,
                    "m": args.m,
                    "rank": rank,
                    "instance": i,
                    "transposed": transposed,
                }
                name = (
                    f"n{args.n}_m{args.m}_rank{rank}_i{i:03d}_"
                    f"{'T' if transposed else 'N'}.json"
                )
                write_json_atomic(os.path.join(args.report, name), payload)
                files.append(name)
                verdict_counts[report.verdict.value] += 1
                dim_hist[str(report.nullspace.dim)] += 1
    summary = {
        "config": {
            "command": "sweep",
            "seed": seed,
            "n": args.n,
            "m": args.m,
            "count": args.count,
        },
        "reports": files,
        "verdict_counts": verdict_counts,
        "dimension_histogram": dim_hist,
        "not_certified": verdict_counts[Verdict.NOT_CERTIFIED.value],
    }
    os.makedirs(args.report, exist_ok=True)
    write_json_atomic(os.path.join(args.report, "summary.json"), summary)
    total = len(files)
    print(f"{total} runs ({args.count} per rank class, both flags)")
    for v in sorted(verdict_counts):
        print(f"  {v}: {verdict_counts[v]}")
    for d in sorted(dim_hist, key=int):
        print(f"  dim {d}: {dim_hist[d]}")
    return 0


def cmd_classify(args) -> int:
    map_rep = map_from_json(load_json(args.map))
    result = classify(map_rep)
    payload = {
        "case": result.case.value,
        "b": None if result.b is None else matrix_to_json(result.b),
        "r": None if result.r_matrix is None else matrix_to_json(result.r_matrix),
        "zeta": None if result.zeta is None else vector_to_json(result.zeta),
        "phase_convention": "largest-magnitude entry real positive",
        "config": {"command": "classify"},
    }
    if args.report:
        write_json_atomic(args.report, payload)
    print(f"case: {result.case.value}")
    return 0


def cmd_positivity(args) -> int:
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
    if args.report:
        write_json_atomic(args.report, payload)
    print(f"verdict: {result.verdict}")
    print(f"min block value: {result.min_value:.6e}")
    return 0 if result.positive else 3


def cmd_obstruction(args) -> int:
    a = matrix_from_json(load_json(args.A))
    result = conjugate_obstruction_space(a)
    payload = {
        "dim": result.dim,
        "singular_values": [float(s) for s in result.singular_values],
        "basis": [matrix_to_json(b) for b in result.basis],
        "config": {"command": "obstruction"},
    }
    if args.report:
        write_json_atomic(args.report, payload)
    print(f"solution dim: {result.dim}")
    return 0


def cmd_random_map(args) -> int:
    if args.n < 1 or args.m < 1:
        raise EncodingError("dimensions must be positive")
    if args.rank is not None and args.rank < 1:
        raise EncodingError("rank must be positive")
    rng = rng_from(_resolve_seed(args.seed))
    if args.kind == "ad":
        a = random_operator(rng, args.n, args.m, args.rank)
        obj = map_to_json("ad", A=a, transposed=args.transposed)
    else:
        r = random_psd(rng, args.m, args.rank)
        zeta = random_unit_vector(rng, args.n)
        obj = map_to_json("omega_q", R=r, zeta=zeta)
    write_json_atomic(args.out, obj)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecert",
        description="Numerical exposedness certificates for conjugation-type positive maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairing", help="evaluate the duality pairing <map, W>")
    p.add_argument("map", help="map JSON file")
    p.add_argument("operator", help="operator JSON: product {x,y} or full {w}")
    p.set_defaults(func=cmd_pairing)

    p = sub.add_parser("expose", help="certify that ad_A spans an exposed ray")
    p.add_argument("A", help="matrix JSON file for A")
    p.add_argument("--transposed", action="store_true",
                   help="certify X -> A X^T A* instead of X -> A X A*")
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall_time_ms for byte-identical reruns")
    p.set_defaults(func=cmd_expose)

    p = sub.add_parser("sweep", help="batch certification across rank classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, default=5, help="instances per rank class")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", required=True, help="output directory")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("classify", help="sort a map into AD / AD_TRANSPOSE / OMEGA_Q")
    p.add_argument("map", help="map JSON file")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "positivity",
        help="block positivity: a Choi-spectrum proof for CP and co-CP maps, "
             "else an evidence-based restart search",
    )
    p.add_argument("map", help="map JSON file")
    p.add_argument("--restarts", type=int, default=64,
                   help="random restarts of the search; a map proved CP or co-CP, "
                        "or shown not positive by its first descent, draws none")
    p.add_argument("--iters", type=int, default=200,
                   help="iterations per descent; a map proved CP by its Choi spectrum takes one")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_positivity)

    p = sub.add_parser("obstruction", help="solution space of the kernel-implication system")
    p.add_argument("A", help="matrix JSON file for A")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("random-map", help="generate a seeded random map JSON")
    p.add_argument("--kind", choices=("ad", "omega_q"), default="ad")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--transposed", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_random_map)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConecertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ClassificationError) else 2


if __name__ == "__main__":
    sys.exit(main())
