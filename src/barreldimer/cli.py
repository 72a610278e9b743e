"""Command-line interface.

Subcommands: count, growth, spectrum, asymptotic, validate, sample,
render.  Exit codes: 0 success, 1 usage or parameter errors,
2 validation failure (cross-method disagreement or failed criteria).
Counts appear in JSON as decimal strings so arbitrary precision survives
serialization; identical flags and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import errno
import itertools
import json
import os
import random
import sys
import types

from . import bethe, entropy, paths, render, transfer, validate
from .errors import BarrelError, StructuralViolationError, TooLargeError
from .graph import (
    BarrelParams,
    _check_brute_cap,
    build_graph,
    count_matchings_brute,
    enumerate_matchings,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
# Most edge ids one `sample` call may print: samples x m(k+2).  The call holds
# the sampler plus its encoded output; 1,700 samples of F(12, 200), near the
# cap, print 24 MB of JSON at a peak RSS of 48 MB (100 MB when every draw was
# kept as an id tuple and the document was encoded whole).
SAMPLE_IDS_CAP = 5_000_000
# Most vertices `render` draws, sampled or not.  The SVG grows linearly
# with the graph, by 0.2-0.3 kB per vertex.
RENDER_VERTEX_CAP = 1_500
# The count methods `count --method all` runs, in this order.
COUNT_METHODS = ("transfer", "brute", "paths")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _write_out(out: str | None, *parts: str) -> None:
    try:
        if out is None:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(parts)
    except OSError as exc:
        raise BarrelError(f"cannot write {out or 'to stdout'}: {exc.strerror or exc}") from None


def _check_out(out: str | None) -> None:
    """Refuse an --out that is a directory or lies in a missing one, before any
    work is done; nothing is created.  Other write errors surface at the write."""
    if out is None:
        return
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(out) or "."):
        code = errno.ENOENT
    else:
        return
    raise BarrelError(f"cannot write {out}: {os.strerror(code)}")


def _emit(args, obj: dict, lines: list[str]) -> None:
    """Write obj as JSON or the text lines, as --format asks."""
    if args.format == "json":
        text = json.dumps(obj, sort_keys=True, separators=(", ", ": "))
    else:
        text = "\n".join(lines)
    _write_out(args.out, text, "\n")


def cmd_count(args) -> int:
    methods = COUNT_METHODS if args.method == "all" else [args.method]
    counts: dict[str, int] = {}
    for method in methods:
        if method == "transfer":
            counts[method] = transfer.count_matchings_transfer(args.m, args.k)
        elif method == "brute":
            params = BarrelParams(args.m, args.k)
            _check_brute_cap(params.n_vertices)  # before the graph is built
            counts[method] = count_matchings_brute(build_graph(params))
        elif method == "paths":
            counts[method] = paths.total_via_paths(args.m, args.k)
    agree = len(set(counts.values())) == 1
    obj = {
        "m": args.m,
        "k": args.k,
        "counts": {name: str(v) for name, v in sorted(counts.items())},
        "agree": agree,
    }
    lines = [f"{name}: {v}" for name, v in sorted(counts.items())]
    _emit(args, obj, lines + [f"agree: {agree}"])
    return EXIT_OK if agree else EXIT_VALIDATION


def cmd_growth(args) -> int:
    rho = bethe.growth_constant(args.m)
    h = entropy.entropy_of_family(args.m)
    limit = entropy.limit_entropy_quadrature()
    obj = {
        "m": args.m,
        "rho": rho,
        "p0": bethe.p_zero(args.m),
        "n0": bethe.n_zero(args.m),
        "entropy": h,
        "entropy_gap_to_limit": h - limit,
    }
    _emit(args, obj, [f"rho({args.m}) = {rho!r}",
                      f"p0 = {obj['p0']}, n0 = {obj['n0']}",
                      f"h({args.m}) = {h!r} (limit gap {obj['entropy_gap_to_limit']:+.3e})"])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    spectrum = bethe.verify_sector(args.m, args.p, args.b, args.c)
    entries = []
    for e in spectrum.entries:
        entries.append({
            "selection": e.selection,
            "roots": [[z.real, z.imag] for z in e.roots],
            "eigenvalue": [e.eigenvalue.real, e.eigenvalue.imag],
            "residual": e.residual,
            "omega_overlap": [e.omega_overlap.real, e.omega_overlap.imag],
        })
    obj = {"m": args.m, "p": args.p, "b": args.b, "c": args.c,
           "dimension": spectrum.dimension, "rank": spectrum.rank,
           "max_residual": spectrum.max_residual, "entries": entries}
    lines = [f"sector p={args.p} of m={args.m} at b={args.b}, c={args.c}: "
             f"dim {spectrum.dimension}, rank {spectrum.rank}"]
    for e in spectrum.entries:
        lines.append(f"  {e.selection}: lambda = {e.eigenvalue:.12g}, "
                     f"residual {e.residual:.2e}")
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    if args.aggregate:
        agg = paths.aggregate_estimate(args.m, args.k, args.n)
        obj = {
            "m": args.m, "k": args.k, "n": agg.n,
            "estimate": agg.value,
            "base": agg.base,
            "coefficient_on_base_pow_k": agg.coefficient_k,
            "coefficient_on_base_pow_k1": agg.coefficient_k1,
        }
        if args.m <= transfer.TRANSFER_M_CAP and args.k <= 200:
            exact = transfer.sector_count(args.m, args.k, args.m - agg.n)
            obj["exact_sector"] = str(exact)
            obj["estimate_over_exact"] = agg.value / exact
    else:
        if args.eta is None or args.lam is None:
            raise BarrelError("either --aggregate or both --eta and --lambda are required")
        est = paths.krattenthaler_estimate(args.m, args.k, args.eta, args.lam)
        obj = {"m": args.m, "k": args.k, "n": est.n, "estimate": est.value}
    _emit(args, obj, [f"{key} = {value}" for key, value in obj.items()])
    return EXIT_OK


def cmd_validate(args) -> int:
    results = validate.run_criteria(args.level)
    all_passed = all(r.passed for r in results)
    obj = {
        "level": args.level,
        "passed": all_passed,
        "criteria": [
            {"index": r.index, "name": r.name, "passed": r.passed,
             "detail": r.detail, "seconds": round(r.seconds, 3)}
            for r in results
        ],
    }
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.index:2d} {r.name:24s} {r.seconds:7.2f}s  {r.detail}")
    lines.append("all criteria passed" if all_passed else "FAILURES present")
    _emit(args, obj, lines)
    return EXIT_OK if all_passed else EXIT_VALIDATION


def cmd_sample(args) -> int:
    per_sample = BarrelParams(args.m, args.k).n_vertices // 2
    if args.samples * per_sample > SAMPLE_IDS_CAP:
        raise TooLargeError(f"{args.samples} samples of {per_sample} edges exceed the cap of "
                            f"{SAMPLE_IDS_CAP} edge ids")
    sampler = transfer.UniformSampler(args.m, args.k)
    rng = random.Random(args.seed)
    # Each draw is encoded as it is made; only the encoded pieces are kept, and
    # nothing is written until every draw has passed the int check.
    freqs: dict[tuple[int, ...], int] = {}
    pieces: list[str] = []
    for _ in range(args.samples):
        ids = sampler.draw(rng).sorted_ids()
        if not {int}.issuperset(map(type, ids)):
            raise StructuralViolationError("a sampled edge id is not an int")
        if args.format == "csv":
            freqs[ids] = freqs.get(ids, 0) + 1
        elif args.format == "text":
            pieces.append(" ".join(map(str, ids)) + "\n")
        else:
            if pieces:
                pieces.append(", ")
            pieces.append(json.dumps(ids))
    if args.format == "csv":
        writer = csv.writer(types.SimpleNamespace(write=pieces.append))
        writer.writerow(["matching_edges", "count"])
        for ids, cnt in sorted(freqs.items()):
            writer.writerow([";".join(map(str, ids)), cnt])
        _write_out(args.out, *pieces)
    elif args.format == "text":
        _write_out(args.out, *pieces)
    else:  # the bytes of json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n"
        dumps = json.dumps
        _write_out(args.out, f'{{"k": {dumps(args.k)}, "m": {dumps(args.m)}, "samples": [',
                   *pieces, f'], "seed": {dumps(args.seed)}}}\n')
    return EXIT_OK


def cmd_render(args) -> int:
    matching = None
    params = BarrelParams(args.m, args.k)
    if params.n_vertices > RENDER_VERTEX_CAP:  # before the sampler or the graph is built
        raise TooLargeError(f"{params.n_vertices} vertices exceeds render cap "
                            f"{RENDER_VERTEX_CAP}")
    if args.what != "graph" and args.seed is not None:
        matching = transfer.sample_uniform(args.m, args.k, args.seed)
    g = build_graph(params)
    if args.what != "graph" and matching is None:
        index = args.index if args.index is not None else 0
        matching = next(itertools.islice(enumerate_matchings(g), index, None), None)
        if matching is None:
            raise BarrelError(f"matching index {index} out of range")
    _write_out(args.out, render.render_view(g, args.what, matching))
    return EXIT_OK


def _coordinates(text: str) -> list[float]:
    """argparse type of --eta/--lambda: comma-separated numbers, empty items skipped."""
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="barreldimer",
                     description="Count, diagonalize, and sample perfect matchings "
                                 "of m-barrel fullerene graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mk(p, k_required=True):
        p.add_argument("--m", type=int, required=True, help="barrel width (>= 3)")
        if k_required:
            p.add_argument("--k", type=int, required=True, help="hexagon rings (>= 0)")

    def add_output(p, fn, formats=("json", "text"), default="json"):
        """--format (none when formats is empty), --out and the handler, after
        the subcommand's own arguments."""
        if formats:
            p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--out")
        p.set_defaults(fn=fn)

    p = sub.add_parser("count", help="exact matching count by one or all methods")
    add_mk(p)
    p.add_argument("--method", choices=[*COUNT_METHODS, "all"], default="transfer")
    add_output(p, cmd_count)

    p = sub.add_parser("growth", help="growth constant, dominant sector, entropy")
    add_mk(p, k_required=False)
    add_output(p, cmd_growth)

    p = sub.add_parser("spectrum", help="verified Bethe spectrum of one sector")
    add_mk(p, k_required=False)
    p.add_argument("--p", type=int, required=True, help="sector cardinality")
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    add_output(p, cmd_spectrum)

    p = sub.add_parser("asymptotic", help="walker-determinant estimates")
    add_mk(p)
    p.add_argument("--aggregate", action="store_true",
                   help="sum the estimate over admissible boundaries and shifts")
    p.add_argument("--n", type=int, default=None, help="walker number (default n0)")
    p.add_argument("--eta", type=_coordinates,
                   help="comma-separated start coordinates (site/2)")
    p.add_argument("--lambda", dest="lam", type=_coordinates,
                   help="comma-separated end coordinates; their order gives the shift class")
    add_output(p, cmd_asymptotic)

    p = sub.add_parser("validate", help="run the self-validation criteria")
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    add_output(p, cmd_validate, default="text")

    p = sub.add_parser("sample", help="exactly uniform random matchings")
    add_mk(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_output(p, cmd_sample, ("json", "text", "csv"), "text")

    p = sub.add_parser("render", help="SVG drawing of graph, tiling, or paths")
    add_mk(p)
    p.add_argument("--what", choices=["graph", "tiling", "paths"], default="graph")
    p.add_argument("--seed", type=int, default=None,
                   help="render a uniformly sampled matching")
    p.add_argument("--index", type=int, default=None,
                   help="render the i-th matching in enumeration order")
    add_output(p, cmd_render, ())

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.10.7 limits int -> str
        sys.set_int_max_str_digits(0)  # exact counts may have any number of digits
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", None) is not None and args.samples < 0:
        parser.error("--samples must be >= 0")
    if getattr(args, "index", None) is not None and args.index < 0:
        parser.error("--index must be >= 0")
    try:
        _check_out(args.out)
        return args.fn(args)
    except BarrelError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
