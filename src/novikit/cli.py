"""Batch front-end: validate, barcode, rho, beta, scan, gen.

Exit codes: 0 success, 1 domain failure (validation, divergence, or a
violated semicontinuity verdict), 2 input error (unreadable file, parse
error, bad flags, or any other ``ValueError`` a command raises, such as
a t with no boundary sample), 3 an internal limit was hit (the iteration
cap of scan refinement; the message names it).
Rationals on the command line and in all output are "p/q" strings.
Input files name their field as q or f<p>, p a prime below 2^31.
``rho`` prints the spectral value only; the spectrum itself is
``invariants.spectrum``.  Commands run serially; the environment variable
NOVIKIT_THREADS is accepted and ignored.

Each command loads only the modules it runs.  All of them load
``fileformat``, ``complexes``, ``series``, ``periods`` and ``fields``;
``validate`` adds ``cancellation``; ``barcode`` adds ``reduction``;
``beta`` adds ``reduction`` and ``invariants``; ``rho`` adds
``cancellation`` and ``invariants``; ``scan`` adds those and
``semicontinuity`` and ``envelope``; ``gen`` adds ``models``.
Start-up is most of a typical job, and where bytecode is not cached
(PYTHONDONTWRITEBYTECODE=1, a read-only install) each run compiles every
module it loads.  Hence ``reduction`` (the slice reduction behind
barcodes) and ``cancellation`` (the rank-2 cancellation behind ``rho``,
``scan`` and the divergence check) are separate modules, imported inside
the commands that use them: they compile in about 2.0 and 4.4 ms, where
the one module they replace took 6.2 ms (medians of 150 interleaved
``compile()`` calls, Python 3.11, 2-core Xeon).  For the same reason
bottleneck distances (``matching``) and the scan (``semicontinuity``)
are not in ``invariants``.  The package uses no
``dataclasses`` (whose import pulls in ``inspect``).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .complexes import FilteredComplex, basis_chain, chain_cleanup, validate
from .fields import render_fraction
from .fileformat import ParseError, emit, parse

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _load(path: str, validate_first: bool = True) -> FilteredComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise SystemExit(_input_error(f"cannot read {path}: {err}"))
    try:
        cx = parse(text)
    except ParseError as err:
        raise SystemExit(_input_error(str(err)))
    if validate_first:
        report = validate(cx)
        if not report:
            for kind, witness in report.violations[:5]:
                print(f"FAIL {kind}: {witness}", file=sys.stderr)
            raise SystemExit(EXIT_DOMAIN)
    return cx


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _fraction_arg(raw: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {raw!r}")


def _count_arg(raw: str) -> int:
    try:
        n = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"negative count {raw!r}")
    return n


def _fraction_list(raw: str) -> list[Fraction]:
    values = [_fraction_arg(x) for x in raw.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError(f"empty rational list {raw!r}")
    return values


def _cycle_chain(cx: FilteredComplex, names_arg: str):
    names = [n for n in names_arg.split(",") if n]
    if not names:
        raise SystemExit(_input_error("empty cycle name list"))
    chain = {}
    for name in names:
        for k, v in basis_chain(cx, name).items():
            chain[k] = chain[k] + v if k in chain else v
    return chain_cleanup(chain)


def cmd_validate(args) -> int:
    from .cancellation import floer_divergence_check

    cx = _load(args.path, validate_first=False)
    samples = cx.samples
    if args.grid and args.grid < len(samples):
        # Evenly spaced indices, rounded exactly (half to even).
        last, span = len(samples) - 1, max(1, args.grid - 1)
        picked = sorted({samples[round(Fraction(i * last, span))]
                         for i in range(args.grid)})
    else:
        picked = samples
    report = validate(cx, picked)
    if not report:
        for kind, witness in report.violations:
            print(f"FAIL {kind}: {witness}")
        return EXIT_DOMAIN
    # The check reads only the matrix and the cutoff: one run per matrix
    # object (equal samples share one), reported at the first sample that
    # has it.
    checked: set = set()
    for s in picked:
        matrix = cx.boundary_matrix(s)
        if id(matrix) in checked:
            continue
        checked.add(id(matrix))
        check = floer_divergence_check(matrix, cx.cutoff)
        if not check:
            w = check.witness
            trace = " ".join(f"({render_fraction(v.v0)},{render_fraction(v.v1)})"
                             for v in w.trace)
            print(f"FAIL divergence at s={render_fraction(s)}: axis {w.axis} "
                  f"stalls at {render_fraction(w.stabilized)}; trace {trace}")
            return EXIT_DOMAIN
    print(f"OK {len(picked)} samples validated")
    return EXIT_OK


def cmd_barcode(args) -> int:
    from .reduction import persistence_barcode

    cx = _load(args.path)
    barcode = persistence_barcode(cx, args.t, prevalidated=True)
    sys.stdout.write(barcode.to_csv())
    return EXIT_OK


def cmd_rho(args) -> int:
    from .invariants import rho

    cx = _load(args.path)
    chain = _cycle_chain(cx, args.cycle)
    res = rho(cx, chain, args.t, args.cutoff)
    print("-inf" if res.degenerate else render_fraction(res.value))
    return EXIT_OK


def cmd_beta(args) -> int:
    from .invariants import boundary_depth

    cx = _load(args.path)
    values = [boundary_depth(cx, t, prevalidated=True) for t in args.t]
    for v in values:
        print(render_fraction(v))
    return EXIT_OK


def cmd_scan(args) -> int:
    from .semicontinuity import scan_semicontinuity

    cx = _load(args.path)
    chain = _cycle_chain(cx, args.cycle)
    grid = args.grid if args.grid else list(cx.samples)
    report = scan_semicontinuity(cx, chain, grid)
    print(report.to_json())
    return EXIT_OK if report.usc_at_zero else EXIT_DOMAIN


def cmd_gen(args) -> int:
    from .models import (
        DEFAULT_SAMPLES,
        ModelSpec,
        gen_elementary,
        gen_pathological,
        gen_random,
        line_family,
    )

    spec = ModelSpec(
        seed=args.seed,
        n_pairs=args.pairs,
        n_closed=args.closed,
        lattice_rank=args.rank,
        cutoff=args.cutoff,
        field_name=args.field,
        density=args.density,
        samples=tuple(args.samples) if args.samples else DEFAULT_SAMPLES,
    )
    if args.model == "elementary":
        cx = gen_elementary(spec)
    elif args.model == "random":
        cx = gen_random(spec)
    elif args.model == "pathological":
        cx = gen_pathological(cutoff=spec.cutoff, field_name=args.field,
                              samples=spec.samples)
    else:
        base = gen_elementary(spec)
        slopes = args.slopes or []
        if len(slopes) < len(base.generators):
            slopes = list(slopes) + [Fraction(0)] * (
                len(base.generators) - len(slopes))
        cx = line_family(base, slopes[: len(base.generators)])
    sys.stdout.write(emit(cx))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="novikit",
        description="Exact invariants of filtered complex families over "
                    "truncated Novikov rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural + divergence checks")
    p.add_argument("path")
    p.add_argument("--grid", type=_count_arg, default=0,
                   help="number of samples to check (default: all)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("barcode", help="persistence barcode CSV at one t")
    p.add_argument("path")
    p.add_argument("--t", type=_fraction_arg, required=True)
    p.set_defaults(func=cmd_barcode)

    p = sub.add_parser("rho", help="spectral value of a cycle at one t")
    p.add_argument("path")
    p.add_argument("--cycle", required=True,
                   help="comma-separated generator names summed with unit "
                        "coefficients")
    p.add_argument("--t", type=_fraction_arg, required=True)
    p.add_argument("--cutoff", type=_fraction_arg, default=None)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("beta", help="boundary depth at one or more t")
    p.add_argument("path")
    p.add_argument("--t", type=_fraction_list, required=True,
                   help="comma-separated rationals")
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("scan", help="semicontinuity report (JSON)")
    p.add_argument("path")
    p.add_argument("--cycle", required=True)
    p.add_argument("--grid", type=_fraction_list, default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("gen", help="emit a generated complex file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=2)
    p.add_argument("--closed", type=int, default=1)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--density", type=_fraction_arg, default=Fraction(1, 2))
    p.add_argument("--cutoff", type=_fraction_arg, default=Fraction(10))
    p.add_argument("--field", choices=("f2", "q"), default="f2")
    p.add_argument("--model",
                   choices=("elementary", "random", "pathological", "line"),
                   default="random")
    p.add_argument("--slopes", type=_fraction_list, default=None,
                   help="tilt slopes for --model line")
    p.add_argument("--samples", type=_fraction_list, default=None)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as err:
        code = err.code
        return code if isinstance(code, int) else EXIT_INPUT
    except ValueError as err:  # every input the commands reject
        return _input_error(str(err))
    except RuntimeError as err:
        from .cancellation import FloerDivergenceError

        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(err, FloerDivergenceError) else EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
