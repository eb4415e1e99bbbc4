#!/usr/bin/env python3
"""Batch semicontinuity scans over randomly tilted families.

Generates rank-0 elementary models, tilts their action offsets, scans the
spectral value curve of the first closed generator, and writes a CSV
summary plus the full JSON report of the first family.

    python3 scripts/semicontinuity_experiment.py --families 25 --out-dir out/
"""

import argparse
import pathlib
import random
import sys
from fractions import Fraction

from novikit import basis_chain, scan_semicontinuity
from novikit.fields import render_fraction
from novikit.models import ModelSpec, gen_elementary, line_family, shift_constants


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)

    rows = ["seed,s1,s2,rho0,right_limit,usc,lsc,max_drift"]
    first_report = None
    for k in range(args.families):
        spec = ModelSpec(seed=args.seed + k, lattice_rank=0,
                         n_pairs=rng.choice((1, 2)), n_closed=1,
                         length_range=(Fraction(2), Fraction(3)))
        base = gen_elementary(spec)
        slopes = [Fraction(rng.randint(-2, 2), 8) for _ in base.generators]
        slopes[-1] = Fraction(0)
        fam = line_family(base, slopes)
        closed = next(g.name for g in fam.generators if g.name.startswith("z"))
        report = scan_semicontinuity(fam, basis_chain(fam, closed), fam.samples)
        s1, s2 = shift_constants(slopes)
        drift = max(abs(report.curve(t) - report.value_at_zero)
                    for t in report.curve.knots)
        rows.append(",".join([
            str(spec.seed), render_fraction(s1), render_fraction(s2),
            render_fraction(report.value_at_zero),
            render_fraction(report.right_limit), str(report.usc_at_zero).lower(),
            str(report.lsc_at_zero).lower(), render_fraction(drift),
        ]))
        if first_report is None:
            first_report = report

    (out / "semicontinuity_summary.csv").write_text("\n".join(rows) + "\n")
    (out / "first_family_report.json").write_text(first_report.to_json() + "\n")
    print(f"wrote {args.families} scans to {out}/semicontinuity_summary.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
