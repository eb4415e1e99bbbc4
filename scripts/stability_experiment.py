#!/usr/bin/env python3
"""Bottleneck stability of barcodes under scaled tilts.

For one base model and a fixed tilt direction, sweeps the perturbation
scale, compares barcode(0) with barcode(t) at every sample, and records
the bottleneck distance against the shift-constant bound t*(s1+s2).

    python3 scripts/stability_experiment.py --scales 1,2,4 > stability.csv
"""

import argparse
import sys
from fractions import Fraction

from novikit import bottleneck, persistence_barcode
from novikit.fields import render_fraction
from novikit.models import ModelSpec, gen_elementary, line_family, shift_constants


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scales", default="1,2,4",
                        help="comma-separated rational tilt scales")
    args = parser.parse_args(argv)

    spec = ModelSpec(seed=args.seed, lattice_rank=0, n_pairs=2, n_closed=1,
                     length_range=(Fraction(2), Fraction(3)))
    base = gen_elementary(spec)
    direction = [Fraction((-1) ** i, 8) for i in range(len(base.generators))]
    direction[-1] = Fraction(0)

    print("scale,t,bottleneck,bound")
    for raw in args.scales.split(","):
        scale = Fraction(raw)
        fam = line_family(base, direction, alpha_norm=scale)
        s_total = sum(shift_constants([a * scale for a in direction]))
        b0 = persistence_barcode(fam, 0, prevalidated=True)
        for t in fam.samples:
            bt = persistence_barcode(fam, t, prevalidated=True)
            d = bottleneck(b0, bt)
            print(",".join(render_fraction(x) for x in (scale, t, d, t * s_total)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
