"""One stability job: parse a line family, take its barcode at every sample
and the bottleneck distance of each to the barcode at t = 0.

    PYTHONPATH=src python3 bench/stability_job.py family.nvk

Prints one JSON list, a row per sample: t, the distance and the barcode CSV.
"""

import json
import sys

from novikit.fileformat import parse
from novikit.invariants import bottleneck
from novikit.reduction import persistence_barcode


def _pq(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def run(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        cx = parse(fh.read())
    barcodes = [persistence_barcode(cx, t, prevalidated=True) for t in cx.samples]
    rows = [{"t": _pq(t), "bottleneck": _pq(bottleneck(barcodes[0], b)), "bars": b.to_csv()}
            for t, b in zip(cx.samples, barcodes)]
    return json.dumps(rows)


def main(argv) -> int:
    print(run(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
