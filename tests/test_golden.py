"""Golden corpus of CLI outputs: stdout, stderr and exit code per call.

``tests/golden/cli.json`` records, for the ``gen`` calls in ``FILES``, the
files they write, and for every command in ``COMMANDS`` and every
malformed file in ``MALFORMED``, what ``novikit`` printed and returned.
The test replays all of it in-process through ``cli.main`` and compares
byte for byte.  The recorded outputs include the known wrong answer
(``bench/NOTES.md``, seed defect (a)): a change that fixes it updates the
entries it fixes and says which, as the fix of seed defect (b) did.

Rewrite the corpus from the current code with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from novikit.cli import main
from test_cli import _mutate

CORPUS = Path(__file__).with_name("golden") / "cli.json"
DIR = "{dir}"  # stands for the directory of the files in recorded argv and output

# name -> gen argv.  Random models of 2-8 pairs in f2 and q at densities 1/2
# and 1/4, a tilted line family, the pathological model, and the two bases of
# the malformed files (the same calls as the fixtures of tests/test_cli.py).
# Seed defect (a), a false FAIL divergence, shows in r5-f2-2, r8-q-2 and
# r8-q-4.  Seed defect (b), barcodes that differed from the prescribed ones,
# is fixed: the 12 barcodes it got wrong (r4-f2-2, r6-q-2 and r8-q-4 at
# every t, r5-f2-2 at t = 1/4, r8-f2-4 at t = 1/4 and 3/4) now equal
# models.elementary_bars of the unconjugated model.
FILES = {
    "base-random.nvk": ["gen", "--seed", "4", "--model", "random"],
    "base-line.nvk": ["gen", "--seed", "1", "--model", "line", "--pairs", "2",
                      "--rank", "0"],
    "r2-q-4.nvk": ["gen", "--seed", "11", "--pairs", "2", "--closed", "2",
                   "--field", "q", "--density", "1/4"],
    "r3-f2-4.nvk": ["gen", "--seed", "12", "--pairs", "3", "--closed", "2",
                    "--density", "1/4"],
    "r3-q-2.nvk": ["gen", "--seed", "13", "--pairs", "3", "--closed", "2",
                   "--field", "q"],
    "r4-f2-2.nvk": ["gen", "--seed", "31", "--pairs", "4", "--closed", "2"],
    "r4-q-4.nvk": ["gen", "--seed", "15", "--pairs", "4", "--closed", "2",
                   "--field", "q", "--density", "1/4"],
    "r5-f2-2.nvk": ["gen", "--seed", "31", "--pairs", "5", "--closed", "2"],
    "r6-q-2.nvk": ["gen", "--seed", "30", "--pairs", "6", "--closed", "2",
                   "--field", "q"],
    "r6-f2-4.nvk": ["gen", "--seed", "18", "--pairs", "6", "--closed", "2",
                    "--density", "1/4"],
    "r8-f2-4.nvk": ["gen", "--seed", "31", "--pairs", "8", "--closed", "2",
                    "--density", "1/4"],
    "r8-q-2.nvk": ["gen", "--seed", "33", "--pairs", "8", "--closed", "2",
                   "--field", "q"],
    "r8-q-4.nvk": ["gen", "--seed", "51", "--pairs", "8", "--closed", "2",
                   "--field", "q", "--density", "1/4"],
    "line.nvk": ["gen", "--seed", "5", "--model", "line", "--pairs", "3",
                 "--closed", "2", "--rank", "0",
                 "--slopes=1/16,-1/16,0/1,1/8,-1/8,1/16,0/1,-1/16"],
    "pathological.nvk": ["gen", "--model", "pathological"],
}

# Commands run on every file except the bases; {f} is the file's path.
COMMANDS = (
    ["validate", "{f}"],
    ["validate", "{f}", "--grid", "2"],
    ["barcode", "{f}", "--t", "1/4"],
    ["barcode", "{f}", "--t", "1/2"],
    ["barcode", "{f}", "--t", "3/4"],
    ["beta", "{f}", "--t", "0/1,1/2,1/1"],
    ["rho", "{f}", "--cycle", "{cycle}", "--t", "1/2"],
    ["scan", "{f}", "--cycle", "{cycle}"],
)

# The malformed files of tests/test_cli.py::TestInputContract, and the
# largest prime field there: (name, base, first line starting with, new line).
MALFORMED = (
    ("bad-f4.nvk", "base-random.nvk", "field =", "field = f4"),
    ("bad-fx.nvk", "base-random.nvk", "field =", "field = fx"),
    ("bad-omega0.nvk", "base-random.nvk", "omega0 =", "omega0 = 1/1"),
    ("bad-rank.nvk", "base-random.nvk", "rank =", "rank = -1"),
    ("bad-boundary-s.nvk", "base-random.nvk", "[boundary", "[boundary s=2/1]"),
    ("bad-continuation.nvk", "base-random.nvk", None, "[continuation foo]"),
    ("bad-cutoff.nvk", "base-random.nvk", "cutoff =", "cutoff = -1/1"),
    ("bad-huge-prime.nvk", "base-random.nvk", "field =",
     "field = f1000000000000000000000000000057"),
    ("bad-to-above-1.nvk", "base-line.nvk", "[continuation",
     "[continuation from=0/1 to=7/1]"),
    ("bad-from-below-0.nvk", "base-line.nvk", "[continuation",
     "[continuation from=-1/2 to=1/4]"),
    ("big-prime.nvk", "base-line.nvk", "field =", "field = f2147483647"),
)
MALFORMED_COMMANDS = (["validate", "{f}"], ["barcode", "{f}", "--t", "1/2"])


def _call(argv, directory):
    argv = [a.replace(DIR, directory) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": [a.replace(directory, DIR) for a in argv],
            "stdout": out.getvalue().replace(directory, DIR),
            "stderr": err.getvalue().replace(directory, DIR),
            "exit": code}


def replay(directory: str):
    """Every corpus call in order, run in ``directory``: a list of records."""
    records = []
    texts = {}
    for name, argv in FILES.items():
        rec = _call(argv, directory)
        records.append(rec)
        texts[name] = rec["stdout"]
        Path(directory, name).write_text(rec["stdout"], encoding="utf-8")
    for name in FILES:
        if name.startswith("base-"):
            continue
        cycle = "x" if name == "pathological.nvk" else "z0"
        for cmd in COMMANDS:
            argv = [a.format(f=f"{DIR}/{name}", cycle=cycle) for a in cmd]
            records.append(_call(argv, directory))
    for name, base, prefix, replacement in MALFORMED:
        text, _ = _mutate(texts[base], prefix, replacement)
        Path(directory, name).write_text(text, encoding="utf-8")
        for cmd in MALFORMED_COMMANDS:
            records.append(_call([a.format(f=f"{DIR}/{name}") for a in cmd], directory))
    return records


def test_cli_outputs_match_golden_corpus(tmp_path):
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = replay(str(tmp_path))
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for rec, want in zip(got, expected):
        assert rec == want, " ".join(want["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = replay(tmp)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {CORPUS}", file=sys.stderr)
