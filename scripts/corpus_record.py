#!/usr/bin/env python3
"""One JSON line per ``gen`` call and job of a benchmark corpus.

    python3 scripts/corpus_record.py --workload validate --seeds 1,2 > rec.jsonl
    python3 scripts/corpus_record.py --check tests/records/stability.jsonl

For each seed it writes the workload's corpus with ``novikit gen`` into a
temporary directory, then runs every job of ``bench/workloads.build_jobs``
as the benchmark does (a ``python -m novikit`` subprocess, or
``bench/stability_job.py``).  Each line holds the workload, the seed, the
call's label, its exit code, the sha256 of its stdout and of its stderr,
and, for jobs, the ``bench/workloads.check`` verdict (null when the answer
is right).  ``--check FILE`` records again every workload and seed that
FILE holds, prints each record that differs from FILE's, is missing or is
new, and exits 1 if there is one.  The script imports ``bench/`` and runs
this checkout's ``src/``; it writes nothing outside its temporary
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import build_jobs, check, corpus_files  # noqa: E402


def _run(argv: list[str], env: dict) -> tuple[int, bytes, bytes]:
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def record(workload: str, seed: int, label: str, code: int, out: bytes, err: bytes,
           verdict) -> str:
    return json.dumps({"workload": workload, "seed": seed, "label": label, "code": code,
                       "stdout": hashlib.sha256(out).hexdigest(),
                       "stderr": hashlib.sha256(err).hexdigest(),
                       "verdict": verdict})


def records(workload: str, seed: int, env: dict):
    """The records of one workload at one seed, gen calls first."""
    files = corpus_files(workload, seed)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp)
        for f in files:
            code, out, err = _run(["-m", "novikit", *f.gen_args()], env)
            (corpus / f.name).write_bytes(out)
            yield record(workload, seed, " ".join(f.gen_args()), code, out, err, None)
        for job in build_jobs(workload, files, corpus):
            if job.kind == "stability":
                argv = [str(ROOT / "bench" / "stability_job.py"), *job.argv(corpus)]
            else:
                argv = ["-m", "novikit", *job.argv(corpus)]
            code, out, err = _run(argv, env)
            verdict = check(job, code, out.decode(errors="replace"),
                            err.decode(errors="replace"))
            yield record(workload, seed, job.label(), code, out, err, verdict)


def differences(want: list[dict], got: list[dict]) -> list[str]:
    """One line per record that differs between two lists, keyed by
    workload, seed and label."""
    def keyed(recs):
        return {(r["workload"], r["seed"], r["label"]): r for r in recs}

    old, new = keyed(want), keyed(got)
    lines = []
    for key in [*old, *(k for k in new if k not in old)]:
        a, b = old.get(key), new.get(key)
        if a != b:
            what = "missing" if b is None else "new" if a is None else \
                ", ".join(f for f in a if a[f] != b.get(f))
            lines.append(f"{key[0]} seed {key[1]}: {key[2]}: {what}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("slices", "validate", "stability"))
    parser.add_argument("--seeds", help="comma-separated workload seeds, such as 1,2")
    parser.add_argument("--check", metavar="FILE",
                        help="record FILE's workloads and seeds again and name every change")
    args = parser.parse_args(argv)
    if (args.check is None) == (args.workload is None or args.seeds is None):
        parser.error("give --workload and --seeds, or --check FILE")
    env = dict(os.environ)
    env.pop("NOVIKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if args.check is None:
        for seed in (int(s) for s in args.seeds.split(",") if s):
            for line in records(args.workload, seed, env):
                print(line, flush=True)
        return 0
    with open(args.check, encoding="utf-8") as fh:
        want = [json.loads(line) for line in fh if line.strip()]
    runs = dict.fromkeys((r["workload"], r["seed"]) for r in want)
    got = [json.loads(line) for workload, seed in runs for line in records(workload, seed, env)]
    changed = differences(want, got)
    for line in changed:
        print(line)
    print(f"{len(changed)} of {len(want)} records differ", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
