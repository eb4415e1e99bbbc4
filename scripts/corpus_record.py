#!/usr/bin/env python3
"""One JSON line per ``gen`` call and job of a benchmark corpus.

    python3 scripts/corpus_record.py --workload validate --seeds 1,2 > rec.jsonl

For each seed it writes the workload's corpus with ``novikit gen`` into a
temporary directory, then runs every job of ``bench/workloads.build_jobs``
as the benchmark does (a ``python -m novikit`` subprocess, or
``bench/stability_job.py``).  Each line holds the seed, the call's label,
its exit code, the sha256 of its stdout and of its stderr, and, for jobs,
the ``bench/workloads.check`` verdict (null when the answer is right).
Records from two checkouts compare with ``diff``.  The script imports
``bench/`` and runs this checkout's ``src/``; it writes nothing outside
its temporary directory.
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


def _record(seed: int, label: str, code: int, out: bytes, err: bytes, verdict) -> str:
    return json.dumps({"seed": seed, "label": label, "code": code,
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
            yield _record(seed, " ".join(f.gen_args()), code, out, err, None)
        for job in build_jobs(workload, files, corpus):
            if job.kind == "stability":
                argv = [str(ROOT / "bench" / "stability_job.py"), *job.argv(corpus)]
            else:
                argv = ["-m", "novikit", *job.argv(corpus)]
            code, out, err = _run(argv, env)
            verdict = check(job, code, out.decode(errors="replace"),
                            err.decode(errors="replace"))
            yield _record(seed, job.label(), code, out, err, verdict)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("slices", "validate", "stability"))
    parser.add_argument("--seeds", required=True,
                        help="comma-separated workload seeds, such as 1,2")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env.pop("NOVIKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for seed in (int(s) for s in args.seeds.split(",") if s):
        for line in records(args.workload, seed, env):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
