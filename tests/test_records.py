"""Committed output records of two benchmark corpora (``tests/records``).

``stability.jsonl`` and ``slices.jsonl`` hold one ``scripts/corpus_record.py``
record per ``gen`` call and job of those workloads at seeds 1 and 2: exit
code, sha256 of stdout and stderr, and the oracle verdict.  The full check
runs every call as the benchmark does, in a subprocess, and names each
record that changed:

    python3 scripts/corpus_record.py --check tests/records/stability.jsonl

A change that changes an output rewrites the records it changes, and says
which, as for the golden corpus.  This test replays the stability records
of seed 1 in-process.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from novikit.cli import main

ROOT = Path(__file__).resolve().parent.parent
RECORDS = Path(__file__).with_name("records")


def test_stability_seed_1_records_replay_in_process(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import stability_job
    from corpus_record import differences, record
    from workloads import build_jobs, check, corpus_files

    lines = (RECORDS / "stability.jsonl").read_text(encoding="utf-8").splitlines()
    want = [r for r in map(json.loads, lines) if r["seed"] == 1]
    got = []
    files = corpus_files("stability", 1)
    for f in files:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(f.gen_args())
        (tmp_path / f.name).write_text(out.getvalue(), encoding="utf-8")
        got.append(record("stability", 1, " ".join(f.gen_args()), code,
                          out.getvalue().encode(), err.getvalue().encode(), None))
    for job in build_jobs("stability", files, tmp_path):
        out = stability_job.run(*job.argv(tmp_path)) + "\n"
        got.append(record("stability", 1, job.label(), 0, out.encode(), b"",
                          check(job, 0, out, "")))
    assert len(want) == 32
    assert differences(want, [json.loads(r) for r in got]) == []
