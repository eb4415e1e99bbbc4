"""Committed output records of the benchmark corpora (``tests/records``).

``stability.jsonl`` and ``slices.jsonl`` hold one ``scripts/corpus_record.py``
record per ``gen`` call and job of those workloads at seeds 1 and 2, and
``validate.jsonl`` those of the validate workload at seeds 1 to 14: exit
code, sha256 of stdout and stderr, and the oracle verdict.  The full check
runs every call as the benchmark does, in a subprocess, and names each
record that changed:

    python3 scripts/corpus_record.py --check tests/records/stability.jsonl

A change that changes an output rewrites the records it changes, and says
which, as for the golden corpus.  These tests replay the stability records
of seed 1, and the validate records of seeds 1, 2 and 6, in-process.
Seeds 2 and 6 hold four of the six jobs that seed defect (a) once failed
(now ``OK``), and every seed a ``FAIL divergence`` of the pathological
model.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from novikit.cli import main

ROOT = Path(__file__).resolve().parent.parent
RECORDS = Path(__file__).with_name("records")


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _replay(monkeypatch, tmp_path, workload, seed):
    """The committed records of one workload and seed, and the same
    records made again in this process."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import stability_job
    from corpus_record import record
    from workloads import build_jobs, check, corpus_files

    lines = (RECORDS / f"{workload}.jsonl").read_text(encoding="utf-8").splitlines()
    want = [r for r in map(json.loads, lines) if r["seed"] == seed]
    got = []
    files = corpus_files(workload, seed)
    for f in files:
        code, out, err = _call(f.gen_args())
        (tmp_path / f.name).write_text(out, encoding="utf-8")
        got.append(record(workload, seed, " ".join(f.gen_args()), code,
                          out.encode(), err.encode(), None))
    for job in build_jobs(workload, files, tmp_path):
        if job.kind == "stability":
            code, out, err = 0, stability_job.run(*job.argv(tmp_path)) + "\n", ""
        else:
            code, out, err = _call(job.argv(tmp_path))
        got.append(record(workload, seed, job.label(), code, out.encode(), err.encode(),
                          check(job, code, out, err)))
    return want, [json.loads(r) for r in got]


def test_stability_seed_1_records_replay_in_process(monkeypatch, tmp_path):
    from_records, got = _replay(monkeypatch, tmp_path, "stability", 1)
    from corpus_record import differences

    assert len(from_records) == 32
    assert differences(from_records, got) == []


@pytest.mark.parametrize("seed", [1, 2, 6])
def test_validate_records_replay_in_process(monkeypatch, tmp_path, seed):
    from_records, got = _replay(monkeypatch, tmp_path, "validate", seed)
    from corpus_record import differences

    assert len(from_records) == 68
    assert differences(from_records, got) == []
