#!/usr/bin/env python3
"""Checks of the benchmark itself, run in-process in about half a minute.

    python3 bench/selfcheck.py

1. Every answer of a small corpus passes its oracle, or fails in one of the
   known seed-defect classes.
2. Injected wrong answers (altered barcode rows and beta values, flipped
   validate verdicts, an altered spectral value, under- and over-reported
   bottleneck distances) are caught and fail_share rises.  A barcode
   altered in the pattern of seed defect (b) is put in that class; every
   other alteration, among them a moved finite bar, a near miss of the
   pattern and a false ``FAIL divergence`` on a file smaller than seed
   defect (a) was seen on, makes the run report ``correct: false``.
3. On a traced pass, the top-level spans cover at least 95% of the traced
   wall time (the per-layer self times add up to the covered part), the
   check fails on a pass whose jobs run outside any span, and the traced
   layers saw the calls they should.
4. Every metric BENCHMARK.json lists is one the benchmark computes.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction

import run
from workloads import (DEFECT_A_MIN_PAIRS, KNOWN_DEFECTS, SEED_DEFECT_B, build_jobs, check,
                       corpus_files, pq)


class SelfCheckError(AssertionError):
    pass


def expect(condition: bool, message) -> None:
    if not condition:
        raise SelfCheckError(message)


def write_corpus(workload: str, seed: int, keep: int | None):
    files = corpus_files(workload, seed)[:keep]
    corpus = run.ROOT / ".bench_work" / f"selfcheck-{workload}"
    shutil.rmtree(corpus, ignore_errors=True)
    corpus.mkdir(parents=True)
    for f in files:
        code, out, _ = run.call_in_process(f.gen_args(), stability=False)
        expect(code == 0, f.gen_args())
        (corpus / f.name).write_text(out, encoding="utf-8")
    return files, corpus


def answers(jobs, corpus):
    return [(job, *run.call_in_process(job.argv(corpus), job.kind == "stability"))
            for job in jobs]


def fail_share(verdicts) -> float:
    return sum(v is not None for v in verdicts) / len(verdicts)


def shift_bar(out: str, unbounded: bool) -> str:
    """Move the birth of the first finite (or unbounded) bar down by one."""
    lines = out.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        degree, birth, death = line.split(",")
        if (death == "inf") == unbounded:
            lines[i] = f"{degree},{Fraction(birth) - 1},{death}"
            return "\n".join(lines) + "\n"
    raise SelfCheckError("no bar to alter")


def swap_bars(out: str, death_shift: Fraction) -> str:
    """Move a quarter of birth from the second finite bar to the first and
    shift the second one's death; with a positive shift this is the
    pattern of seed defect (b)."""
    lines = out.splitlines()
    finite = [i for i, line in enumerate(lines[1:], start=1) if not line.endswith(",inf")]
    if len(finite) < 2:
        raise SelfCheckError("fewer than two finite bars to alter")
    quarter = Fraction(1, 4)
    for i, birth_shift, shift in ((finite[0], quarter, 0), (finite[1], -quarter, death_shift)):
        degree, birth, death = lines[i].split(",")
        lines[i] = f"{degree},{Fraction(birth) + birth_shift},{Fraction(death) + shift}"
    return "\n".join(lines) + "\n"


def main() -> int:
    env = run.job_env()
    run.preflight(env)
    corpora = [("slices", 0, 4), ("validate", 0, None), ("stability", 0, 3)]
    answered, all_jobs = [], []
    for workload, seed, keep in corpora:
        files, corpus = write_corpus(workload, seed, keep)
        jobs = build_jobs(workload, files, corpus)
        all_jobs.append((workload, files, jobs, corpus))
        answered += answers(jobs, corpus)

    verdicts = [check(job, code, out, err) for job, code, out, err in answered]
    unknown = [(job.label(), v) for (job, *_), v in zip(answered, verdicts)
               if v and v not in KNOWN_DEFECTS]
    expect(not unknown, f"unexpected failures: {unknown}")
    print(f"1. {len(verdicts)} answers checked, {fail_share(verdicts):.3f} fail share, "
          "no failure outside the seed defects")

    injected = list(verdicts)

    def first_passing(kind, model, pairs):
        for i, (job, code, out, err) in enumerate(answered):
            if (verdicts[i] is None and (job.kind, job.file.model) == (kind, model)
                    and pairs(job.file.pairs)):
                return i, job, code, out, err
        raise SelfCheckError(f"no passing {kind} job on a {model} file to alter")

    def under_report(out):
        """Report half the distance at t = 1/2."""
        rows = json.loads(out)
        for row in rows:
            if row["t"] == "1/2":
                row["bottleneck"] = pq(Fraction(row["bottleneck"]) / 2)
        return json.dumps(rows)

    any_size = lambda n: True  # noqa: E731
    fail_divergence = lambda code, out: (1, "FAIL divergence at s=0/1: injected\n")  # noqa: E731
    # (job kind, model, file size, alteration, the class it must get: None
    # for any class but a seed defect).
    flips = [
        ("barcode", "random", any_size, lambda code, out: (code, swap_bars(out, Fraction(1))),
         SEED_DEFECT_B),
        ("barcode", "random", any_size, lambda code, out: (code, swap_bars(out, Fraction(-1))), None),
        ("barcode", "random", any_size, lambda code, out: (code, shift_bar(out, False)), None),
        ("barcode", "random", any_size, lambda code, out: (code, shift_bar(out, True)), None),
        ("beta", "random", any_size,
         lambda code, out: (code, out.replace(out.split()[0], f"{Fraction(out.split()[0]) + 1}", 1)),
         None),
        ("validate", "random", lambda n: n < DEFECT_A_MIN_PAIRS, fail_divergence, None),
        ("validate", "line", any_size, fail_divergence, None),
        ("validate", "pathological", any_size, lambda code, out: (0, "OK 1 samples validated\n"), None),
        ("rho", "random", any_size, lambda code, out: (code, f"{Fraction(out.strip()) + 1}\n"), None),
        ("stability", "line", any_size,
         lambda code, out: (code, out.replace('"bottleneck": "0/1"', '"bottleneck": "-1/1"', 1)), None),
        ("stability", "line", any_size, lambda code, out: (code, under_report(out)), None),
    ]
    for kind, model, pairs, flip, want in flips:
        i, job, code, out, err = first_passing(kind, model, pairs)
        verdict = check(job, *flip(code, out), err)
        expect(verdict is not None, (kind, model, job.file.pairs, "injected answer passed"))
        expect(verdict == want if want else verdict not in KNOWN_DEFECTS,
               (kind, model, job.file.pairs, verdict))
        injected[i] = verdict
    expect(fail_share(injected) > fail_share(verdicts), "fail share did not rise")
    print(f"2. {len(flips)} injected wrong answers caught: fail share "
          f"{fail_share(verdicts):.3f} -> {fail_share(injected):.3f}, correct -> false")

    from tracer import TraceError, Tracer

    tracer = Tracer()
    for workload, files, jobs, corpus in all_jobs:
        wall, _, gen_ok, summary = run.replay(files, jobs, corpus, tracer)
        share = tracer.check_coverage(summary, wall)
        self_s = sum(v for k, v in summary.items() if k.endswith(".self_s"))
        expect(gen_ok, "in-process gen differs from the corpus")
        expect(summary["fileformat.parse.calls"] == len(jobs), "parse calls != jobs")
        print(f"3. {workload}: self times {self_s:.4f} s, top-level spans cover {share:.1%} "
              f"of the {wall:.4f} s traced pass over {len(jobs)} jobs")
    # Jobs the spans miss: the slices pass again with a span on bottleneck
    # only, which slices never calls.
    workload, files, jobs, corpus = all_jobs[0]
    blind = Tracer([("invariants", "bottleneck")])
    blind_wall, _, _, blind_summary = run.replay(files, jobs, corpus, blind)
    try:
        blind.check_coverage(blind_summary, blind_wall)
    except TraceError:
        print(f"3. {workload} with no span around its jobs: top-level spans cover "
              f"{blind_summary['covered_s'] / blind_wall:.1%}, and the coverage check fails")
    else:
        raise SelfCheckError("coverage check passed a pass without top-level spans")

    lists = run.load_metric_lists()
    layer = run.per_layer([summary], 0.0, 0.0)
    missing = [m["name"] for m in lists["1"] if m["name"] not in layer]
    fake = [[(run.Proc(0, 0.1 * (i + 1), 0.1, 1024), None, 1.0)] * 3 for i in range(20)]
    e2e, _ = run.end_to_end(fake, [1.0])
    missing += [m["name"] for m in lists["0"] if m["name"] not in e2e]
    expect(not missing, f"listed but not computed: {missing}")
    print(f"4. all {len(lists['0'])} end-to-end and {len(lists['1'])} per-layer metrics computed")
    for *_, corpus in all_jobs:
        shutil.rmtree(corpus, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
