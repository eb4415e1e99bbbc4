#!/usr/bin/env python3
"""The novikit benchmark: seeded workloads run as a closed loop of CLI jobs.

    python3 bench/run.py --workload slices --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports novikit from ``src/`` only.
One client runs one ``python -m novikit ...`` subprocess at a time (or, for
the ``stability`` workload, one ``bench/stability_job.py`` subprocess) and
checks each answer against an oracle that does not run the code under test
(see ``workloads.py``).  Jobs run with ``NOVIKIT_THREADS`` unset.

A run first writes the workload's corpus with ``novikit gen`` three times
(``setup_s`` is the median), then repeats passes over the job list: at least
two, then while one more pass still fits in ``--seconds``.  Every timing
is scaled to the speed of a reference job timed throughout the run (see
``Reference``).  It prints a report with every metric, its unit and sample
count, and as its last line one JSON object with the metrics BENCHMARK.json
lists: the end-to-end ones with ``--trace 0``; with ``--trace 1`` the
per-layer ones from an in-process replay of the same jobs with spans around
the calls into each layer (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PY = sys.executable

WORKLOADS = ("slices", "validate", "stability")
SETUP_REPS = 3
MIN_PASSES = 2
JOB_TIMEOUT_S = 40
HARD_STOP_S = 100  # start no job after this long, so a run ends within 180 s
IMPORT_PROBES = 5

# The shared machine's speed drifts by up to 2x, over seconds and over whole
# runs.  A fixed reference job (interpreter start, standard-library imports
# and Fraction arithmetic; no novikit) is timed at most every
# REFERENCE_EVERY_S during set-up and the passes, and every timing is scaled
# to the speed at which it takes REFERENCE_S (its typical time on the
# machine the benchmark was written on), by the reference runs nearest to it
# in time.
REFERENCE_S = 0.15
REFERENCE_EVERY_S = 0.4
REFERENCE_NEAREST = 4
REFERENCE_CODE = """\
import argparse, collections, dataclasses, decimal, email.parser, functools, http.client
import itertools, json, pathlib, random, statistics, typing, unittest, xml.dom.minidom
from fractions import Fraction
total = Fraction(0)
for i in range(1, 3000):
    total += Fraction(i % 89 + 1, i % 97 + 1)
assert total > 0
"""


class BenchError(RuntimeError):
    """The benchmark cannot produce a result: no sources, set-up failed."""


@dataclass
class Proc:
    code: int | None  # None when killed at the timeout
    wall_s: float
    cpu_s: float
    rss_kb: int


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], env: dict, out: Path, err: Path,
          timeout: float = JOB_TIMEOUT_S) -> Proc:
    """Run one subprocess with stdout and stderr to files, and reap it.

    ``wait4`` gives the child's own CPU time and peak RSS: the same numbers
    as the ``RUSAGE_CHILDREN`` deltas around it, since one child runs at a
    time.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    timer = threading.Timer(timeout, _kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.wait4(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    killed = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    code = None if killed else os.waitstatus_to_exitcode(status)
    return Proc(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def job_env() -> dict:
    env = dict(os.environ)
    env.pop("NOVIKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def preflight(env: dict) -> None:
    """Fail unless the checkout's own sources are what ``import novikit`` finds."""
    if not (SRC / "novikit" / "__init__.py").is_file():
        raise BenchError(f"no novikit sources under {SRC}")
    probe = subprocess.run([PY, "-c", "import novikit; print(novikit.__file__)"],
                           env=env, capture_output=True, text=True, timeout=60)
    found = Path(probe.stdout.strip() or "/").resolve()
    if probe.returncode != 0 or not found.is_relative_to(SRC.resolve()):
        raise BenchError(f"import novikit does not load {SRC}: {probe.stderr[-300:]}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("NOVIKIT_THREADS", None)


class Reference:
    """Times a fixed job that does not use novikit, to follow the machine's speed.

    ``scale_at(t)`` is REFERENCE_S over the median time of the
    REFERENCE_NEAREST reference runs nearest to ``t``: a wall time at ``t``
    multiplied by it is the time on a machine where the reference takes
    REFERENCE_S.
    """

    def __init__(self, work: Path, env: dict):
        self.work, self.env, self.runs, self.last = work, env, [], float("-inf")

    def time_if_due(self) -> None:
        if time.perf_counter() - self.last < REFERENCE_EVERY_S:
            return
        start = time.perf_counter()
        proc = spawn([PY, "-c", REFERENCE_CODE], self.env, self.work / "ref.out",
                     self.work / "ref.err")
        if proc.code != 0:
            raise BenchError("the reference job failed")
        self.runs.append((start + proc.wall_s / 2, proc.wall_s))
        self.last = time.perf_counter()

    def scale_at(self, t: float) -> float:
        nearest = sorted(self.runs, key=lambda run: abs(run[0] - t))[:REFERENCE_NEAREST]
        return REFERENCE_S / statistics.median(wall for _, wall in nearest)


def set_up(files, work: Path, env: dict, reps: int,
           reference: Reference | None = None) -> tuple[Path, list[float]]:
    """Write the corpus ``reps`` times; every copy must be byte-identical.

    A write's time is the sum of its ``gen`` subprocesses; with a reference,
    each is scaled to the reference speed at its time.
    """
    walls = []
    for rep in range(reps):
        corpus = work / f"corpus{rep}"
        corpus.mkdir(parents=True)
        gens = []
        for f in files:
            if reference:
                reference.time_if_due()
            start = time.perf_counter()
            proc = spawn([PY, "-m", "novikit", *f.gen_args()], env,
                         corpus / f.name, work / "gen.err")
            if proc.code != 0:
                tail = (work / "gen.err").read_text(errors="replace")[-300:]
                raise BenchError(f"novikit {' '.join(f.gen_args())} failed: {tail}")
            gens.append((start + proc.wall_s / 2, proc.wall_s))
        walls.append(gens)
    first = work / "corpus0"
    for rep in range(1, reps):
        for f in files:
            if (first / f.name).read_bytes() != (work / f"corpus{rep}" / f.name).read_bytes():
                raise BenchError(f"novikit gen wrote {f.name} differently on a re-run")
    if reference:
        reference.time_if_due()
    scale = reference.scale_at if reference else lambda t: 1.0
    return first, [sum(wall * scale(t) for t, wall in gens) for gens in walls]


def job_argv(job, corpus: Path) -> list[str]:
    if job.kind == "stability":
        return [PY, str(BENCH / "stability_job.py"), *job.argv(corpus)]
    return [PY, "-m", "novikit", *job.argv(corpus)]


# ---------------------------------------------------------------------------
# Untraced run: subprocess jobs, end-to-end metrics.
# ---------------------------------------------------------------------------


def measure(jobs, corpus: Path, work: Path, env: dict, seconds: float,
            reference: Reference):
    """Whole passes over the job list; see the module docstring.

    Returns, per job of the list, the (proc, verdict, scale) of each pass it
    ran in, where ``scale`` is the reference scale at the job's time.
    """
    from workloads import check

    samples, pass_walls = [[] for _ in jobs], []
    out, err = work / "job.out", work / "job.err"
    start = time.perf_counter()
    while True:
        pass_start, complete = time.perf_counter(), True
        for job, runs in zip(jobs, samples):
            if time.perf_counter() - start > HARD_STOP_S:
                complete = False
                break
            reference.time_if_due()
            job_start = time.perf_counter()
            proc = spawn(job_argv(job, corpus), env, out, err)
            runs.append((proc, check(job, proc.code, out.read_text(errors="replace"),
                                     err.read_text(errors="replace")),
                         job_start + proc.wall_s / 2))
        pass_walls.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if not complete or (len(pass_walls) >= MIN_PASSES and elapsed + pass_walls[-1] > seconds):
            break
    reference.time_if_due()
    samples = [[(proc, verdict, reference.scale_at(t)) for proc, verdict, t in runs]
               for runs in samples if runs]
    return samples, pass_walls


def end_to_end(samples, setup_walls):
    """End-to-end metrics over every job run, with times scaled to the
    reference speed at the run's time (see ``Reference``)."""
    runs = [run for job_runs in samples for run in job_runs]
    walls = [proc.wall_s * scale for proc, _, scale in runs]
    n = len(runs)
    failed = sum(verdict is not None for _, verdict, _ in runs)
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8]
    complete = min(map(len, samples))
    pass_cpu = [sum(job_runs[k][0].cpu_s * job_runs[k][2] for job_runs in samples)
                for k in range(complete)]
    values = {
        "setup_s": statistics.median(setup_walls),
        "job_s.p50": statistics.median(walls),
        "job_s.p90": p90,
        "goodput_jobs_per_s": (n - failed) / sum(walls),
        "fail_share": failed / n,
        "cpu_s.total": statistics.median(pass_cpu),
        "peak_rss_mb": max(proc.rss_kb for proc, _, _ in runs) / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_walls)} corpus writes",
        "job_s.p50": f"n={n} jobs",
        "job_s.p90": f"n={n} jobs, {sum(w > p90 for w in walls)} beyond",
        "goodput_jobs_per_s": f"{n - failed} passed in {sum(walls):.2f} s of jobs",
        "fail_share": f"{failed} of {n} failed",
        "cpu_s.total": f"per pass of {len(samples)} jobs, median of {complete}",
        "peak_rss_mb": f"largest of {n} jobs",
    }
    units = {"setup_s": "s", "job_s.p50": "s", "job_s.p90": "s",
             "goodput_jobs_per_s": "1/s", "fail_share": "ratio", "cpu_s.total": "s",
             "peak_rss_mb": "MB"}
    lines = [f"{name:<20} {value:>12.6f} {units[name]:<5} ({notes[name]})"
             for name, value in values.items()]
    return values, lines


# ---------------------------------------------------------------------------
# Traced run: the same jobs in-process, untraced and traced passes in turn.
# ---------------------------------------------------------------------------


def call_in_process(argv: list[str], stability: bool) -> tuple[int, str, str]:
    import novikit.cli
    import stability_job

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = stability_job.main(argv) if stability else novikit.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def import_seconds(env: dict) -> float:
    code = "import time; t = time.perf_counter(); import novikit; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([PY, "-c", code], env=env, capture_output=True,
                               text=True, timeout=60, check=True)
        times.append(float(probe.stdout))
    return statistics.median(times)


def replay(files, jobs, corpus: Path, tracer=None):
    """One in-process pass: the corpus's gen commands, then every job."""
    import stability_job
    from workloads import check

    wall, verdicts, gen_ok = 0.0, [], True
    if tracer is not None:
        tracer.install([stability_job])
        mark = tracer.mark()
    try:
        for f in files:
            start = time.perf_counter()
            code, out, _ = call_in_process(f.gen_args(), stability=False)
            wall += time.perf_counter() - start
            gen_ok &= code == 0 and out == (corpus / f.name).read_text(encoding="utf-8")
        for job in jobs:
            start = time.perf_counter()
            code, out, err = call_in_process(job.argv(corpus), job.kind == "stability")
            wall += time.perf_counter() - start
            verdicts.append(check(job, code, out, err))
    finally:
        if tracer is not None:
            tracer.uninstall()
    summary = tracer.summary(mark) if tracer is not None else None
    return wall, verdicts, gen_ok, summary


def per_layer(summaries: list[dict], import_s: float, overhead: float) -> dict:
    """Per-pass means of the traced passes; a layer a workload never calls reads 0."""
    from tracer import COUNTED_OPERATORS, TRACED

    keys = set().union(*summaries)
    mean = {k: sum(s.get(k, 0.0) for s in summaries) / len(summaries) for k in keys}
    values = {f"series.{short}.calls": 0.0 for short, _ in COUNTED_OPERATORS}
    for layer, fname in TRACED:
        values.update({f"{layer}.{fname}.self_s": 0.0, f"{layer}.{fname}.calls": 0.0})
    values.update({k: v for k, v in mean.items() if k.endswith((".self_s", ".calls"))})
    checks = mean.get("reduction.floer_divergence_check.calls", 0.0)
    values.update({
        "cli.import_s": import_s,
        "fileformat.parse.bytes": mean.get("fileformat.parse.size", 0.0),
        "reduction.fixed_point.trace_len": mean.get("reduction.fixed_point.size", 0.0),
        "reduction.fixed_point.per_check": mean.get("fixed_point.in_checks", 0.0) / checks if checks else 0.0,
        "invariants.scan_semicontinuity.probes": mean.get("invariants.scan_semicontinuity.probes", 0.0),
        "invariants.bottleneck.bars": mean.get("invariants.bottleneck.size", 0.0),
        "envelope.pointwise_min.knots": mean.get("envelope.pointwise_min.size", 0.0),
        "trace.overhead_share": overhead,
    })
    return values


def traced(files, jobs, corpus: Path, env: dict, seconds: float, spans_path: Path):
    from tracer import Tracer

    tracer = Tracer()
    import_s = import_seconds(env)
    plain, traced_walls, summaries, verdicts, gen_ok, coverage = [], [], [], [], True, []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        # Alternate which side goes first, so warm-up favours neither.
        for use_tracer in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            wall, v, ok, summary = replay(files, jobs, corpus, tracer if use_tracer else None)
            verdicts += v
            gen_ok &= ok
            if use_tracer:
                traced_walls.append(wall)
                summaries.append(summary)
                coverage.append(tracer.check_coverage(summary, wall))
            else:
                plain.append(wall)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pair_start) > seconds or elapsed > HARD_STOP_S:
            break
    tracer.write(spans_path)
    base = statistics.median(plain)
    overhead = (statistics.median(traced_walls) - base) / base
    lines = [f"in-process passes: {len(plain)} untraced, median {base:.4f} s; "
             f"{len(traced_walls)} traced, median {statistics.median(traced_walls):.4f} s",
             f"top-level spans cover {min(coverage):.1%} or more of every traced pass; "
             f"spans written to {spans_path.relative_to(ROOT)}"]
    if not gen_ok:
        lines.append("in-process gen output differs from the corpus file")
    return per_layer(summaries, import_s, overhead), verdicts, gen_ok, lines


# ---------------------------------------------------------------------------


def load_metric_lists() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"0": spec["end_to_end"], "1": spec["per_layer"]}


def result_line(values: dict, wanted: list[dict], correct: bool, attempted: int,
                failed: int) -> str:
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run(args) -> int:
    from workloads import KNOWN_DEFECTS, build_jobs, corpus_files

    env = job_env()
    preflight(env)
    wanted = load_metric_lists()[args.trace]
    files = corpus_files(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        if args.trace == "0":
            reference = Reference(work, env)
            corpus, setup_walls = set_up(files, work, env, SETUP_REPS, reference)
        else:
            corpus, setup_walls = set_up(files, work, env, 1)
        jobs = build_jobs(args.workload, files, corpus)
        print(f"workload {args.workload}, seed {args.seed}: {len(files)} files, "
              f"{len(jobs)} jobs per pass")
        if args.trace == "0":
            samples, pass_walls = measure(jobs, corpus, work, env, args.seconds, reference)
            values, lines = end_to_end(samples, setup_walls)
            scales = [scale for runs in samples for *_, scale in runs]
            lines.insert(0, f"reference job timed {len(reference.runs)} times, median "
                            f"{statistics.median(w for _, w in reference.runs):.4f} s; "
                            f"job scales {min(scales):.3f} to {max(scales):.3f}")
            verdicts = [v for runs in samples for _, v, _ in runs]
            labels = [job.label() for job, runs in zip(jobs, samples) for _ in runs]
            gen_ok = True
            lines.insert(0, f"{len(pass_walls)} pass(es), {sum(pass_walls):.2f} s")
        else:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values, verdicts, gen_ok, lines = traced(files, jobs, corpus, env,
                                                     args.seconds, spans)
            labels = [job.label() for job in jobs] * (len(verdicts) // len(jobs))
            lines += [f"{m['name']:<44} {values[m['name']]:>14.6f} {m['unit']}"
                      for m in wanted]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = sorted({(label, v) for label, v in zip(labels, verdicts) if v})
    for label, verdict in failures:
        lines.append(f"FAILED [{verdict}] {label}")
    failed = sum(v is not None for v in verdicts)
    correct = gen_ok and all(v in KNOWN_DEFECTS for v in verdicts if v)
    print("\n".join(lines))
    print(result_line(values, wanted, correct, len(verdicts), failed))
    return 0


def main(argv=None) -> int:
    from tracer import TraceError

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (BenchError, TraceError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
