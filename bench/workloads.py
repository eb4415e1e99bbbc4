"""Workload corpora, job lists and the oracles that check every answer.

A workload is a seeded corpus of complex files, written with ``novikit gen``,
and a list of jobs over it.  The workload seed only picks the model seeds of
the files; the program sees nothing but the files and the job's flags.

Expected answers never come from novikit's ``reduction`` or ``invariants``
layers.  Barcodes and boundary depths come from the prescribed bars of the
unconjugated model (``models.elementary_bars(models.gen_elementary(spec))``);
spectral values come from the closed generator's action, and stability bars
from the actions of a rank-0 line family, both read from the file text by the
small reader below, which does not use ``novikit.fileformat``.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

SAMPLES = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
BETA_TS = "0/1,1/4,1/2,3/4,1/1"
SLICE_TS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
TILTS = tuple(Fraction(n, 16) for n in (-2, -1, 0, 1, 2))

# Failure classes.  The two seed defects are wrong answers of the program at
# the seed commit (see bench/NOTES.md); they count as failures like any
# other, but a run whose only failures fall in these classes still reports
# ``correct``, so that a later change is judged by how ``failed`` moves.
# Each class covers only what was measured: (a) on random models of at
# least DEFECT_A_MIN_PAIRS pairs, (b) as the pattern ``_is_defect_b`` tests.
# Any other wrong answer is plain wrong and makes the run incorrect.
SEED_DEFECT_A = "seed-defect-a"  # validate falsely FAILs a legal random model
SEED_DEFECT_B = "seed-defect-b"  # barcode of a conjugated model is not the prescribed one
KNOWN_DEFECTS = frozenset({SEED_DEFECT_A, SEED_DEFECT_B})
DEFECT_A_MIN_PAIRS = 5  # smallest random model (a) was seen on
WRONG = "wrong-answer"
EXIT = "exit-code"
TRACEBACK = "traceback"
TIMEOUT = "timeout"


def pq(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class FileSpec:
    """One corpus file and the ``novikit gen`` flags that write it."""

    name: str
    model: str  # "random", "line" or "pathological"
    seed: int = 0
    pairs: int = 0
    closed: int = 2
    density: str = "1/2"
    field: str = "f2"
    slopes: tuple = ()

    def gen_args(self) -> list[str]:
        if self.model == "pathological":
            return ["gen", "--model", "pathological"]
        args = ["gen", "--model", self.model, "--seed", str(self.seed),
                "--pairs", str(self.pairs), "--closed", str(self.closed)]
        if self.model == "random":
            return args + ["--density", self.density, "--field", self.field]
        # A leading "-" would read as a flag, so the list is joined to --slopes.
        return args + ["--rank", "0", "--slopes=" + ",".join(pq(s) for s in self.slopes)]

    def model_spec(self):
        from novikit.models import ModelSpec

        return ModelSpec(seed=self.seed, n_pairs=self.pairs, n_closed=self.closed,
                         field_name=self.field, density=Fraction(self.density))


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a CLI call or one stability job."""

    kind: str  # barcode, beta, rho, scan, validate or stability
    file: FileSpec
    args: tuple
    expected: object

    def argv(self, corpus: Path) -> list[str]:
        path = str(corpus / self.file.name)
        if self.kind == "stability":
            return [path]
        return [self.kind, path, *self.args]

    def label(self) -> str:
        return " ".join([self.kind, self.file.name, *self.args])


# ---------------------------------------------------------------------------
# Corpora.
# ---------------------------------------------------------------------------

# slices: (pairs, density, field, commands).  A pass must hold about fifty
# jobs in about ten seconds, and a job costs at least 0.15 s of interpreter
# start, import, parse and validate.  Files stop at 12 pairs: above that one
# job's cost swings 5-15x between model seeds (a 24-pair q barcode took 1.1 s
# at one seed and 16.7 s at another; 16- and 20-pair barcodes and scans ran
# 0.4-3 s), and a run of half a minute holds too few such jobs to average the
# swing out.  The scans of the four 12-pair f2 files form a block of like cost
# where the 90th percentile falls.  ``rho1`` and ``rho0`` ask for a closed
# generator of degree 1 or 0; a degree-0 rho costs far more, so each file
# fixes which one it asks for, and every file has closed generators of both
# degrees (see ``_both_degrees_seed``).
_ALL = ("barcode", "beta", "rho0", "scan")
_BRS = ("barcode", "rho1", "scan")
SLICES = (
    (4, "1/2", "f2", _ALL), (4, "1/4", "q", _ALL), (6, "1/4", "f2", _ALL),
    (6, "1/2", "q", ("barcode", "rho1", "rho0", "scan")), (8, "1/4", "f2", _ALL),
    (8, "1/4", "q", ("barcode", "rho1", "rho0", "scan")),
    (8, "1/2", "f2", ("barcode", "rho1", "rho0", "scan")),
    (10, "1/4", "f2", ("barcode", "rho1", "rho0", "scan")), (10, "1/4", "q", _BRS),
    (12, "1/4", "f2", _BRS), (12, "1/4", "f2", _BRS), (12, "1/4", "f2", _BRS),
    (12, "1/4", "f2", _BRS),
)

# validate: (pairs, density, field, grids).  ``--grid k`` checks k of the five
# samples, so the grids of one file form a cost ladder; big files get short
# grids only.  Line families are rank 0, the pathological file is fixed.
# Ten 24-pair families, whose cost moves little between model seeds, form
# the block of like cost where the 90th percentile falls.  The cost of a
# random model of 6 or more pairs swings up to tenfold between model seeds,
# so those are few and checked at one or two samples, and the small models
# get three grids each, so that the median falls among jobs of small, steady
# cost.
VALIDATE_RANDOM = (
    (2, "1/2", "f2", (1, 3, 5)), (2, "1/4", "q", (1, 3, 5)),
    (3, "1/2", "f2", (1, 3, 5)), (3, "1/2", "q", (1, 3, 5)),
    (4, "1/2", "f2", (1, 3, 5)), (4, "1/2", "q", (1, 3, 5)),
    (5, "1/2", "f2", (1, 2)), (5, "1/4", "q", (1, 2)),
    (6, "1/2", "f2", (1,)), (6, "1/4", "q", (1, 2)),
    (8, "1/4", "q", (1,)), (10, "1/4", "f2", (1,)),
)
VALIDATE_LINE = ((16, (1, 3)),) + ((24, (1,)),) * 10 + ((40, (1,)),)
PATHOLOGICAL_GRIDS = (1, 3, 5)

# stability: the pairs of each family, one job each.  Six 44-pair families
# (46 bars a side) hold the slow end of the matching, so the 90th percentile
# falls among them and rests on several seeds rather than on one family; a
# single 80-pair family's cost swung 4.3-7.8 s between seeds, half a pass.
STABILITY = (10, 12, 16, 20, 24, 28, 32, 36, 36, 36, 44, 44, 44, 44, 44, 44)
# Families of up to this many pairs also get the exact distance by brute
# force; bigger ones are checked against the two bounds only.
EXACT_MAX_PAIRS = 20


def _line_slopes(rng: random.Random, n_gens: int) -> tuple:
    return tuple(rng.choice(TILTS) for _ in range(n_gens))


def _both_degrees_seed(spec: FileSpec) -> FileSpec:
    """The spec with the first model seed in ``seed, seed + 100, ...`` whose
    model has closed generators of degree 0 and of degree 1.

    Without this about a quarter of the files would lack one degree, and
    their ``rho0`` or ``scan`` job would ask for the other one, so the cost of
    the job mix would change with the workload seed.  The choice reads only
    the degrees the generator draws, never an answer.
    """
    from novikit.models import gen_elementary

    for k in range(10):
        candidate = replace(spec, seed=spec.seed + 100 * k)
        cx = gen_elementary(candidate.model_spec())
        degrees = {g.degree for g in cx.generators if g.name.startswith("z")}
        if degrees == {0, 1}:
            return candidate
    raise ValueError(f"no model seed from {spec.seed} has closed generators of both degrees")


def corpus_files(workload: str, seed: int) -> list[FileSpec]:
    """The files of a workload; ``seed`` only chooses the model seeds."""
    base = seed * 1000
    files = []
    if workload == "slices":
        for i, (pairs, dens, fld, _) in enumerate(SLICES):
            spec = FileSpec(f"s{i:02d}.nvk", "random", base + i, pairs, 3, dens, fld)
            files.append(_both_degrees_seed(spec))
    elif workload == "validate":
        for i, (pairs, dens, fld, _) in enumerate(VALIDATE_RANDOM):
            files.append(FileSpec(f"r{i:02d}.nvk", "random", base + i, pairs, 2, dens, fld))
        rng = random.Random(seed)
        for i, (pairs, _) in enumerate(VALIDATE_LINE):
            files.append(FileSpec(f"l{i:02d}.nvk", "line", base + 100 + i, pairs, 2,
                                  slopes=_line_slopes(rng, 2 * pairs + 2)))
        files.append(FileSpec("pathological.nvk", "pathological"))
    elif workload == "stability":
        rng = random.Random(seed)
        for i, pairs in enumerate(STABILITY):
            files.append(FileSpec(f"l{i:02d}.nvk", "line", base + i, pairs, 2,
                                  slopes=_line_slopes(rng, 2 * pairs + 2)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files


# ---------------------------------------------------------------------------
# A reader for the parts of a complex file the oracles need.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FileFacts:
    generators: dict  # name -> (degree, action0, action_slope)
    pairs: tuple  # (row, col) of every entry in the first boundary section

    def action(self, name: str, t: Fraction) -> Fraction:
        _, a0, slope = self.generators[name]
        return a0 + t * slope

    def closed_of_degree(self, degree: int) -> str:
        """The first closed generator of the given degree."""
        closed = sorted(n for n in self.generators if n.startswith("z"))
        return [n for n in closed if self.generators[n][0] == degree][0]


def read_facts(text: str) -> FileFacts:
    generators, pairs = {}, []
    section = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if section.startswith("[boundary"):
                break  # every sample of these families has the same boundary
            section = line
        elif section == "[generators]":
            name, degree, a0, slope = line.split()
            generators[name] = (int(degree), Fraction(a0), Fraction(slope))
        elif section.startswith("[boundary"):
            row, col = line.split(":", 1)[0].split()
            pairs.append((row, col))
    return FileFacts(generators, tuple(pairs))


# ---------------------------------------------------------------------------
# Job lists with their expected answers.
# ---------------------------------------------------------------------------


def _bar_key(degree, birth, death):
    return (int(degree), Fraction(birth), None if death is None else Fraction(death))


def _sorted_bars(bars) -> list:
    """Bars as (degree, birth, death) in one order; death None is unbounded."""
    return sorted(bars, key=lambda b: (b[0], b[1], b[2] is None, b[2] or 0))


def _prescribed_bars(spec: FileSpec, t: Fraction) -> list:
    from novikit.models import elementary_bars, gen_elementary

    bars = elementary_bars(gen_elementary(spec.model_spec()), t).bars
    return _sorted_bars(_bar_key(b.degree, b.birth, b.death if b.is_finite else None)
                        for b in bars)


def _depth(bars: list) -> Fraction:
    lengths = [death - birth for _, birth, death in bars if death is not None]
    return max(lengths, default=Fraction(0))


def _line_bars_by_generator(facts: FileFacts, t: Fraction) -> list:
    """Rank-0 bars straight from the actions, in generator order: one per
    boundary pair, plus an unbounded bar per unpaired generator.  The k-th
    bar at every t comes from the same generators."""
    bars, paired = [], set()
    for row, col in facts.pairs:
        bars.append((facts.generators[row][0], facts.action(row, t), facts.action(col, t)))
        paired.update((row, col))
    for name, (degree, _, _) in facts.generators.items():
        if name not in paired:
            bars.append((degree, facts.action(name, t), None))
    return bars


def _half_length(bar) -> Fraction:
    return (bar[2] - bar[1]) / 2


def _unbounded_distance(a: list, b: list) -> Fraction:
    """Unbounded bars match only unbounded bars of their degree, and on a
    line matching them in sorted order is best: a lower bound of the
    bottleneck distance."""
    worst = Fraction(0)
    for degree in {bar[0] for bar in a + b}:
        births_a = sorted(bar[1] for bar in a if bar[0] == degree and bar[2] is None)
        births_b = sorted(bar[1] for bar in b if bar[0] == degree and bar[2] is None)
        if len(births_a) != len(births_b):
            raise ValueError("unbounded bar counts differ")
        worst = max([worst] + [abs(x - y) for x, y in zip(births_a, births_b)])
    return worst


def _same_generator_distance(a: list, b: list) -> Fraction:
    """An upper bound of the bottleneck distance: each bar matched with the
    bar of the same generators, or both sent to the diagonal if cheaper."""
    worst = Fraction(0)
    for x, y in zip(a, b):
        if x[2] is None:
            cost = abs(x[1] - y[1])
        else:
            cost = min(max(abs(x[1] - y[1]), abs(x[2] - y[2])),
                       max(_half_length(x), _half_length(y)))
        worst = max(worst, cost)
    return worst


def _has_perfect_matching(adjacent: list) -> bool:
    """Kuhn's augmenting paths on a square bipartite graph."""
    match = [-1] * len(adjacent)

    def augment(left: int, seen: list) -> bool:
        for right in adjacent[left]:
            if not seen[right]:
                seen[right] = True
                if match[right] < 0 or augment(match[right], seen):
                    match[right] = left
                    return True
        return False

    return all(augment(left, [False] * len(adjacent)) for left in range(len(adjacent)))


def _finite_distance(a: list, b: list) -> Fraction:
    """Bottleneck distance of two sets of finite bars of one degree: the
    smallest candidate cost, found by bisection, at which the bipartite
    graph with diagonal copies has a perfect matching.  The graph's
    left is a's bars then one diagonal slot per bar of b, right is b's bars
    then one diagonal slot per bar of a."""
    n, m = len(a), len(b)
    cost = [[None] * (n + m) for _ in range(n + m)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            cost[i][j] = max(abs(x[1] - y[1]), abs(x[2] - y[2]))
        cost[i][m + i] = _half_length(x)
    for j, y in enumerate(b):
        cost[n + j][j] = _half_length(y)
        for i in range(n):
            cost[n + j][m + i] = Fraction(0)
    candidates = sorted({c for row in cost for c in row if c is not None} | {Fraction(0)})
    lo, hi = 0, len(candidates) - 1  # the largest candidate always matches
    while lo < hi:
        mid = (lo + hi) // 2
        adjacent = [[j for j, c in enumerate(row) if c is not None and c <= candidates[mid]]
                    for row in cost]
        if _has_perfect_matching(adjacent):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def exact_bottleneck(a: list, b: list) -> Fraction:
    """Bottleneck distance of two barcodes by brute force; small inputs only."""
    worst = _unbounded_distance(a, b)
    for degree in {bar[0] for bar in a + b}:
        fa = [bar for bar in a if bar[0] == degree and bar[2] is not None]
        fb = [bar for bar in b if bar[0] == degree and bar[2] is not None]
        worst = max(worst, _finite_distance(fa, fb))
    return worst


@dataclass(frozen=True)
class StabilityExpectation:
    """What one sample of a stability job must report."""

    bars: list  # sorted (degree, birth, death) bars at t
    lower: Fraction  # unbounded bars matched in sorted order
    upper: Fraction  # min(same-generator matching, t * (s1 + s2))
    exact: Fraction | None  # brute-force distance on small families


def stability_expectation(facts: FileFacts, t: Fraction, shift_bound: Fraction) -> StabilityExpectation:
    at_zero = _line_bars_by_generator(facts, Fraction(0))
    at_t = _line_bars_by_generator(facts, t)
    exact = exact_bottleneck(at_zero, at_t) if len(facts.pairs) <= EXACT_MAX_PAIRS else None
    return StabilityExpectation(_sorted_bars(at_t), _unbounded_distance(at_zero, at_t),
                                min(_same_generator_distance(at_zero, at_t), t * shift_bound),
                                exact)


def _interleave(groups: list[list]) -> list:
    """Round-robin over the groups, so costly jobs spread across a pass."""
    out, depth = [], max(len(g) for g in groups)
    for k in range(depth):
        out.extend(g[k] for g in groups if k < len(g))
    return out


def build_jobs(workload: str, files: list[FileSpec], corpus: Path) -> list[Job]:
    facts = {f.name: read_facts((corpus / f.name).read_text(encoding="utf-8"))
             for f in files}
    groups = []
    if workload == "slices":
        for i, (f, (_, _, _, commands)) in enumerate(zip(files, SLICES)):
            t = SLICE_TS[i % len(SLICE_TS)]
            fx = facts[f.name]
            group = []
            for cmd in commands:
                if cmd == "barcode":
                    group.append(Job("barcode", f, ("--t", pq(t)), _prescribed_bars(f, t)))
                elif cmd == "beta":
                    depths = [_depth(_prescribed_bars(f, s)) for s in SAMPLES]
                    group.append(Job("beta", f, ("--t", BETA_TS), depths))
                elif cmd in ("rho1", "rho0"):
                    z = fx.closed_of_degree(int(cmd[-1]))
                    group.append(Job("rho", f, ("--cycle", z, "--t", pq(t)), fx.action(z, t)))
                else:
                    z = fx.closed_of_degree(1)
                    group.append(Job("scan", f, ("--cycle", z),
                                     {pq(s): pq(fx.action(z, s)) for s in SAMPLES}))
            groups.append(group)
    elif workload == "validate":
        grids = [g for *_, g in VALIDATE_RANDOM] + [g for _, g in VALIDATE_LINE]
        grids.append(PATHOLOGICAL_GRIDS)
        for f, gs in zip(files, grids):
            groups.append([Job("validate", f, ("--grid", str(k)), k) for k in gs])
    else:
        for f in files:
            fx = facts[f.name]
            slopes = [s for _, _, s in fx.generators.values()]
            # line_family stores slope -a_i; the shift bound is t*(s1 + s2)
            # with s1 = max(-a_i) and s2 = max(a_i).
            bound = max(slopes) + max(-s for s in slopes)
            expected = {pq(t): stability_expectation(fx, t, bound) for t in SAMPLES}
            groups.append([Job("stability", f, (), expected)])
    return _interleave(groups)


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def _csv_bars(text: str) -> list:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "degree,birth,death":
        raise ValueError("missing barcode header")
    bars = []
    for line in lines[1:]:
        degree, birth, death = line.split(",")
        bars.append(_bar_key(degree, birth, None if death == "inf" else death))
    return bars


def _shape(bars: list) -> tuple:
    """Bar counts per degree and every unbounded bar."""
    return Counter(b[0] for b in bars), [b for b in bars if b[2] is None]


def _is_defect_b(got: list, want: list) -> bool:
    """Whether a wrong barcode of a random model has the pattern of seed
    defect (b).  On all 310 wrong slices measured (random models of 2-12
    pairs; seeds 0-39 up to 6 pairs, 0-11 above), the bar counts and the
    unbounded bars were right, only finite degree-0 bars moved, the births
    of the moved bars summed to the prescribed sum and their deaths to
    more; 146 more at seeds 40-79 (4-6 pairs), not used to find the
    pattern, all had it too."""
    if _shape(got) != _shape(want):
        return False
    extra, missing = Counter(got) - Counter(want), Counter(want) - Counter(got)
    moved = list(extra.elements()) + list(missing.elements())
    return (all(bar[0] == 0 for bar in moved)
            and sum(b for _, b, _ in extra.elements()) == sum(b for _, b, _ in missing.elements())
            and sum(d for *_, d in extra.elements()) > sum(d for *_, d in missing.elements()))


def check(job: Job, code: int | None, out: str, err: str) -> str | None:
    """None when the answer is right, otherwise the failure class."""
    if code is None:
        return TIMEOUT
    if "Traceback" in err:
        return TRACEBACK
    try:
        return _check_answer(job, code, out)
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return WRONG


def _check_answer(job: Job, code: int, out: str) -> str | None:
    kind, model = job.kind, job.file.model
    if kind == "validate":
        if model == "pathological":
            ok = code == 1 and out.startswith("FAIL divergence")
            return None if ok else (EXIT if code != 1 else WRONG)
        if (code == 1 and out.startswith("FAIL divergence") and model == "random"
                and job.file.pairs >= DEFECT_A_MIN_PAIRS):
            return SEED_DEFECT_A
        if code != 0:
            return EXIT
        return None if out.strip() == f"OK {job.expected} samples validated" else WRONG
    if code != 0:
        return EXIT
    if kind == "barcode":
        got = _sorted_bars(_csv_bars(out))
        if got == job.expected:
            return None
        return SEED_DEFECT_B if _is_defect_b(got, job.expected) else WRONG
    if kind == "beta":
        # Seed defect (b) never changed the longest finite bar (190 of 190
        # wrong slices), so a wrong beta is plain wrong.
        return None if [Fraction(x) for x in out.split()] == job.expected else WRONG
    if kind == "rho":
        return None if Fraction(out.strip()) == job.expected else WRONG
    if kind == "scan":
        report = json.loads(out)
        ok = report["grid"] == job.expected and report["usc_at_zero"] is True
        return None if ok else WRONG
    rows = json.loads(out)
    if [r["t"] for r in rows] != [pq(t) for t in SAMPLES]:
        return WRONG
    for row in rows:
        want = job.expected[row["t"]]
        d = Fraction(row["bottleneck"])
        if _sorted_bars(_csv_bars(row["bars"])) != want.bars:
            return WRONG
        if not want.lower <= d <= want.upper or want.exact not in (None, d):
            return WRONG
    return None
