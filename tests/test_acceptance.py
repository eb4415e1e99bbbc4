"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every tolerance is exact rational equality or an exact rational
inequality; the only numeric budgets are wall-clock limits.
"""

import random
import time
import zlib
from fractions import Fraction

import pytest

from novikit import (
    INF,
    LexOrder,
    PeriodSystem,
    Rank2Value,
    RaySupport,
    RingMode,
    TWeightedOrder,
    VALUE_INF,
    basis_chain,
    best_approximation,
    bottleneck,
    boundary_depth,
    compare_lex,
    ell,
    floer_divergence_check,
    homology_ranks_at_cutoff,
    persistence_barcode,
    ray_finite_for,
    ray_finite_interval,
    rho,
    scan_semicontinuity,
    valuation,
    validate,
    verify_continuation,
)
from novikit.complexes import ContinuationData, apply_matrix, chain_cleanup
from novikit.fields import GF2, QQ
from novikit.models import (
    ModelSpec,
    gen_elementary,
    gen_pathological,
    gen_random,
    line_family,
    pathological_columns,
    shift_constants,
)
from novikit.cancellation import FloerDivergenceError
from novikit.series import NovikovElement, monomial, unit

F = Fraction
AXES = PeriodSystem(2, (1, 0), (0, 1))


def verdict(number: int, name: str, ok: bool, extra: str = ""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} {name}: {state}{suffix}")
    assert ok, f"criterion {number} {name} failed"


# -- 1 ----------------------------------------------------------------------


def _random_element(rng, field, cutoff=F(10)):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a = (rng.randint(0, 2), rng.randint(0, 2))
        terms[a] = field.sample(rng)
    return NovikovElement(AXES, field, RingMode.INTERVAL, cutoff, terms)


def test_criterion_1_ring_and_valuation_suite():
    start = time.monotonic()
    for field in (GF2, QQ):
        rng = random.Random(20240 + zlib.crc32(field.name.encode()) % 97)
        for _ in range(1000):
            x = _random_element(rng, field)
            y = _random_element(rng, field)
            z = _random_element(rng, field)
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            vx, vy = valuation(x), valuation(y)
            assert valuation(x * y) == vx.add(vy)
            vsum = valuation(x + y)
            lo = vx if compare_lex(vx, vy) <= 0 else vy
            assert compare_lex(vsum, lo) >= 0
            if compare_lex(vx, vy) != 0:
                assert vsum == lo
    elapsed = time.monotonic() - start
    verdict(1, "ring/valuation suite", elapsed < 5.0, f"{elapsed:.2f}s")


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_interval_finiteness_ray_test():
    rng = random.Random(7)
    count = 0
    ok = True
    while count < 500:
        d = (rng.randint(-6, 6), rng.randint(-6, 6))
        if d == (0, 0):
            continue
        count += 1
        ray = RaySupport((rng.randint(-3, 3), rng.randint(-3, 3)), d)
        interval = ray_finite_interval(AXES, ray)
        endpoints = ray_finite_for(AXES, ray, 0) and ray_finite_for(AXES, ray, 1)
        sampled = all(ray_finite_for(AXES, ray, F(i, 100)) for i in range(101))
        ok = ok and (interval == endpoints == sampled)
    verdict(2, "interval finiteness equals endpoint conjunction", ok,
            f"{count} rays")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_pathological_operator_reproduction():
    start = time.monotonic()
    cutoff = F(10)
    check = floer_divergence_check(pathological_columns(cutoff), cutoff)
    ok = not check.passed
    w = check.witness
    finite = [v for v in w.trace if not v.is_infinite]
    ok = ok and all(v.v0 == 0 for v in finite)
    ok = ok and finite[-1].v1 > cutoff

    cx = gen_pathological(cutoff=cutoff)
    r0, _ = homology_ranks_at_cutoff(cx, 0, RingMode.OMEGA0)
    r1, _ = homology_ranks_at_cutoff(cx, 0, RingMode.OMEGA1)
    ok = ok and (r0[0], r1[0]) == (1, 0)

    one = unit(cx.system, cx.coefficient_field, cx.mode, cutoff)
    probe = {"e": monomial(cx.system, cx.coefficient_field, cx.mode, cutoff,
                           (0, 1), 1)}
    diverged = False
    try:
        best_approximation(pathological_columns(cutoff), probe, LexOrder(), cutoff)
    except FloerDivergenceError:
        diverged = True
    ok = ok and diverged
    elapsed = time.monotonic() - start
    verdict(3, "one-sided divergence reproduction", ok and elapsed < 1.0,
            f"{elapsed:.3f}s")


# -- 4 ----------------------------------------------------------------------

def _gen_instance_criterion4(rng):
    """Columns with unit leads and balanced diagonal tails, a target
    vector, and the ambient GF2 interval ring at cutoff 1.

    The small cutoff keeps every cancellation chain inside the window
    {min period <= 1, coords <= 2}, so the shift box [0, 2]^2 provably
    contains every shift the implementation can use.
    """
    cutoff = F(1)
    n_cols = rng.randint(1, 3)
    n_comp = rng.randint(1, 2)
    comps = [f"c{i}" for i in range(n_comp)]

    def mono(exp):
        return monomial(AXES, GF2, RingMode.INTERVAL, cutoff, exp, 1)

    columns = []
    for _ in range(n_cols):
        comp = rng.choice(comps)
        elem = mono((0, 0))
        if rng.random() < 0.7:
            elem = elem + mono((1, 1))
        col = {comp: elem}
        if n_comp > 1 and rng.random() < 0.4:
            other = rng.choice([c for c in comps if c != comp])
            col[other] = mono((1, 1))
        columns.append(col)
    w = {}
    for _ in range(rng.randint(1, 2)):
        comp = rng.choice(comps)
        term = mono((rng.randint(0, 1), rng.randint(0, 1)))
        w[comp] = w[comp] + term if comp in w else term
    w = chain_cleanup(w)
    return columns, w, cutoff


def _oracle_best_key(columns, w, order, cutoff, box=3, dim_cap=16):
    """Exhaustive search for the maximal valuation of w - u over the image.

    Generators are the columns shifted by every lattice vector with period
    pair in [-box, box]^2, with truncation applied.  GF(2) elimination
    first removes every combination touching a point below the target's
    floor (such residuals are dominated), then the remaining subgroup is
    enumerated exhaustively over bitmasks.  Bits are laid out in
    increasing order-key, so the residual's valuation is its lowest set
    bit.  Independent of the cancellation iteration under test.  Returns
    None when the subgroup dimension exceeds the enumeration cap.
    """
    floor = min(order.key(AXES.pair(exp))
                for elem in w.values() for exp in elem.terms)
    shifts = [(a, b) for a in range(-box, box + 1) for b in range(-box, box + 1)]
    raw_points: dict = {}

    def idx(comp, exp):
        key = (comp, exp)
        if key not in raw_points:
            raw_points[key] = len(raw_points)
        return raw_points[key]

    raw_gens = []
    for col in columns:
        for g in shifts:
            mask = 0
            for comp, elem in col.items():
                for exp in elem.terms:
                    s = (exp[0] + g[0], exp[1] + g[1])
                    if min(s) > cutoff:
                        continue
                    mask |= 1 << idx(comp, s)
            if mask:
                raw_gens.append(mask)
    raw_w = 0
    for comp, elem in w.items():
        for exp in elem.terms:
            raw_w |= 1 << idx(comp, exp)

    # Re-index bits by increasing order key; min valuation = lowest bit.
    keyed = sorted(((order.key(AXES.pair(point[1])), old)
                    for point, old in raw_points.items()))
    remap = {old: new for new, (_, old) in enumerate(keyed)}
    keys = [k for k, _ in keyed]

    def remask(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << remap[low.bit_length() - 1]
            mask ^= low
        return out

    gens = [remask(m) for m in raw_gens]
    wmask = remask(raw_w)
    inwin = 0
    for new, k in enumerate(keys):
        if k >= floor:
            inwin |= 1 << new
    outwin = ((1 << len(keys)) - 1) ^ inwin

    pivots: dict = {}
    basis = []
    for mask in gens:
        cur = mask
        while True:
            out = cur & outwin
            if not out:
                break
            bit = out & -out
            if bit in pivots:
                cur ^= pivots[bit]
            else:
                pivots[bit] = cur
                cur = 0
                break
        if cur:
            red = cur
            for b in basis:
                red = min(red, red ^ b)
            if red:
                basis.append(red)
                basis.sort(reverse=True)
    if len(basis) > dim_cap:
        return None

    def mask_key(mask):
        if not mask:
            return None
        return keys[(mask & -mask).bit_length() - 1]

    best = mask_key(wmask)
    best_is_inf = best is None
    cur = wmask
    prev_gray = 0
    for i in range(1, 1 << len(basis)):
        gray = i ^ (i >> 1)
        changed = gray ^ prev_gray
        prev_gray = gray
        cur ^= basis[changed.bit_length() - 1]
        k = mask_key(cur)
        if k is None:
            best_is_inf = True
        elif not best_is_inf and k > best:
            best = k
    return "inf" if best_is_inf else best


def test_criterion_4_best_approximation_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(42)
    done = 0
    attempts = 0
    while done < 200:
        attempts += 1
        assert attempts < 8000, "instance generation stalled"
        columns, w, cutoff = _gen_instance_criterion4(rng)
        if not w:
            continue
        for order in (LexOrder(), TWeightedOrder(F(1, 2))):
            expected = _oracle_best_key(columns, w, order, cutoff)
            if expected is None:
                break
            _, achieved = best_approximation(columns, w, order, cutoff)
            got = "inf" if achieved is VALUE_INF or achieved.is_infinite \
                else order.key(achieved.as_tuple())
            assert got == expected, (columns, w, order.describe(), got, expected)
        else:
            done += 1
    elapsed = time.monotonic() - start
    verdict(4, "best approximation matches exhaustive oracle",
            done >= 200 and elapsed < 60.0, f"{done} instances, {elapsed:.1f}s")


# -- 5 ----------------------------------------------------------------------


def _oracle_boundary_depth(cx, t, box=6):
    """sup over boundaries x of inf ell(y) - ell(x), by exhaustive search
    over chains with monomial-or-zero coefficients in a period box (exact
    for rank-0 lattices, where coefficients are plain field scalars)."""
    matrix = cx.boundary_matrix(t)
    degrees = sorted({g.degree for g in cx.generators})
    if cx.system.rank == 0:
        exps = [()]
    else:
        exps = [(a, b) for a in range(box + 1) for b in range(box + 1)]
    best = F(0)
    for d in degrees:
        cols = [g.name for g in cx.generators if g.degree == d
                and chain_cleanup(matrix.get(g.name, {}))]
        if not cols:
            continue
        options = []
        for name in cols:
            opts = [None]
            for exp in exps:
                opts.append((name, exp))
            options.append(opts)
        best_for_x: dict = {}
        import itertools

        for combo in itertools.product(*options):
            chain = {}
            for pick in combo:
                if pick is None:
                    continue
                name, exp = pick
                mono = monomial(cx.system, cx.coefficient_field, cx.mode,
                                cx.cutoff, exp, 1)
                chain[name] = chain[name] + mono if name in chain else mono
            chain = chain_cleanup(chain)
            if not chain:
                continue
            image = apply_matrix(cx, matrix, chain)
            if not image:
                continue
            key = tuple(sorted((k, frozenset(v.terms.items()))
                               for k, v in image.items()))
            drop = ell(cx, chain, t) - ell(cx, image, t)
            if key not in best_for_x or drop < best_for_x[key]:
                best_for_x[key] = drop
        if best_for_x:
            best = max(best, max(best_for_x.values()))
    return best


def test_criterion_5_boundary_depth_equals_brute_force():
    rng = random.Random(99)
    count = 0
    for seed in range(60):
        for rank, density in ((0, F(1, 2)), (2, F(0)), (2, F(1, 3))):
            if count >= 102:
                break
            spec = ModelSpec(seed=seed * 3 + rank, n_pairs=rng.choice((1, 2)),
                             n_closed=rng.choice((0, 1, 2)), lattice_rank=rank,
                             cutoff=F(3), density=density,
                             action_range=(F(-1), F(1)),
                             length_range=(F(1), F(2)))
            if spec.n_pairs * 2 + spec.n_closed > 4 or spec.n_pairs == 0:
                continue
            cx = gen_random(spec)
            t = rng.choice(cx.samples)
            got = boundary_depth(cx, t)
            expected = _oracle_boundary_depth(cx, t)
            assert got == expected, (spec, t, got, expected)
            count += 1
        if count >= 102:
            break
    verdict(5, "boundary depth equals brute force", count >= 100,
            f"{count} instances")


# -- 6 and 7 ----------------------------------------------------------------


def _line_family_models(n=100):
    # One generator always carries a null tilt, so both shift constants are
    # nonnegative and the two-sided bound by their sum applies.
    rng = random.Random(314)
    out = []
    seed = 0
    while len(out) < n:
        seed += 1
        spec = ModelSpec(seed=seed, lattice_rank=0, n_pairs=rng.choice((1, 2)),
                         n_closed=rng.choice((1, 2)),
                         length_range=(F(2), F(3)),
                         action_range=(F(-2), F(2)))
        base = gen_elementary(spec)
        slopes = [F(rng.randint(-2, 2), 8) for _ in base.generators]
        slopes[rng.randrange(len(slopes))] = F(0)
        fam = line_family(base, slopes)
        out.append((fam, slopes))
    return out


@pytest.fixture(scope="module")
def line_models():
    return _line_family_models(100)


def test_criterion_6_upper_semicontinuity_and_slope_bound(line_models):
    checked = 0
    for fam, slopes in line_models:
        s_total = sum(shift_constants(slopes))
        closed = [g.name for g in fam.generators
                  if g.name.startswith("z") and g.degree == 0]
        if not closed:
            closed = [g.name for g in fam.generators if g.name.startswith("z")]
        cycle = basis_chain(fam, closed[0])
        report = scan_semicontinuity(fam, cycle, fam.samples)
        assert report.right_limit <= report.value_at_zero
        assert report.usc_at_zero
        r0 = report.value_at_zero
        for t in sorted(set(report.curve.knots) | set(fam.samples)):
            assert abs(report.curve(t) - r0) <= t * s_total, (t, slopes)
        checked += 1
    verdict(6, "spectral curve usc and slope bound", checked >= 100,
            f"{checked} families")


def test_criterion_7_bottleneck_stability_chain(line_models):
    checked = 0
    for fam, slopes in line_models:
        s_total = sum(shift_constants(slopes))
        b0 = persistence_barcode(fam, 0, prevalidated=True)
        for t in fam.samples:
            bt = persistence_barcode(fam, t, prevalidated=True)
            d = bottleneck(b0, bt)
            assert d != INF
            assert d <= t * s_total, (t, slopes, d)
        checked += 1
    verdict(7, "bottleneck stability bound", checked >= 100,
            f"{checked} families")


# -- 8 ----------------------------------------------------------------------


def _corrupt(fam, data, kind, rng):
    junk = monomial(fam.system, fam.coefficient_field, fam.mode, fam.cutoff,
                    (0,) * fam.system.rank, 1)
    names = list(fam.generator_names)
    target = names[rng.randrange(len(names))]
    # image generator with a nonzero boundary column, so d(K e) != 0
    matrix = fam.boundary_matrix(data.s_from)
    bounding = next(n for n in names if chain_cleanup(matrix.get(n, {})))
    if kind == "ks":
        k_s = {target: {bounding: junk}}
        return ContinuationData(data.s_from, data.s_to, data.phi, data.psi,
                                k_s, data.k_t, data.shift1, data.shift2), \
            {"homotopy-s"}
    if kind == "kt":
        k_t = {target: {bounding: junk}}
        return ContinuationData(data.s_from, data.s_to, data.phi, data.psi,
                                data.k_s, k_t, data.shift1, data.shift2), \
            {"homotopy-t"}
    if kind == "phi-drop":
        phi = {n: dict(col) for n, col in data.phi.items()}
        phi.pop(target, None)
        return ContinuationData(data.s_from, data.s_to, phi, data.psi,
                                data.k_s, data.k_t, data.shift1, data.shift2), \
            {"homotopy-s", "homotopy-t", "chain-map-phi"}
    # shrink the phi shift bound below an attained shift
    slopes = {g.name: -g.action_slope for g in fam.generators}
    s1 = max(-a for a in slopes.values())
    bad = data.s_to * s1 - F(1, 16)
    return ContinuationData(data.s_from, data.s_to, data.phi, data.psi,
                            data.k_s, data.k_t, bad, data.shift2), \
        {"shift-phi"}


def test_criterion_8_continuation_verification_and_mutations(line_models):
    passed = 0
    for fam, _ in line_models[:25]:
        for data in fam.continuations:
            assert verify_continuation(fam, fam, data)
        passed += 1

    rng = random.Random(5150)
    injected = 0
    kinds = ("ks", "kt", "phi-drop", "shift")
    idx = 0
    while injected < 20:
        fam, slopes = line_models[idx % len(line_models)]
        idx += 1
        if not fam.continuations:
            continue
        data = fam.continuations[-1]
        kind = kinds[injected % len(kinds)]
        if kind == "shift" and max(-F(a) for a in slopes) * data.s_to <= 0:
            kind = "ks"
        corrupted, expected = _corrupt(fam, data, kind, rng)
        report = verify_continuation(fam, fam, corrupted)
        assert not report, (kind, "corruption went undetected")
        got_kinds = {v[0] for v in report.violations}
        assert got_kinds & expected, (kind, got_kinds, expected)
        injected += 1
    verdict(8, "continuation quadruple verification", passed >= 25
            and injected >= 20, f"{passed} clean, {injected} corrupted")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_square_zero_and_strict_decrease():
    start = time.monotonic()
    checked = 0
    for seed in range(100):
        spec = ModelSpec(seed=seed, n_pairs=(seed % 3) + 1,
                         n_closed=seed % 2, density=F(1, 2),
                         lattice_rank=(seed % 3 != 0) * 2)
        cx = gen_random(spec)
        assert len(cx.samples) == 5
        report = validate(cx)
        assert report, report.violations[:3]
        checked += 1
    elapsed = time.monotonic() - start
    verdict(9, "square-zero and strict filtration decrease",
            checked >= 100 and elapsed < 10.0,
            f"{checked} complexes, {elapsed:.2f}s")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_cli_roundtrip_and_determinism(tmp_path):
    import os
    import subprocess
    import sys

    def run(argv, threads=None):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join([src] + env.get(
            "PYTHONPATH", "").split(os.pathsep))
        if threads:
            env["NOVIKIT_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-m", "novikit.cli", *argv],
                              capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout

    from novikit.fileformat import emit, parse

    ok = True
    for seed in ("3", "17"):
        code, text = run(["gen", "--seed", seed, "--model", "random"])
        ok = ok and code == 0
        ok = ok and emit(parse(text)) == text
        path = tmp_path / f"m{seed}.nvk"
        path.write_text(text)
        ts = "0/1,1/4,1/2,3/4,1/1"
        runs = {n: run(["beta", str(path), "--t", ts], threads=n)
                for n in ("1", "4")}
        ok = ok and runs["1"] == runs["4"] and runs["1"][0] == 0
        bar1 = run(["barcode", str(path), "--t", "1/2"], threads="1")
        bar4 = run(["barcode", str(path), "--t", "1/2"], threads="4")
        ok = ok and bar1 == bar4 and bar1[0] == 0
    verdict(10, "CLI round-trip and thread determinism", ok)
