"""Exact bottleneck distance between two barcodes.

Bars of each degree are matched at the least candidate distance whose
bipartite graph of bars and their diagonal copies has a perfect matching.
The lower bound set by each bar's cheapest edge is probed first, on a
graph built by birth-window queries; the candidates above it are bisected
only when it fails.  All comparisons are on ints: every endpoint is scaled
once by a common denominator.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import Sequence

from .reduction import Bar, Barcode
from .series import INF


def _augment(root: int, adj: list, lim: list, look: list, match_l: list,
             match_r: list, seen: list, stamp: int) -> bool:
    """Flip an augmenting path from the free left vertex ``root``, if any.

    Depth-first search on an explicit stack: ``path`` holds the left
    vertices from the root down, ``via[k]`` the right vertex that leads from
    ``path[k]`` to ``path[k + 1]``, and ``nxt[k]`` the next neighbour of
    ``path[k]`` to try.  Left vertex ``u`` sees ``adj[u][:lim[u]]``.  A right
    vertex is entered at most once per ``stamp``; the marks outlive the
    search, so later searches under the same stamp skip it.  Before
    descending, a vertex looks for a free neighbour; matched vertices stay
    matched, so ``adj[u][:look[u]]`` are all matched and that scan never
    restarts.
    """
    path, via, nxt = [root], [], [0]
    entered = True
    while path:
        u = path[-1]
        rights, end = adj[u], lim[u]
        if entered:
            k = look[u]
            while k < end and match_r[rights[k]] >= 0:
                k += 1
            look[u] = k
            if k < end:
                via.append(rights[k])
                for left, right in zip(path, via):
                    match_l[left] = right
                    match_r[right] = left
                return True
        entered = False
        i = nxt[-1]
        while i < end:
            r = rights[i]
            i += 1
            if seen[r] != stamp:
                seen[r] = stamp
                nxt[-1] = i
                via.append(r)
                path.append(match_r[r])
                nxt.append(0)
                entered = True
                break
        else:
            path.pop()
            nxt.pop()
            if via:
                via.pop()
    return False


def _bottleneck_degree(bars_a: Sequence[Bar], bars_b: Sequence[Bar]):
    """Exact bottleneck distance of the bars of one degree: a Fraction, or INF.

    Unbounded bars match unbounded bars in birth order; ``base`` is the
    largest birth gap.  The finite bars A_1..A_n and B_1..B_m are matched
    at the least candidate delta (a cost, a half-length or base) at which
    this bipartite graph has a perfect matching:

    * left vertices are the A_i and a diagonal copy of every B_j, right
      vertices the B_j and a diagonal copy of every A_i;
    * A_i - B_j when cost(A_i, B_j) <= delta, the cost being the L-infinity
      distance of (birth, death); A_i - diag(A_i) and diag(B_j) - B_j when
      half the bar's length is <= delta;
    * diag(B_j) - diag(A_i) only when cost(A_i, B_j) <= delta (the mirrored
      diagonal block), not for every pair.

    The mirrored block loses no perfect matching.  Take one of the graph in
    which every pair of diagonal copies is linked.  For each real pair
    (A_i, B_j) it uses, pair diag(B_j) with diag(A_i): that edge is present
    since cost(A_i, B_j) <= delta.  Every other A_i is matched to diag(A_i)
    and every other B_j to diag(B_j), as in the given matching.  This is a
    perfect matching of the pruned graph.

    Every birth and death is scaled once by 2*D, D the lcm of their
    denominators, so that costs and half-lengths are ints.  Every vertex
    needs an edge, so ``floor``, the largest of base and each vertex's
    cheapest edge (a right vertex has the edges of a left one), is a lower
    bound and a candidate, and it is probed first.  A cost is at least the
    birth gap, so with the bars sorted by birth a scan out from each birth
    finds the cheapest edge, stopping at a gap of the best cost so far,
    and birth windows give the graph at delta.  Failing at ``floor``, the candidates are
    bisected up to the largest half-length or base, where deleting every
    bar is a perfect matching.  A vertex's edges are sorted by cost and a
    probe uses those of cost <= delta, so edges only appear as delta grows:
    a probe starts from the matching of the last probe that failed, and it
    stops at the first free vertex that an unmarked search cannot augment.
    """
    inf_a = sorted(b.birth for b in bars_a if not b.is_finite)
    inf_b = sorted(b.birth for b in bars_b if not b.is_finite)
    if len(inf_a) != len(inf_b):
        return INF
    fin_a = [(b.birth, b.death) for b in bars_a if b.is_finite]
    fin_b = [(b.birth, b.death) for b in bars_b if b.is_finite]
    ends = inf_a + inf_b + [x for bar in fin_a + fin_b for x in bar]
    scale = 2 * lcm(*{x.denominator for x in ends})

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    base = max((abs(scaled(x) - scaled(y)) for x, y in zip(inf_a, inf_b)), default=0)
    pts_a = sorted((scaled(b), scaled(d)) for b, d in fin_a)
    pts_b = sorted((scaled(b), scaled(d)) for b, d in fin_b)
    n, m = len(pts_a), len(pts_b)
    del_a = [(d - b) // 2 for b, d in pts_a]
    del_b = [(d - b) // 2 for b, d in pts_b]
    size = n + m
    births_b = [b for b, _ in pts_b]

    def graph(delta: int):
        """Left vertex u's neighbours r at delta sorted by cost, as ``keys[u]``
        (cost*size + r) and ``adj[u]`` (r).  Left vertex u < n is A_u, else
        diag(B_{u-n}); right vertex r < m is B_r, else diag(A_{r-m})."""
        keys = [[c * size + m + i] if c <= delta else [] for i, c in enumerate(del_a)]
        keys += [[c * size + j] if c <= delta else [] for j, c in enumerate(del_b)]
        for i, (b, d) in enumerate(pts_a):
            for j in range(bisect_left(births_b, b - delta), bisect_right(births_b, b + delta)):
                c = max(abs(b - pts_b[j][0]), abs(d - pts_b[j][1]))
                if c <= delta:
                    keys[i].append(c * size + j)
                    keys[n + j].append(c * size + m + i)
        for row in keys:
            row.sort()
        return keys, [[x % size for x in row] for row in keys]

    def grown(delta: int, keys: list, adj: list, state: list):
        """The matching ``[match_l, match_r, look]`` grown from ``state`` at
        delta, or None once it is perfect."""
        match_l, match_r, look = (x[:] for x in state)
        lim = [bisect_left(k, (delta + 1) * size) for k in keys]
        seen, stamp = [0] * size, 0
        free = [u for u in range(size) if match_l[u] < 0]
        while free:
            # One stamp per pass: a search that fails on marks left by
            # earlier ones is retried in the next pass.  The first search of
            # a pass sees no marks, so its failure is final.
            stamp += 1
            if not _augment(free[0], adj, lim, look, match_l, match_r, seen, stamp):
                return [match_l, match_r, look]
            free = [u for u in free[1:]
                    if not _augment(u, adj, lim, look, match_l, match_r, seen, stamp)]
        return None

    floor = base
    for pts, dels, other in ((pts_a, del_a, pts_b), (pts_b, del_b, pts_a)):
        births = [b for b, _ in other]
        for (b, d), best in zip(pts, dels):
            k = bisect_left(births, b)
            for js in (range(k, len(other)), range(k - 1, -1, -1)):
                for j in js:
                    if abs(other[j][0] - b) >= best:
                        break
                    best = min(best, max(abs(other[j][0] - b), abs(other[j][1] - d)))
            floor = max(floor, best)
    warm = grown(floor, *graph(floor), [[-1] * size, [-1] * size, [0] * size])
    if warm is None:
        return Fraction(floor, scale)
    keys, adj = graph(max([base, *del_a, *del_b]))
    feas = sorted({x // size for k in keys for x in k if x // size > floor})
    lo, hi = 0, len(feas) - 1  # the largest candidate admits every deletion edge
    while lo < hi:
        mid = (lo + hi) // 2
        trial = grown(feas[mid], keys, adj, warm)
        if trial is None:
            hi = mid
        else:
            warm, lo = trial, mid + 1
    return Fraction(feas[lo], scale)


def bottleneck(b1: Barcode, b2: Barcode):
    """Exact bottleneck distance, maximized over degrees.

    Infinite bars only match infinite bars (cost: birth difference); a
    degree with mismatched infinite-bar counts reports distance +inf.
    """
    degrees = {b.degree for b in b1.bars} | {b.degree for b in b2.bars}
    best = Fraction(0)
    for d in sorted(degrees):
        val = _bottleneck_degree(b1.in_degree(d), b2.in_degree(d))
        if val is INF:
            return INF
        best = max(best, val)
    return best
