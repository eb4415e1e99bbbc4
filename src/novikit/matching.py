"""Exact bottleneck distance between two barcodes.

Bars of each degree are matched by a binary search over the candidate
distances, each probe asking whether a bipartite graph of bars and their
diagonal copies has a perfect matching.  All comparisons are on ints:
every endpoint is scaled once by a common denominator.
"""

from __future__ import annotations

from bisect import bisect_right
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
    largest birth gap.  The finite bars A_1..A_n and B_1..B_m are matched by
    a binary search over the candidates delta (the costs, the half-lengths
    and base); delta is feasible when this bipartite graph has a perfect
    matching:

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
    denominators, so that costs and half-lengths are ints.  Each left
    vertex keeps its neighbours sorted by cost, and a probe at delta uses
    the prefix of cost <= delta.  Edges only appear as delta grows, so a
    probe starts from the matching of the last probe that failed, and it
    stops at the first free vertex that an unmarked search cannot augment.
    """
    inf_a = sorted(b.birth for b in bars_a if not b.is_finite)
    inf_b = sorted(b.birth for b in bars_b if not b.is_finite)
    if len(inf_a) != len(inf_b):
        return INF
    fin_a = [(b.birth, b.death) for b in bars_a if b.is_finite]
    fin_b = [(b.birth, b.death) for b in bars_b if b.is_finite]
    dens = {x.denominator for x in inf_a + inf_b}
    for birth, death in fin_a + fin_b:
        dens.add(birth.denominator)
        dens.add(death.denominator)
    scale = 2 * lcm(*dens)

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    base = max((abs(scaled(x) - scaled(y)) for x, y in zip(inf_a, inf_b)), default=0)
    pts_a = [(scaled(b), scaled(d)) for b, d in fin_a]
    pts_b = [(scaled(b), scaled(d)) for b, d in fin_b]
    n, m = len(pts_a), len(pts_b)
    costs = [[max(abs(ab - bb), abs(ad - bd)) for bb, bd in pts_b] for ab, ad in pts_a]
    del_a = [(d - b) // 2 for b, d in pts_a]
    del_b = [(d - b) // 2 for b, d in pts_b]

    # Left vertex u < n is A_u, u >= n is diag(B_{u-n}); right vertex
    # r < m is B_r, r >= m is diag(A_{r-m}).
    keys: list[list[int]] = []
    adj: list[list[int]] = []

    def add_vertex(row: list, targets: list) -> None:
        order = sorted(range(len(row)), key=row.__getitem__)
        keys.append(list(map(row.__getitem__, order)))
        adj.append(list(map(targets.__getitem__, order)))

    to_b = list(range(m))
    for i, row in enumerate(costs):
        add_vertex(row + [del_a[i]], to_b + [m + i])
    to_diag_a = list(range(m, m + n))
    for j in range(m):
        add_vertex([row[j] for row in costs] + [del_b[j]], to_diag_a + [j])

    # Every vertex needs a neighbour, so delta is at least the cheapest
    # edge of each (a right vertex has the costs of a left one).
    floor = max([base] + [k[0] for k in keys])
    cands = {base, *del_a, *del_b}
    for row in costs:
        cands.update(row)
    feas = sorted(c for c in cands if c >= floor)

    size = n + m
    warm_l, warm_r, warm_look = [-1] * size, [-1] * size, [0] * size
    seen = [0] * size
    stamp = 0
    # The largest candidate admits every deletion edge, so it is feasible.
    best = feas[-1]
    lo, hi = 0, len(feas) - 2
    while lo <= hi:
        mid = (lo + hi) // 2
        delta = feas[mid]
        lim = [bisect_right(k, delta) for k in keys]
        match_l, match_r, look = warm_l[:], warm_r[:], warm_look[:]
        free = [u for u in range(size) if match_l[u] < 0]
        while free:
            # One stamp per pass: a search that fails on marks left by
            # earlier ones is retried in the next pass.  The first search of
            # a pass sees no marks, so its failure is final.
            stamp += 1
            if not _augment(free[0], adj, lim, look, match_l, match_r, seen, stamp):
                break
            free = [u for u in free[1:]
                    if not _augment(u, adj, lim, look, match_l, match_r, seen, stamp)]
        if free:
            warm_l, warm_r, warm_look = match_l, match_r, look
            lo = mid + 1
        else:
            best = delta
            hi = mid - 1
    return Fraction(best, scale)


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
