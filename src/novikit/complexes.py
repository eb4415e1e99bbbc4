"""Families of filtered chain complexes over the interval-mode Novikov ring.

A :class:`FilteredComplex` is a graded free module with named generators,
per-generator affine action offsets ``eta_i(t) = action0 + t*action_slope``,
and a family of boundary matrices sampled at parameter values s in [0, 1].
No interpolation between samples is ever invented: each sampled slice must
be a chain complex on its own (square zero, strictly filtration
decreasing), and cross-slice comparisons go through explicitly supplied
continuation quadruples.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .periods import PeriodSystem
from .series import INF, ModeMismatch, NovikovElement, RingMode, valuation_at, zero

NEG_INF = float("-inf")

# A matrix is column-major: column generator -> {row generator -> entry}.
Matrix = Mapping[str, Mapping[str, NovikovElement]]
# A chain maps generator names to nonzero ring coefficients.
Chain = Mapping[str, NovikovElement]


class StructureError(ValueError):
    pass


class CappedGenerator:
    """A graded basis generator with an affine action offset in t."""

    __slots__ = ("name", "degree", "action0", "action_slope")

    def __init__(self, name: str, degree: int, action0, action_slope):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "action0", Fraction(action0))
        object.__setattr__(self, "action_slope", Fraction(action_slope))

    def __setattr__(self, *args):
        raise AttributeError("CappedGenerator is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not CappedGenerator:
            return NotImplemented
        return (self.name, self.degree, self.action0, self.action_slope) == \
            (other.name, other.degree, other.action0, other.action_slope)

    def action_at(self, t) -> Fraction:
        return self.action0 + Fraction(t) * self.action_slope

    @property
    def action_endpoints(self) -> tuple[Fraction, Fraction]:
        return (self.action0, self.action0 + self.action_slope)


class ContinuationData:
    """A quadruple of chain maps and homotopies with filtration shifts.

    ``phi`` maps the s-slice to the t-slice, ``psi`` back; ``k_s`` and
    ``k_t`` are the degree +1 homotopies on the respective slices.  The
    shift bounds (s1, s2) cap the filtration change of phi and psi.
    """

    __slots__ = ("s_from", "s_to", "phi", "psi", "k_s", "k_t", "shift1", "shift2")

    def __init__(self, s_from, s_to, phi: Matrix, psi: Matrix, k_s: Matrix,
                 k_t: Matrix, shift1, shift2):
        object.__setattr__(self, "s_from", Fraction(s_from))
        object.__setattr__(self, "s_to", Fraction(s_to))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "k_s", k_s)
        object.__setattr__(self, "k_t", k_t)
        object.__setattr__(self, "shift1", Fraction(shift1))
        object.__setattr__(self, "shift2", Fraction(shift2))

    def __setattr__(self, *args):
        raise AttributeError("ContinuationData is immutable")


class ValidationReport:
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: list):
        self.ok = ok
        self.violations = violations

    def __bool__(self) -> bool:
        return self.ok


class FilteredComplex:
    """Graded free module with a sampled family of boundary operators."""

    __slots__ = ("system", "coefficient_field", "mode", "cutoff", "generators",
                 "boundaries", "continuations", "_by_name")

    def __init__(self, system: PeriodSystem, coefficient_field, mode: RingMode,
                 cutoff, generators: Iterable[CappedGenerator],
                 boundaries: Mapping[Fraction, Matrix],
                 continuations: Iterable[ContinuationData] = ()):
        cutoff = Fraction(cutoff)
        generators = tuple(generators)
        by_name = {g.name: g for g in generators}
        if len(by_name) != len(generators):
            raise StructureError("generator names must be unique")
        bd = {Fraction(s): {c: dict(col) for c, col in m.items()}
              for s, m in boundaries.items()}
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "coefficient_field", coefficient_field)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "boundaries", bd)
        object.__setattr__(self, "continuations", tuple(continuations))
        object.__setattr__(self, "_by_name", by_name)

    def __setattr__(self, *args):
        raise AttributeError("FilteredComplex is immutable")

    @property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def generator(self, name: str) -> CappedGenerator:
        g = self._by_name.get(name)
        if g is None:
            raise StructureError(f"unknown generator {name!r}")
        return g

    @property
    def samples(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.boundaries))

    def boundary_matrix(self, s) -> Matrix:
        s = Fraction(s)
        if s not in self.boundaries:
            raise StructureError(f"no boundary sample at s={s}")
        return self.boundaries[s]

    def zero_coeff(self) -> NovikovElement:
        return zero(self.system, self.coefficient_field, self.mode, self.cutoff)

    def action_at(self, name: str, t) -> Fraction:
        return self.generator(name).action_at(t)


def chain_is_zero(chain: Chain) -> bool:
    return all(c.is_zero() for c in chain.values())


def chain_cleanup(chain: Chain) -> dict[str, NovikovElement]:
    return {k: v for k, v in chain.items() if not v.is_zero()}


def chain_add(a: Chain, b: Chain) -> dict[str, NovikovElement]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return chain_cleanup(out)


def chain_sub(a: Chain, b: Chain) -> dict[str, NovikovElement]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] - v if k in out else -v
    return chain_cleanup(out)


def ell(cx: FilteredComplex, chain: Chain, t) -> object:
    """Filtration level of a chain at parameter t; -inf for the zero chain.

    The level of a single term is the generator's action offset minus the
    coefficient's interpolated valuation; a chain takes the maximum.
    """
    t = Fraction(t)
    if not (0 <= t <= 1):
        raise ValueError(f"t={t} outside [0, 1]")
    best = NEG_INF
    for name, coeff in chain.items():
        v = valuation_at(coeff, t)
        if v is INF:
            continue
        level = cx.action_at(name, t) - v
        if level > best:
            best = level
    return best


def ell_curve(cx: FilteredComplex, chain: Chain):
    """The exact piecewise-affine function t -> ell(chain, t), an
    ``envelope.PiecewiseAffine``."""
    from .envelope import filtration_curve

    actions = []
    for name, coeff in chain.items():
        if coeff.is_zero():
            continue
        g = cx.generator(name)
        pts = [cx.system.pair(a) for a in coeff.terms]
        actions.append(((g.action0, g.action_slope), pts))
    if not actions:
        raise ValueError("zero chain has no filtration curve")
    return filtration_curve(actions)


def apply_boundary(cx: FilteredComplex, s, chain: Chain) -> dict[str, NovikovElement]:
    """Exact matrix-vector product of the s-slice boundary with a chain."""
    return apply_matrix(cx, cx.boundary_matrix(s), chain)


def apply_matrix(cx: FilteredComplex, matrix: Matrix, chain: Chain) -> dict[str, NovikovElement]:
    out: dict[str, NovikovElement] = {}
    for col, coeff in chain.items():
        if coeff.is_zero():
            continue
        for row, entry in matrix.get(col, {}).items():
            term = entry * coeff
            out[row] = out[row] + term if row in out else term
    return chain_cleanup(out)


def compose_matrices(cx: FilteredComplex, outer: Matrix, inner: Matrix) -> dict[str, dict[str, NovikovElement]]:
    """Matrix product outer @ inner, column-major, zero entries dropped."""
    out: dict[str, dict[str, NovikovElement]] = {}
    for col, column in inner.items():
        acc = apply_matrix(cx, outer, column)
        if acc:
            out[col] = acc
    return out


def basis_chain(cx: FilteredComplex, name: str) -> dict[str, NovikovElement]:
    from .series import unit

    cx.generator(name)
    return {name: unit(cx.system, cx.coefficient_field, cx.mode, cx.cutoff)}


def _check_entry_compat(cx: FilteredComplex, entry: NovikovElement) -> None:
    if entry.system != cx.system or entry.mode is not cx.mode \
            or entry.cutoff != cx.cutoff or entry.field != cx.coefficient_field:
        raise ModeMismatch("matrix entry incompatible with complex ring data")


def _matrix_violations(cx: FilteredComplex, matrix: Matrix, names: set,
                       degrees: dict) -> list:
    """The violations that depend on the matrix alone, in report order,
    each witness without its sample: dangling columns and rows, grading,
    then square-zero."""
    found: list = []
    for col, column in matrix.items():
        if col not in names:
            found.append(("dangling-column", (col,)))
            continue
        for row, entry in column.items():
            if row not in names:
                found.append(("dangling-row", (col, row)))
                continue
            _check_entry_compat(cx, entry)
            if not entry.is_zero() and degrees[row] != degrees[col] - 1:
                found.append(("grading", (col, row)))
    # Square zero, exactly.  Each row's products are summed as raw
    # (row, exponent) -> coefficient terms and truncated once: truncation
    # keeps a term by its exponent alone, so the nonzero rows are those of
    # apply_matrix applied twice, without a NovikovElement per product.
    one = _unit(cx)
    field, keeps, pair = cx.coefficient_field, cx.mode.keeps, cx.system.pair
    add, mul, zero, plus = field.add, field.mul, field.zero, operator.add
    for col, column in matrix.items():
        if col not in names:
            continue
        for row, entry in column.items():
            if row not in names:
                entry._compatible(one)  # as multiplying it by d(col) would
        sums: dict = {}
        for mid, entry in column.items():
            if not entry.terms:
                continue
            for row, outer in matrix.get(mid, {}).items():
                if mid not in names or row not in names:
                    outer._compatible(one)  # the others were checked above
                for a, c in outer.terms.items():
                    for b, d in entry.terms.items():
                        key = (row, tuple(map(plus, a, b)))
                        sums[key] = add(sums.get(key, zero), mul(c, d))
        second = sorted({row for (row, e), c in sums.items()
                         if not field.is_zero(c) and keeps(pair(e), cx.cutoff)})
        if second:
            found.append(("square-nonzero", (col, second)))
    return found


class _IntLevels:
    """The affine filtration levels of a complex's terms, scaled to ints.

    At parameter s a term T^A of the entry in row r has level
    ``eta_r(s) - ((1-s)*omega0(A) + s*omega1(A))``, which is
    ``(action0_r - omega0(A)) + s*(slope_r + omega0(A) - omega1(A))``.
    Every action and period is a multiple of ``1/denom``, the lcm of their
    denominators, so both coefficients are ints over ``denom``.
    """

    __slots__ = ("denom", "actions", "omega0", "omega1", "_periods")

    def __init__(self, cx: FilteredComplex):
        system = cx.system
        values = [*system.omega0, *system.omega1]
        for g in cx.generators:
            values += (g.action0, g.action_slope)
        denom = lcm(*(v.denominator for v in values))
        self.denom = denom
        self.actions = {g.name: (int(g.action0 * denom), int(g.action_slope * denom))
                        for g in cx.generators}
        self.omega0 = [int(w * denom) for w in system.omega0]
        self.omega1 = [int(w * denom) for w in system.omega1]
        self._periods: dict = {}  # exponent -> (omega0, omega0 - omega1), scaled

    def table(self, matrix: Matrix) -> dict:
        """Column -> (own constant, own slope, term levels) for every
        column of a generator with a nonzero entry: the scaled (constant,
        slope) of the column's action and of every term of its entries in
        rows that name a generator.  This is all the filtration check needs
        at any sample.  A nonzero row that names no generator is reported
        as ``dangling-row`` and has no level."""
        actions, periods = self.actions, self._periods
        table = {}
        for col, column in matrix.items():
            if col not in actions:
                continue
            levels, nonzero = [], False
            for row, entry in column.items():
                if not entry.terms:
                    continue
                nonzero = True
                if row not in actions:
                    continue
                a_row, b_row = actions[row]
                for a in entry.terms:
                    p = periods.get(a)
                    if p is None:
                        g0 = sum(w * c for w, c in zip(self.omega0, a))
                        g1 = sum(w * c for w, c in zip(self.omega1, a))
                        p = periods[a] = (g0, g0 - g1)
                    levels.append((a_row - p[0], b_row + p[1]))
            if nonzero:
                table[col] = (*actions[col], levels)
        return table


def _filtration_violations(cx: FilteredComplex, matrix: Matrix, table: dict,
                           denom: int, s: Fraction) -> list:
    """Strict filtration decrease of every nonzero column at s = p/q, as
    ``ell(column, s) < action(col, s)`` on ints scaled by ``denom*q``."""
    if table and not 0 <= s <= 1:
        raise ValueError(f"t={s} outside [0, 1]")
    p, q = s.numerator, s.denominator
    found = []
    for col in matrix:  # in this matrix's column order
        entry = table.get(col)
        if entry is None:
            continue
        own_a, own_b, levels = entry
        if not levels:  # every nonzero row dangles: the level is -inf
            continue
        top = max(a * q + b * p for a, b in levels)
        own = own_a * q + own_b * p
        if top >= own:
            scale = denom * q
            found.append(("filtration", (s, col, Fraction(top, scale),
                                         Fraction(own, scale))))
    return found


def validate(cx: FilteredComplex, grid: Iterable | None = None) -> ValidationReport:
    """Structural and filtration checks at every requested sample.

    Verifies exact square-zero of each sampled boundary, the grading
    (entries lower degree by one), and strict filtration decrease of every
    nonzero column at each sampled s.  Violations carry witnesses.  The
    checks that read only the matrix run once per distinct (``==``) matrix
    and are reported again, with their s, at every sample that has it.  The
    filtration check scales each term's affine level to ints once per
    distinct matrix and evaluates it per sample on ints.
    """
    violations: list = []
    names = set(cx.generator_names)
    degrees = {g.name: g.degree for g in cx.generators}

    samples = tuple(Fraction(s) for s in grid) if grid is not None else cx.samples
    for s in samples:
        if s not in cx.boundaries:
            violations.append(("missing-sample", s))
    samples = [s for s in samples if s in cx.boundaries]

    scaled = _IntLevels(cx)
    checked: list = []  # (matrix, its _matrix_violations, its scaled.table)
    for s in samples:
        matrix = cx.boundaries[s]
        hit = next((c for c in checked if c[0] == matrix), None)
        if hit is None:
            hit = (matrix, _matrix_violations(cx, matrix, names, degrees),
                   scaled.table(matrix))
            checked.append(hit)
        _, found, table = hit
        violations.extend((kind, (s, *witness)) for kind, witness in found)
        violations.extend(_filtration_violations(cx, matrix, table, scaled.denom, s))
    return ValidationReport(ok=not violations, violations=violations)


def _unit(cx: FilteredComplex) -> NovikovElement:
    from .series import unit

    return unit(cx.system, cx.coefficient_field, cx.mode, cx.cutoff)


def _identity_matrix(cx: FilteredComplex) -> dict[str, dict[str, NovikovElement]]:
    one = _unit(cx)
    return {g: {g: one} for g in cx.generator_names}


def _matrix_combine(a: Matrix, b: Matrix, combine) -> dict[str, dict[str, NovikovElement]]:
    """Column by column ``combine(a, b)`` (``chain_add`` or ``chain_sub``),
    zero columns dropped."""
    out: dict[str, dict[str, NovikovElement]] = {}
    for c in [*a, *(c for c in b if c not in a)]:
        col = combine(a.get(c, {}), b.get(c, {}))
        if col:
            out[c] = col
    return out


def verify_continuation(cx_s: FilteredComplex, cx_t: FilteredComplex,
                        data: ContinuationData) -> ValidationReport:
    """Exact verification of a continuation quadruple.

    Checks the two chain-map identities, both homotopy identities, and the
    filtration shift bounds on all basis chains.
    """
    violations: list = []
    if set(cx_s.generator_names) != set(cx_t.generator_names):
        return ValidationReport(False, [("basis-mismatch", None)])
    d_s = cx_s.boundary_matrix(data.s_from)
    d_t = cx_t.boundary_matrix(data.s_to)

    lhs = compose_matrices(cx_s, data.phi, d_s)
    rhs = compose_matrices(cx_s, d_t, data.phi)
    delta = _matrix_combine(lhs, rhs, chain_sub)
    for col in sorted(delta):
        violations.append(("chain-map-phi", col))
    lhs = compose_matrices(cx_s, data.psi, d_t)
    rhs = compose_matrices(cx_s, d_s, data.psi)
    delta = _matrix_combine(lhs, rhs, chain_sub)
    for col in sorted(delta):
        violations.append(("chain-map-psi", col))

    ident = _identity_matrix(cx_s)
    psiphi = compose_matrices(cx_s, data.psi, data.phi)
    homo = _matrix_combine(compose_matrices(cx_s, d_s, data.k_s),
                           compose_matrices(cx_s, data.k_s, d_s), chain_add)
    delta = _matrix_combine(_matrix_combine(psiphi, ident, chain_sub), homo, chain_sub)
    for col in sorted(delta):
        violations.append(("homotopy-s", col))
    phipsi = compose_matrices(cx_s, data.phi, data.psi)
    homo = _matrix_combine(compose_matrices(cx_s, d_t, data.k_t),
                           compose_matrices(cx_s, data.k_t, d_t), chain_add)
    delta = _matrix_combine(_matrix_combine(phipsi, ident, chain_sub), homo, chain_sub)
    for col in sorted(delta):
        violations.append(("homotopy-t", col))

    for name in cx_s.generator_names:
        image = chain_cleanup(data.phi.get(name, {}))
        if image:
            shifted = ell(cx_t, image, data.s_to)
            bound = cx_s.action_at(name, data.s_from) + data.shift1
            if not shifted <= bound:
                violations.append(("shift-phi", (name, shifted, bound)))
        image = chain_cleanup(data.psi.get(name, {}))
        if image:
            shifted = ell(cx_s, image, data.s_from)
            bound = cx_t.action_at(name, data.s_to) + data.shift2
            if not shifted <= bound:
                violations.append(("shift-psi", (name, shifted, bound)))
    return ValidationReport(ok=not violations, violations=violations)
