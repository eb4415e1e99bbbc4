"""Plain-text complex files: the single ingestion path for the CLI.

The format is line based and fully canonical on emission, so that
emit -> parse -> emit is byte-identical.  Rationals are always "p/q"
strings; exponent vectors are comma-separated integers ("." for a rank-0
lattice); unknown sections or keys, and values outside their domain
(field, whose prime must lie below 2^31, cutoff, rank, period vector
lengths, boundary samples and continuation endpoints, which lie in
[0, 1]), are rejected with the offending line number.  The ring sections
(``[options]``, ``[period-system]``) must precede every boundary and
continuation entry.

    # novikit complex v1
    [options]
    field = f2
    cutoff = 10/1
    mode = interval

    [period-system]
    rank = 2
    omega0 = 1/1 0/1
    omega1 = 0/1 1/1

    [generators]
    x0 0 1/1 0/1
    y0 1 3/1 0/1

    [boundary s=0/1]
    x0 y0 : 1 2,1

    [continuation from=0/1 to=1/1]
    shift1 = 0/1
    shift2 = 0/1
    phi x0 x0 : 1 0,0

Boundary and map lines read ``row col : coeff exp ; coeff exp ...``.
The options are individually optional on input (defaults: field f2,
cutoff 10/1, mode interval); emission always writes all three.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import CappedGenerator, ContinuationData, FilteredComplex
from .fields import FieldError, field_by_name, render_fraction
from .periods import PeriodSystem
from .series import NovikovElement, NovikovRing, RingMode

HEADER = "# novikit complex v1"
_MAP_KEYS = ("phi", "psi", "ks", "kt")


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _parse_fraction(raw: str, line_no: int) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"bad rational {raw!r}") from None


def _render_exponent(a) -> str:
    if not a:
        return "."
    return ",".join(str(c) for c in a)


def _parse_exponent(raw: str, rank: int, line_no: int):
    if raw == ".":
        exp = ()
    else:
        try:
            exp = tuple(int(c) for c in raw.split(","))
        except ValueError:
            raise ParseError(line_no, f"bad exponent vector {raw!r}") from None
    if len(exp) != rank:
        raise ParseError(line_no, f"exponent {raw!r} has wrong rank (need {rank})")
    return exp


def _render_terms(entry: NovikovElement) -> str:
    ring = entry.ring
    parts = []
    for a in sorted(entry.terms, key=lambda a: (ring.ipair(a), a)):
        parts.append(f"{ring.field.render(entry.terms[a])} {_render_exponent(a)}")
    return " ; ".join(parts)


def _parse_terms(raw: str, ring: NovikovRing, line_no: int) -> NovikovElement:
    field = ring.field
    terms = {}
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(line_no, "empty term")
        bits = chunk.split()
        if len(bits) != 2:
            raise ParseError(line_no, f"term {chunk!r} needs 'coeff exponent'")
        try:
            coeff = field.parse(bits[0])
        except (ValueError, ZeroDivisionError):
            raise ParseError(line_no, f"bad coefficient {bits[0]!r}") from None
        exp = _parse_exponent(bits[1], ring.system.rank, line_no)
        terms[exp] = field.add(terms.get(exp, field.zero), coeff)
    return NovikovElement(ring, terms)


def emit(cx: FilteredComplex) -> str:
    """Canonical text form of a complex (byte-stable)."""
    ring, system = cx.ring, cx.system
    out = [HEADER, ""]
    out.append("[options]")
    out.append(f"field = {ring.field.name}")
    out.append(f"cutoff = {render_fraction(ring.cutoff)}")
    out.append(f"mode = {ring.mode.value}")
    out.append("")
    out.append("[period-system]")
    out.append(f"rank = {system.rank}")
    out.append("omega0 = " + (" ".join(render_fraction(w) for w in system.omega0) or "."))
    out.append("omega1 = " + (" ".join(render_fraction(w) for w in system.omega1) or "."))
    out.append("")
    out.append("[generators]")
    for g in cx.generators:
        out.append(f"{g.name} {g.degree} {render_fraction(g.action0)} "
                   f"{render_fraction(g.action_slope)}")
    rendered: dict = {}  # id(matrix) -> its lines: samples share matrices
    for s in cx.samples:
        out.append("")
        out.append(f"[boundary s={render_fraction(s)}]")
        matrix = cx.boundaries[s]
        if id(matrix) not in rendered:
            rendered[id(matrix)] = _entry_lines("", matrix)
        out.extend(rendered[id(matrix)])
    for data in sorted(cx.continuations, key=lambda d: (d.s_from, d.s_to)):
        out.append("")
        out.append(f"[continuation from={render_fraction(data.s_from)} "
                   f"to={render_fraction(data.s_to)}]")
        out.append(f"shift1 = {render_fraction(data.shift1)}")
        out.append(f"shift2 = {render_fraction(data.shift2)}")
        for key, matrix in zip(_MAP_KEYS, (data.phi, data.psi, data.k_s, data.k_t)):
            out.extend(_entry_lines(f"{key} ", matrix))
    out.append("")
    return "\n".join(out)


def _entry_lines(prefix: str, matrix) -> list[str]:
    """``{prefix}row col : terms`` for each nonzero entry, by (row, col)."""
    return [f"{prefix}{row} {col} : {_render_terms(matrix[col][row])}"
            for row, col in sorted((row, col) for col in matrix for row in matrix[col])
            if not matrix[col][row].is_zero()]


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.options: dict = {}
        self.rank = None
        self.omega = {}
        self.generators: list[CappedGenerator] = []
        self.names: set[str] = set()
        self.boundaries: dict = {}
        self.continuations: list = []
        self._section = None
        self._cont = None
        self._ring = None  # _ring_of's result, fixed from the first entry on
        self._entries: dict = {}  # entry text -> its (immutable) NovikovElement

    def fail(self, line_no, msg):
        raise ParseError(line_no, msg)

    def run(self) -> FilteredComplex:
        if not self.lines or self.lines[0].strip() != HEADER:
            self.fail(1, f"missing header {HEADER!r}")
        for idx, raw in enumerate(self.lines[1:], start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                self._open_section(line, idx)
            else:
                self._line(line, idx)
        return self._build()

    def _open_section(self, line, idx):
        if not line.endswith("]"):
            self.fail(idx, "unterminated section header")
        head = line[1:-1].strip()
        if head in ("options", "period-system"):
            if self._ring is not None:
                self.fail(idx, f"[{head}] section after boundary or continuation entries")
            self._section = head
        elif head == "generators":
            self._section = "generators"
        elif head.startswith("boundary"):
            rest = head[len("boundary"):].strip()
            if not rest.startswith("s="):
                self.fail(idx, "boundary section needs s=p/q")
            s = _parse_fraction(rest[2:], idx)
            if not 0 <= s <= 1:
                self.fail(idx, f"boundary sample s={render_fraction(s)} lies outside [0, 1]")
            if s in self.boundaries:
                self.fail(idx, f"duplicate boundary sample s={render_fraction(s)}")
            self.boundaries[s] = {}
            self._section = ("boundary", self.boundaries[s])
        elif head.startswith("continuation"):
            items = [p.split("=", 1) for p in head[len("continuation"):].split()]
            parts = dict(p for p in items if len(p) == 2)
            if len(items) != 2 or set(parts) != {"from", "to"}:
                self.fail(idx, "continuation section needs from= and to=")
            cont = {"shift1": None, "shift2": None,
                    "phi": {}, "psi": {}, "ks": {}, "kt": {}}
            for key in ("from", "to"):
                value = _parse_fraction(parts[key], idx)
                if not 0 <= value <= 1:
                    self.fail(idx, f"continuation {key}={render_fraction(value)} "
                                   "lies outside [0, 1]")
                cont[key] = value
            self.continuations.append(cont)
            self._section = "continuation"
            self._cont = cont
        else:
            self.fail(idx, f"unknown section {head!r}")

    def _ring_of(self, idx) -> NovikovRing:
        """The file's one ring, built on first use.  The first entry fixes
        it: a later ``[options]`` or ``[period-system]`` section is an
        error."""
        if self._ring is not None:
            return self._ring
        if self.rank is None:
            self.fail(idx, "period-system must precede entries")
        try:
            system = PeriodSystem(self.rank, self.omega.get("omega0", ()),
                                  self.omega.get("omega1", ()))
        except ValueError as err:
            self.fail(idx, f"bad period-system: {err}")
        field = field_by_name(self.options.get("field", "f2"))
        mode = RingMode(self.options.get("mode", "interval"))
        cutoff = self.options.get("cutoff", Fraction(10))
        self._ring = NovikovRing(system, field, mode, cutoff)
        return self._ring

    def _entry_line(self, line, idx, into, prefix_maps=False):
        if ":" not in line:
            self.fail(idx, "entry line needs ':'")
        head, _, terms = line.partition(":")
        bits = head.split()
        if prefix_maps:
            if len(bits) != 3 or bits[0] not in _MAP_KEYS:
                self.fail(idx, "continuation entry needs 'map row col : terms'")
            target = self._cont[bits[0]]
            row, col = bits[1], bits[2]
        else:
            if len(bits) != 2:
                self.fail(idx, "boundary entry needs 'row col : terms'")
            target = into
            row, col = bits
        for n in (row, col):
            if n not in self.names:
                self.fail(idx, f"unknown generator {n!r}")
        # Each distinct entry text is parsed once; its element is shared.
        terms = terms.strip()
        entry = self._entries.get(terms)
        if entry is None:
            entry = self._entries[terms] = _parse_terms(terms, self._ring_of(idx), idx)
        if col in target and row in target[col]:
            self.fail(idx, f"duplicate entry {row} {col}")
        target.setdefault(col, {})[row] = entry

    def _line(self, line, idx):
        sec = self._section
        if sec is None:
            self.fail(idx, "content before any section")
        if sec == "options":
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in ("field", "cutoff", "mode"):
                self.fail(idx, f"unknown option {key!r}")
            if key == "cutoff":
                cutoff = _parse_fraction(val, idx)
                if cutoff <= 0:
                    self.fail(idx, f"cutoff {val!r} must be positive")
                self.options[key] = cutoff
            elif key == "mode":
                try:
                    RingMode(val)
                except ValueError:
                    self.fail(idx, f"unknown mode {val!r}")
                self.options[key] = val
            else:
                try:
                    field_by_name(val)
                except (FieldError, ValueError):
                    self.fail(idx, f"bad field {val!r} (need f<p>, p a prime "
                                   f"below 2^31, or q)")
                self.options[key] = val
        elif sec == "period-system":
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key == "rank":
                try:
                    self.rank = int(val)
                except ValueError:
                    self.fail(idx, f"bad rank {val!r}")
                if self.rank < 0:
                    self.fail(idx, f"rank {val!r} must be nonnegative")
                for name, omega in sorted(self.omega.items()):
                    self._check_omega(name, omega, idx)
            elif key in ("omega0", "omega1"):
                if val == ".":
                    self.omega[key] = ()
                else:
                    self.omega[key] = tuple(_parse_fraction(w, idx)
                                            for w in val.split())
                self._check_omega(key, self.omega[key], idx)
            else:
                self.fail(idx, f"unknown period-system key {key!r}")
        elif sec == "generators":
            bits = line.split()
            if len(bits) != 4:
                self.fail(idx, "generator line needs 'name degree action0 slope'")
            name, degree, a0, slope = bits
            if name in self.names:
                self.fail(idx, f"duplicate generator {name!r}")
            try:
                degree = int(degree)
            except ValueError:
                self.fail(idx, f"bad degree {degree!r}")
            self.generators.append(CappedGenerator(
                name, degree, _parse_fraction(a0, idx), _parse_fraction(slope, idx)))
            self.names.add(name)
        elif isinstance(sec, tuple):  # ("boundary", its matrix)
            self._entry_line(line, idx, sec[1])
        elif sec == "continuation":
            if line.startswith("shift1") or line.startswith("shift2"):
                key, _, val = line.partition("=")
                self._cont[key.strip()] = _parse_fraction(val.strip(), idx)
            else:
                self._entry_line(line, idx, None, prefix_maps=True)
        else:  # pragma: no cover - sections are exhaustive
            self.fail(idx, "internal section state error")

    def _check_omega(self, name, omega, idx):
        if self.rank is not None and len(omega) != self.rank:
            self.fail(idx, f"{name} has {len(omega)} entries, rank is {self.rank}")

    def _build(self) -> FilteredComplex:
        if self.rank is None:
            self.fail(len(self.lines), "missing period-system rank")
        if not self.generators:
            self.fail(len(self.lines), "no generators declared")
        if not self.boundaries:
            self.fail(len(self.lines), "no boundary samples declared")
        ring = self._ring_of(len(self.lines))
        conts = []
        for cont in self.continuations:
            if cont["shift1"] is None or cont["shift2"] is None:
                self.fail(len(self.lines), "continuation missing shift bounds")
            conts.append(ContinuationData(
                cont["from"], cont["to"], cont["phi"], cont["psi"],
                cont["ks"], cont["kt"], cont["shift1"], cont["shift2"]))
        return FilteredComplex(ring, tuple(self.generators), self.boundaries,
                               continuations=tuple(conts))


def parse(text: str) -> FilteredComplex:
    """Parse a complex file; raises ParseError with the offending line."""
    return _Parser(text).run()
