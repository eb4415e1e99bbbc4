from fractions import Fraction

import pytest

from novikit.complexes import FilteredComplex
from novikit.fileformat import ParseError, emit, parse
from novikit.models import (
    ModelSpec,
    gen_elementary,
    gen_pathological,
    gen_random,
    line_family,
)
from novikit import validate

F = Fraction


def specs():
    yield ModelSpec(seed=0)
    yield ModelSpec(seed=3, n_pairs=3, n_closed=2, density=F(3, 4))
    yield ModelSpec(seed=5, lattice_rank=0, n_pairs=1, n_closed=1)
    yield ModelSpec(seed=7, lattice_rank=1, field_name="q")


class TestRoundTrip:
    def test_emit_parse_emit_byte_identical(self):
        for spec in specs():
            for cx in (gen_elementary(spec), gen_random(spec)):
                text = emit(cx)
                again = emit(parse(text))
                assert text == again

    def test_line_family_with_continuations(self):
        spec = ModelSpec(seed=2, lattice_rank=0, n_pairs=1, n_closed=1,
                         length_range=(F(2), F(3)))
        base = gen_elementary(spec)
        fam = line_family(base, [F(1, 4)] * len(base.generators))
        text = emit(fam)
        parsed = parse(text)
        assert emit(parsed) == text
        assert len(parsed.continuations) == len(fam.continuations)
        assert validate(parsed)

    def test_pathological_round_trip(self):
        text = emit(gen_pathological())
        assert emit(parse(text)) == text

    def test_parsed_complex_is_equivalent(self):
        spec = ModelSpec(seed=9, density=F(1, 2))
        cx = gen_random(spec)
        parsed = parse(emit(cx))
        assert parsed.generators == cx.generators
        assert parsed.boundaries == cx.boundaries
        assert parsed.system == cx.system
        assert parsed.cutoff == cx.cutoff


class TestParseErrors:
    def base_text(self):
        return emit(gen_elementary(ModelSpec(seed=0, n_pairs=1, n_closed=0)))

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse("nonsense\n")
        assert err.value.line_no == 1

    def test_truncated_file(self):
        text = self.base_text()
        cut = text[: text.index("[boundary")]
        with pytest.raises(ParseError):
            parse(cut)

    def test_unknown_section_rejected(self):
        text = self.base_text() + "\n[mystery]\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert "unknown section" in str(err.value)

    def test_unknown_option_rejected(self):
        text = self.base_text().replace("field = f2", "field = f2\ncolour = red")
        with pytest.raises(ParseError) as err:
            parse(text)
        assert "unknown option" in str(err.value)

    def test_unknown_generator_in_entry(self):
        text = self.base_text().replace("x0 y0 :", "ghost y0 :")
        with pytest.raises(ParseError) as err:
            parse(text)
        assert "unknown generator" in str(err.value)

    def test_bad_rational_reports_line(self):
        text = self.base_text().replace("cutoff = 10/1", "cutoff = ten")
        with pytest.raises(ParseError) as err:
            parse(text)
        assert "bad rational" in str(err.value)
        assert err.value.line_no > 1

    def test_wrong_exponent_rank(self):
        text = self.base_text()
        if " : 1 " in text and "," in text:
            bad = text.replace(",", ",9,", 1)
            with pytest.raises(ParseError):
                parse(bad)

    def test_options_have_defaults(self):
        text = self.base_text()
        lines = [l for l in text.splitlines()
                 if not l.startswith(("field =", "cutoff =", "mode ="))]
        cx = parse("\n".join(lines))
        assert cx.coefficient_field.name == "f2"
        assert cx.cutoff == F(10)

    def test_duplicate_generator(self):
        text = self.base_text()
        lines = text.splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("x0 "))
        lines.insert(idx, lines[idx])
        with pytest.raises(ParseError) as err:
            parse("\n".join(lines))
        assert "duplicate generator" in str(err.value)


class TestCanonicalBoundaries:
    """A complex decides once which samples share a boundary operator: zero
    entries are dropped on load and equal samples share one matrix."""

    def test_equal_samples_share_one_matrix(self, zero_entry_texts):
        for text in zero_entry_texts:
            cx = parse(text)
            base = cx.boundaries[F(0)]
            assert all(cx.boundaries[s] is base for s in cx.samples)
            assert not any(entry.is_zero() for matrix in cx.boundaries.values()
                           for column in matrix.values() for entry in column.values())

    def test_zero_entries_and_empty_columns_are_dropped(self):
        cx = gen_elementary(ModelSpec(seed=0, n_pairs=2, n_closed=0))
        matrix = cx.boundaries[F(0)]
        zero = cx.zero_coeff()
        # zero entries in a dangling row and a dangling column are dropped
        # with the rest, so validate reports neither
        padded = {c: {**col, "ghost": zero} for c, col in matrix.items()}
        padded["ghost"] = {"x0": zero}
        # equal operators listed in another column order share the first one
        reordered = dict(reversed(list(matrix.items())))
        again = FilteredComplex(cx.ring, cx.generators, {F(0): matrix, F(1, 2): padded,
                                                F(1): reordered})
        base = again.boundaries[F(0)]
        assert base == matrix and base is not matrix
        assert again.boundaries[F(1, 2)] is base and again.boundaries[F(1)] is base
        assert list(base) == list(matrix)
        assert validate(again).ok


class TestEntryMemo:
    """Each distinct entry text is parsed once and its element shared; every
    line is still checked on its own."""

    def text(self):
        spec = ModelSpec(seed=3, n_pairs=3, n_closed=2, density=F(3, 4))
        return emit(line_family(gen_random(spec), [F(1, 8)] * 8))

    def test_identical_sections_share_entry_objects(self):
        cx = parse(self.text())
        first, *rest = cx.samples
        base = cx.boundaries[first]
        assert base and len(rest) == 4
        for s in rest:
            # equal sections share one canonical matrix
            matrix = cx.boundaries[s]
            assert matrix is base
            for col, column in base.items():
                for row, entry in column.items():
                    assert matrix[col][row] is entry
        # continuation maps share the elements of equal entry texts too
        one = next(e for d in cx.continuations for col in d.phi
                   for row, e in d.phi[col].items() if row == col)
        assert all(e is one for d in cx.continuations for col in d.phi
                   for row, e in d.phi[col].items() if row == col)

    def test_differing_sections_parse_independently(self):
        text = emit(gen_elementary(ModelSpec(seed=0, n_pairs=1, n_closed=0)))
        text = text.replace("[boundary s=1/2]\nx0 y0 : 1 2,1",
                            "[boundary s=1/2]\nx0 y0 : 1 3,1 ; 1 2,2")
        cx = parse(text)
        half, zero = cx.boundaries[F(1, 2)]["y0"]["x0"], cx.boundaries[F(0)]["y0"]["x0"]
        assert sorted(half.terms) == [(2, 2), (3, 1)]
        assert list(zero.terms) == [(2, 1)]
        assert all(cx.boundaries[s]["y0"]["x0"] is zero
                   for s in cx.samples if s != F(1, 2))

    @pytest.mark.parametrize("edit, message", [
        (lambda line: [line, line], "duplicate entry"),
        (lambda line: [line, "ghost" + line[line.index(" "):]], "unknown generator"),
        (lambda line: [line, line.replace(":", ": 1 9,9 ;")], "duplicate entry"),
    ], ids=["duplicate", "unknown-generator", "duplicate-new-text"])
    def test_later_copy_errors_report_their_own_line(self, edit, message):
        lines = self.text().splitlines()
        last = max(i for i, line in enumerate(lines) if line.startswith("[boundary"))
        entry = last + 1
        lines[entry:entry + 1] = edit(lines[entry])
        with pytest.raises(ParseError) as err:
            parse("\n".join(lines) + "\n")
        assert err.value.line_no == entry + 2
        assert message in str(err.value)

    @pytest.mark.parametrize("section", [
        "[options]\ncutoff = 5/1", "[period-system]\nrank = 2"],
        ids=["options", "period-system"])
    def test_ring_section_after_entries_rejected(self, section):
        lines = self.text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("[continuation"))
        lines[at:at] = section.splitlines()
        with pytest.raises(ParseError) as err:
            parse("\n".join(lines) + "\n")
        assert err.value.line_no == at + 1
        assert "after boundary or continuation entries" in str(err.value)

    def test_repeated_ring_sections_before_entries_still_accepted(self):
        text = self.text().replace("[generators]",
                                   "[options]\ncutoff = 10/1\n\n[generators]")
        assert emit(parse(text)) == self.text()
