import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
import traceback
from fractions import Fraction

import pytest

from novikit.cli import main
from novikit.complexes import FilteredComplex
from novikit.fileformat import ParseError, emit, parse
from novikit.models import ModelSpec, gen_elementary, gen_pathological, gen_random

F = Fraction


def _env(env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    env.update(env_extra or {})
    return env


BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def run_cli(argv, env_extra=None, module="novikit.cli", python_flags=None):
    proc = subprocess.run(
        [sys.executable, *(python_flags or ()), "-m", module, *argv],
        capture_output=True, text=True, env=_env(env_extra), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.nvk"
    code, out, err = run_cli(["gen", "--seed", "4", "--model", "random"])
    assert code == 0, err
    path.write_text(out)
    return str(path)


@pytest.fixture(scope="module")
def elementary_file(tmp_path_factory):
    # fixed elementary pair: x action 1, y action 3 (lengths pinned by spec)
    cx = gen_elementary(ModelSpec(seed=1, n_pairs=1, n_closed=1,
                                  lattice_rank=0,
                                  action_range=(F(1), F(1)),
                                  length_range=(F(2), F(2))))
    path = tmp_path_factory.mktemp("cli") / "pair.nvk"
    path.write_text(emit(cx))
    return str(path)


@pytest.fixture(scope="module")
def line_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "line.nvk"
    code, out, err = run_cli(["gen", "--seed", "1", "--model", "line",
                              "--pairs", "2", "--rank", "0"])
    assert code == 0, err
    path.write_text(out)
    return str(path)


class TestValidate:
    def test_generated_model_passes(self, model_file):
        code, out, _ = run_cli(["validate", model_file])
        assert code == 0
        assert out.startswith("OK")

    def test_pathological_fails_with_witness(self, tmp_path):
        path = tmp_path / "bad.nvk"
        path.write_text(emit(gen_pathological()))
        code, out, _ = run_cli(["validate", str(path)])
        assert code == 1
        assert "divergence" in out

    def test_truncated_file_is_input_error(self, model_file, tmp_path):
        text = open(model_file).read()
        path = tmp_path / "trunc.nvk"
        path.write_text(text[: len(text) // 3])
        code, _, err = run_cli(["validate", str(path)])
        assert code == 2
        assert "error" in err

    def test_grid_flag(self, model_file):
        code, out, _ = run_cli(["validate", model_file, "--grid", "2"])
        assert code == 0 and "2 samples" in out

    @pytest.mark.parametrize("n_samples,grid,indices", [
        # 7 * 29/14 is 14.5 exactly, which rounds to 14; a float step
        # makes it 14.500000000000002 and picks 15
        (30, 15, [0, 2, 4, 6, 8, 10, 12, 14, 17, 19, 21, 23, 25, 27, 29]),
        (5, 2, [0, 4]), (5, 3, [0, 2, 4]), (5, 4, [0, 1, 3, 4]),
    ])
    def test_grid_picks_exact_indices(self, monkeypatch, capsys, tmp_path,
                                      n_samples, grid, indices):
        import novikit.cli

        samples = [F(i, n_samples - 1) for i in range(n_samples)]
        cx = gen_elementary(ModelSpec(seed=1, n_pairs=1, n_closed=0,
                                      lattice_rank=0, samples=samples))
        path = tmp_path / "grid.nvk"
        path.write_text(emit(cx))
        picked = []
        inner = novikit.cli.validate
        monkeypatch.setattr(novikit.cli, "validate",
                            lambda cx, grid: picked.extend(grid) or inner(cx, grid))
        assert main(["validate", str(path), "--grid", str(grid)]) == 0
        assert picked == [samples[i] for i in indices]
        assert capsys.readouterr().out == f"OK {grid} samples validated\n"


def _mutate(text, prefix, replacement):
    """The text with its first line starting ``prefix`` replaced (appended
    when ``prefix`` is None), and that line's number."""
    lines = text.splitlines()
    if prefix is None:
        lines.append(replacement)
        return "\n".join(lines) + "\n", len(lines)
    idx = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[idx] = replacement
    return "\n".join(lines) + "\n", idx + 1


# (prefix, replacement) edits that make a valid file fail to parse.
MALFORMED = [
    ("field =", "field = f4"),
    ("field =", "field = fx"),
    ("omega0 =", "omega0 = 1/1"),
    ("rank =", "rank = -1"),
    ("[boundary", "[boundary s=2/1]"),
    (None, "[continuation foo]"),
    ("cutoff =", "cutoff = -1/1"),
    ("field =", "field = f1000000000000000000000000000057"),
    # a ring section after the entries once rebuilt the ring under them
    (None, "[options]\ncutoff = 5/1\n[boundary s=1/3]\nx0 y0 : 1 2,1"),
    (None, "[period-system]\nrank = 2\nomega0 = 1/1 0/1\nomega1 = 0/1 2/1"),
]


class TestInputContract:
    @pytest.mark.parametrize("prefix, replacement", MALFORMED,
                             ids=["f4", "fx", "omega0", "rank", "boundary-s",
                                  "continuation", "cutoff", "huge-prime",
                                  "late-options", "late-period-system"])
    def test_malformed_value_names_its_line(self, model_file, tmp_path,
                                            prefix, replacement):
        text, line_no = _mutate(open(model_file).read(), prefix, replacement)
        path = tmp_path / "bad.nvk"
        path.write_text(text)
        code, out, err = run_cli(["validate", str(path)])
        assert code == 2
        assert out == ""
        assert f"line {line_no}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("replacement", [
        "[continuation from=0/1 to=7/1]",
        "[continuation from=-1/2 to=1/4]",
    ], ids=["to-above-1", "from-below-0"])
    def test_continuation_outside_unit_interval(self, line_file, tmp_path, replacement):
        text, line_no = _mutate(open(line_file).read(), "[continuation", replacement)
        path = tmp_path / "bad.nvk"
        path.write_text(text)
        code, out, err = run_cli(["validate", str(path)])
        assert code == 2
        assert out == ""
        assert f"line {line_no}:" in err and "outside [0, 1]" in err
        assert "Traceback" not in err

    def test_zero_denominator_coefficient_names_its_line(self, model_file, tmp_path):
        # Over q a coefficient is a rational; 1/0 once escaped as a traceback.
        text, _ = _mutate(open(model_file).read(), "field =", "field = q")
        text, line_no = _mutate(text, "x0 y0 :", "x0 y0 : 1/0 1,1")
        path = tmp_path / "bad.nvk"
        path.write_text(text)
        code, out, err = run_cli(["validate", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: line {line_no}: bad coefficient '1/0'\n"

    @pytest.mark.parametrize("argv", [
        ["beta", "{f}", "--t", ","],
        ["scan", "{f}", "--cycle", "z0", "--grid", ","],
        ["gen", "--samples", ","],
        ["gen", "--model", "line", "--slopes", ","],
    ], ids=["beta-t", "scan-grid", "gen-samples", "gen-slopes"])
    def test_empty_rational_list_is_usage_error(self, model_file, argv):
        code, out, err = run_cli([a.format(f=model_file) for a in argv])
        assert (code, out) == (2, "")
        assert f"error: argument {argv[-2]}: empty rational list ','" in err
        assert "Traceback" not in err

    def test_negative_grid_is_usage_error(self, model_file):
        # It used to check no sample and print "OK 0 samples validated".
        code, out, err = run_cli(["validate", model_file, "--grid", "-1"])
        assert (code, out) == (2, "")
        assert "error: argument --grid: negative count '-1'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--samples", "0,3/2"], "sample s=3/2 lies outside [0, 1]"),
        (["--samples=-1/2,0"], "sample s=-1/2 lies outside [0, 1]"),
        (["--cutoff", "0"], "cutoff 0 must be positive"),
        (["--cutoff", "-1"], "cutoff -1 must be positive"),
        (["--model", "pathological", "--samples", "0,2"], "sample s=2 lies outside [0, 1]"),
    ], ids=["sample-above-1", "sample-below-0", "cutoff-0", "cutoff-negative",
            "pathological-sample"])
    def test_gen_writes_no_file_parse_rejects(self, argv, message):
        code, out, err = run_cli(["gen", *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["--density", "3/2"], "density 3/2 lies outside [0, 1]"),
        (["--density=-1/2"], "density -1/2 lies outside [0, 1]"),
    ], ids=["density-above-1", "density-below-0"])
    def test_gen_rejects_density_outside_unit_interval(self, argv, message):
        # Both once exited 0, acting as density 1 and 0.
        code, out, err = run_cli(["gen", *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_gen_pathological_takes_samples(self):
        code, out, err = run_cli(["gen", "--model", "pathological", "--samples", "0,1/2"])
        assert (code, err) == (0, "")
        assert parse(out).samples == (F(0), F(1, 2))

    def test_largest_prime_field_validates(self, line_file, tmp_path):
        text, _ = _mutate(open(line_file).read(), "field =", "field = f2147483647")
        path = tmp_path / "big.nvk"
        path.write_text(text)
        code, out, err = run_cli(["validate", str(path)])
        assert (code, err) == (0, "")
        assert out.startswith("OK 5 samples")


# Tokens the fuzzer writes over a line or a word, or appends to a word.
FUZZ_TOKENS = ("", "/0", ",0", ".5", "9" * 24, "0/1", "-1/1", "0/0", "x", "x0",
               "z0", ":", "=", "[", "#", "1,1", "0,0,0", "1 1,1", "f4", "q", "mode",
               "[boundary s=1/2]", "[continuation from=0/1 to=1/1]",
               "phi x0 x0 : 1 0,0")


def _fuzz_edit(text, edit):
    """``text`` after one ``(kind, position, token)`` edit."""
    kind, pos, token = edit
    if kind == "malformed":
        prefix, replacement = MALFORMED[pos % len(MALFORMED)]
        if prefix and not any(line.startswith(prefix) for line in text.splitlines()):
            prefix = None  # an earlier edit took the line: append instead
        return _mutate(text, prefix, replacement)[0]
    if kind == "truncate":
        return text[: pos % (len(text) + 1)]
    lines = text.splitlines()
    if not lines:
        return token + "\n"
    i = pos % len(lines)
    if kind == "line":
        lines[i] = token
    elif kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:  # "word" replaces a word, "suffix" appends to it
        words = lines[i].split(" ")
        j = pos // len(lines) % len(words)
        words[j] = words[j] + token if kind == "suffix" else token
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


class TestCliFuzz:
    """Mutated valid files never crash the CLI: the exit code is a
    documented one, no traceback, and a parse error names its line."""

    @pytest.fixture(scope="class")
    def fuzz_inputs(self, model_file, line_file, tmp_path_factory):
        rational = emit(gen_elementary(ModelSpec(seed=2, lattice_rank=1, field_name="q")))
        texts = [open(model_file).read(), open(line_file).read(), rational]
        return texts, tmp_path_factory.mktemp("fuzz") / "fuzz.nvk"

    def test_mutated_files_exit_cleanly(self, fuzz_inputs):
        pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, example, given, settings, strategies as st

        texts, path = fuzz_inputs
        edits = st.lists(st.tuples(
            st.sampled_from(("malformed", "truncate", "line", "delete",
                             "duplicate", "word", "suffix")),
            st.integers(0, 10_000), st.sampled_from(FUZZ_TOKENS)),
            min_size=1, max_size=3)
        commands = st.sampled_from((["validate"], ["barcode", "--t", "1/2"]))

        @settings(derandomize=True, max_examples=150, deadline=None, database=None,
                  suppress_health_check=list(HealthCheck))
        @given(st.sampled_from(texts), edits, commands)
        def run(text, edit_list, command):
            for edit in edit_list:
                text = _fuzz_edit(text, edit)
            path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([command[0], str(path), *command[1:]])
                except Exception:
                    traceback.print_exc()
                    code = None
            err = err.getvalue()
            assert "Traceback" not in err, (text, err)
            assert code in (0, 1, 2, 3), (text, code, err)
            try:
                parse(text)
            except ParseError:
                assert code == 2 and re.fullmatch(r"error: line \d+: .+\n", err), \
                    (text, err)

        for k in range(len(MALFORMED)):  # the contract cases, as they are
            run = example(texts[0], [("malformed", k, "")], ["validate"])(run)
        run()


class TestInternalLimits:
    """An internal iteration cap is exit 3 with one error line, never a
    traceback; a divergence failure stays exit 1."""

    @pytest.mark.parametrize("module, cap, argv, message", [
        ("semicontinuity", "REFINEMENT_ROUNDS", ["scan", "--cycle", "z0"],
         "spectral curve failed to stabilize"),
    ], ids=["refinement"])
    def test_cap_is_exit_3(self, monkeypatch, capsys, model_file, module, cap,
                           argv, message):
        monkeypatch.setattr(importlib.import_module(f"novikit.{module}"), cap, 0)
        code = main([argv[0], model_file, *argv[1:]])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"

    def test_long_trace_is_a_divergence(self, capsys, tmp_path):
        # ``gen --model pathological --cutoff 6000``: the cancellation
        # trace runs to eight pairs past the cutoff, 6,009 in all, and no
        # step cap cuts it short.
        path = tmp_path / "long.nvk"
        path.write_text(emit(gen_pathological(cutoff=F(6000))))
        code = main(["validate", str(path)])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        assert out.count("\n") == 1
        assert out.startswith("FAIL divergence at s=0/1: axis 1 stalls at 0/1; "
                              "trace (0/1,0/1) (0/1,1/1) ")
        assert out.endswith(" (0/1,6007/1) (0/1,6008/1)\n")

    def test_saturation_stall_is_a_divergence(self, capsys, tmp_path):
        # d(w) = x(1 + T^(1,0)) beside the one-sided d(y) = x(1 - T^B):
        # column y, reduced against the pivot w, leaves terms T^(k,0) and
        # T^(k,1) whose peak marches in the first coordinate, and it stalls
        # on axis 0 while the image saturates: T^(k,0) opens each level k,
        # and the first eight levels past the cutoff open at g1 = 0.
        text = emit(gen_pathological())
        text = text.replace("y 1 2/1 0/1\n", "y 1 2/1 0/1\nw 1 2/1 0/1\n")
        text = text.replace("x y : 1 0,0 ; 1 0,1\n",
                            "x y : 1 0,0 ; 1 0,1\nx w : 1 0,0 ; 1 1,0\n")
        assert text.count("x w :") == 5
        path = tmp_path / "two.nvk"
        path.write_text(text)
        code = main(["validate", str(path)])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        trace = " ".join([*(f"({j}/1,{b}/1)" for j in range(18) for b in (0, 1)), "(18/1,0/1)"])
        assert out == f"FAIL divergence at s=0/1: axis 0 stalls at 0/1; trace {trace}\n"
        for argv in (["rho", str(path), "--cycle", "x", "--t", "1/2"],
                     ["scan", str(path), "--cycle", "x"]):
            code = main(argv)
            out, err = capsys.readouterr()
            assert (code, out) == (1, "")
            assert err == ("error: valuation trace diverges (diverges-second); "
                           "no best approximation\n")

    def test_divergence_stays_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.nvk"
        path.write_text(emit(gen_pathological()))
        code = main(["rho", str(path), "--cycle", "x", "--t", "1/1"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


class TestPerCommandWork:
    @staticmethod
    def _imports(argv):
        """The modules a ``python -X importtime -m novikit`` run imports."""
        code, _, err = run_cli(argv, module="novikit", python_flags=["-X", "importtime"])
        assert code == 0, err
        return {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                if line.startswith("import time:")}

    def test_validate_and_barcode_import_only_what_they_run(self, model_file):
        # ``validate`` runs the rank-2 cancellation only, ``barcode`` the
        # slice reduction only: each compiles one of the two modules.
        for argv, runs, skips in (
                (["validate", model_file], "novikit.cancellation", "novikit.reduction"),
                (["barcode", model_file, "--t", "1/2"], "novikit.reduction",
                 "novikit.cancellation")):
            imported = self._imports(argv)
            assert runs in imported
            assert not imported & {skips, "novikit.invariants", "novikit.models",
                                   "concurrent.futures"}

    @pytest.mark.parametrize("argv, layers", [
        (["validate", "{f}"], {"cancellation"}),
        (["barcode", "{f}", "--t", "1/2"], {"reduction"}),
        (["beta", "{f}", "--t", "1/2"], {"reduction", "invariants"}),
        (["rho", "{f}", "--cycle", "z0", "--t", "1/2"], {"cancellation", "invariants"}),
        (["scan", "{f}", "--cycle", "z0"],
         {"cancellation", "invariants", "semicontinuity", "envelope"}),
        (["gen", "--seed", "1"], set()),
    ], ids=["validate", "barcode", "beta", "rho", "scan", "gen"])
    def test_no_command_imports_dataclasses_or_unrun_layers(self, line_file, argv, layers):
        imported = self._imports([a.format(f=line_file) for a in argv])
        assert not imported & {"dataclasses", "inspect"}
        assert {m for m in ("reduction", "cancellation", "invariants", "matching",
                            "semicontinuity", "envelope")
                if f"novikit.{m}" in imported} == layers
        if argv[0] == "gen":
            assert "novikit.models" in imported

    def test_stability_job_imports_neither_cancellation_nor_models(self, line_file):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", os.path.join(BENCH, "stability_job.py"),
             line_file], capture_output=True, text=True, env=_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert {"novikit.reduction", "novikit.matching"} <= imported
        assert not imported & {"novikit.cancellation", "novikit.models", "novikit.envelope",
                               "novikit.semicontinuity"}

    def test_import_novikit_loads_no_submodule(self):
        code = ("import sys, novikit; "
                "print(sorted(m for m in sys.modules if m.startswith('novikit.')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=_env(), timeout=120).stdout
        assert out.strip() == "[]"

    def test_every_exported_name_resolves(self):
        import novikit

        assert len(novikit.__all__) == len(set(novikit.__all__))
        for name in novikit.__all__:
            assert getattr(novikit, name) is not None
        assert set(novikit.__all__) <= set(dir(novikit))
        with pytest.raises(AttributeError):
            novikit.no_such_name

    def test_no_element_products_on_the_hot_paths(self, monkeypatch, capsys, tmp_path):
        # apply_matrix is the one matrix product and sums raw terms: gen,
        # validate, rho and scan multiply no two NovikovElements.
        from novikit.series import NovikovElement

        calls = []
        mul = NovikovElement.__mul__
        monkeypatch.setattr(NovikovElement, "__mul__",
                            lambda x, y: calls.append(1) or mul(x, y))
        files = {}
        for name, argv in (("random", ["--seed", "4", "--model", "random", "--pairs", "3"]),
                           ("line", ["--seed", "1", "--model", "line", "--pairs", "2",
                                     "--rank", "0", "--slopes", "1/8,-1/8"])):
            assert main(["gen", *argv]) == 0
            files[name] = tmp_path / f"{name}.nvk"
            files[name].write_text(capsys.readouterr().out)
        for path in map(str, files.values()):
            for argv in (["validate", path], ["rho", path, "--cycle", "z0", "--t", "1/2"],
                         ["scan", path, "--cycle", "z0"]):
                assert main(argv) == 0, capsys.readouterr()
        assert calls == []

    @staticmethod
    def _count_checks(monkeypatch):
        import novikit.cancellation

        calls = []
        inner = novikit.cancellation.floer_divergence_check
        monkeypatch.setattr(novikit.cancellation, "floer_divergence_check",
                            lambda *a, **k: calls.append(1) or inner(*a, **k))
        return calls

    def test_one_divergence_check_per_distinct_matrix(self, monkeypatch, capsys,
                                                      model_file, line_file,
                                                      tmp_path):
        calls = self._count_checks(monkeypatch)
        for path in (model_file, line_file):
            calls.clear()
            assert main(["validate", path]) == 0
            assert len(calls) == 1
        # two distinct matrices over five samples: the entry at s = 1/2 is
        # doubled, which keeps every check passing over q
        cx = gen_elementary(ModelSpec(seed=2, n_pairs=2, lattice_rank=0,
                                      field_name="q"))
        half = F(1, 2)
        boundaries = dict(cx.boundaries)
        boundaries[half] = {c: {r: e + e for r, e in col.items()}
                            for c, col in cx.boundaries[half].items()}
        path = tmp_path / "two.nvk"
        path.write_text(emit(FilteredComplex(
            cx.ring, cx.generators, boundaries)))
        calls.clear()
        assert main(["validate", str(path)]) == 0
        assert len(calls) == 2
        assert capsys.readouterr().out == "OK 5 samples validated\n" * 3

    def test_zero_entry_section_shares_the_plain_matrix(self, monkeypatch, capsys,
                                                        zero_entry_texts, tmp_path):
        # the explicit zero entry at s = 1/2 is dropped on load, so the five
        # samples share one matrix and the divergence check runs once
        calls = self._count_checks(monkeypatch)
        path = tmp_path / "zero.nvk"
        path.write_text(zero_entry_texts[1])
        assert main(["validate", str(path)]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == "OK 5 samples validated\n"

    def test_zero_entry_section_scans_as_plain(self, capsys, zero_entry_texts,
                                               tmp_path):
        scans = []
        for name, text in zip(("plain.nvk", "zero.nvk"), zero_entry_texts):
            path = tmp_path / name
            path.write_text(text)
            scans.append((main(["scan", str(path), "--cycle", "z0"]),
                          capsys.readouterr().out))
        assert scans[0] == scans[1] and scans[0][1]

    def test_seed_defect_a_still_fails(self, tmp_path):
        # A legal complex the check still wrongly fails: at one g0 level the
        # peak climbs eight pairs past the cutoff in g1 before it would
        # leave the level (Direction 2).
        code, text, err = run_cli(["gen", "--model", "random", "--seed", "5",
                                   "--pairs", "12", "--closed", "2",
                                   "--density", "1/2"])
        assert code == 0, err
        path = tmp_path / "defect.nvk"
        path.write_text(text)
        code, out, _ = run_cli(["validate", str(path)])
        assert code == 1
        assert out.startswith("FAIL divergence at s=0/1: axis 1 stalls at 10/1; ")

    def test_seed_defect_a_fixed_where_the_window_crossed_levels(self, tmp_path):
        # Once a false FAIL: the old window compared g1 across the g0 levels
        # at which it restarts low.  The stall window now counts only pairs
        # past the cutoff, per level, and the legal model validates.
        code, text, err = run_cli(["gen", "--model", "random", "--seed", "3",
                                   "--pairs", "12", "--closed", "2",
                                   "--density", "1/2"])
        assert code == 0, err
        path = tmp_path / "fixed.nvk"
        path.write_text(text)
        assert run_cli(["validate", str(path)])[:2] == (0, "OK 5 samples validated\n")

    def test_seed_defect_a_on_the_validate_workload(self, monkeypatch):
        # The divergence check at s = 0 passes all 168 random models of the
        # validate workload, seeds 1-14.  With the stall window reaching
        # back across levels it falsely failed five: model seeds 2011,
        # 6006, 6011, 8011 and 12011.  Every validate job of a random model
        # checks s = 0.
        from novikit.cancellation import floer_divergence_check

        monkeypatch.syspath_prepend(BENCH)
        from workloads import corpus_files

        failed, models = {}, 0
        for seed in range(1, 15):
            for f in corpus_files("validate", seed):
                if f.model != "random":
                    continue
                models += 1
                cx = gen_random(f.model_spec())
                check = floer_divergence_check(cx.boundary_matrix(0), cx.cutoff)
                if not check:
                    failed[f.seed] = (check.witness.axis, check.witness.stabilized)
        assert models == 168
        assert failed == {}

    @staticmethod
    def _hand_file(tmp_path, name, omegas, generators, section):
        """A q-coefficient rank-2 complex with samples 0/1 and 1/1 that
        share one boundary section."""
        path = tmp_path / name
        path.write_text(
            "# novikit complex v1\n\n[options]\nfield = q\ncutoff = 10/1\n"
            f"mode = interval\n\n[period-system]\nrank = 2\n{omegas}\n\n"
            f"[generators]\n{generators}\n\n"
            f"[boundary s=0/1]\n{section}\n[boundary s=1/1]\n{section}")
        return str(path)

    def test_rho_of_a_two_column_boundary_is_minus_inf(self, capsys, tmp_path):
        # x = d(y1) - d(y2) bounds, as u = d(y2) does.  The columns of y1
        # and y2 leave pivots at u and x, and x reduces to zero against
        # them (ROADMAP, Direction 14, fixed).
        path = self._hand_file(
            tmp_path, "two-columns.nvk", "omega0 = 1/1 0/1\nomega1 = 0/1 1/1",
            "x 0 0/1 0/1\nu 0 0/1 0/1\ny1 1 1/1 0/1\ny2 1 1/1 0/1",
            "x y1 : 1 0,0\nu y1 : 1 0,0\nu y2 : 1 0,0\n")
        for cycle, t in (("x", "0/1"), ("x", "1/1"), ("u", "0/1")):
            code = main(["rho", path, "--cycle", cycle, "--t", t])
            assert (code, capsys.readouterr()) == (0, ("-inf\n", ""))
        code = main(["barcode", path, "--t", "0/1"])
        assert (code, capsys.readouterr()) == (
            0, ("degree,birth,death\n0,0/1,1/1\n0,0/1,1/1\n", ""))

    KERNEL = ("omega0 = 1/1 1/1\nomega1 = 1/1 1/1", "x 0 0/1 0/1\ny1 1 1/1 0/1",
              "x y1 : 1 0,0 ; 1 1,-1\n")

    def test_period_kernel_terminates(self, tmp_path):
        # (1,-1) spans the kernel of the period map, so d(y1) = x(1 +
        # T^(1,-1)) has two terms at one point.  Dividing a point exactly
        # keeps the peak from marching along the kernel, so each call
        # returns.  x is no boundary: 1 + T^(1,-1) has period pair (0, 0)
        # and no inverse, so rho of x is 0/1.
        omegas, gens, section = self.KERNEL
        path = self._hand_file(tmp_path, "kernel.nvk", omegas, gens, section)
        assert run_cli(["validate", path]) == (0, "OK 2 samples validated\n", "")
        for t in ("0/1", "1/1"):
            assert run_cli(["rho", path, "--cycle", "x", "--t", t]) == (0, "0/1\n", "")

    def test_period_kernel_two_columns_still_wrong(self, capsys, tmp_path):
        # Over q, x = d(y2)/2 - (T^(1,-1) - 1) d(y1)/2 bounds, so rho of x
        # is -inf.  y2's point polynomial 1 + T^(2,-2) neither divides nor
        # is divided by y1's 1 + T^(1,-1), so y2's column is dropped and
        # rho prints 0/1.  A known wrong answer (ROADMAP, Known wrong
        # answers), pinned as it is: deciding it is ideal membership over
        # Laurent polynomials.
        omegas, gens, section = self.KERNEL
        path = self._hand_file(tmp_path, "kernel-two.nvk", omegas,
                               gens + "\ny2 1 1/1 0/1", section + "x y2 : 1 0,0 ; 1 2,-2\n")
        for t in ("0/1", "1/1"):
            code = main(["rho", path, "--cycle", "x", "--t", t])
            assert (code, capsys.readouterr()) == (0, ("0/1\n", ""))

    def test_rho_at_t_1_marches_in_the_first_coordinate(self, capsys, tmp_path):
        # d(y) = x(1 + T^(1,0)): at t = 1 the key ignores g0, and x's
        # remainder ±T^(k,0) marches in g0 at g1 = 0 until it stalls on
        # axis 0, as it does at t = 0.  validate fails this file.
        path = self._hand_file(tmp_path, "t-one.nvk", "omega0 = 1/1 0/1\nomega1 = 0/1 1/1",
                               "x 0 0/1 0/1\ny 1 1/1 0/1", "x y : 1 0,0 ; 1 1,0\n")
        for t in ("0/1", "1/1"):
            code = main(["rho", path, "--cycle", "x", "--t", t])
            assert (code, capsys.readouterr()) == (
                1, ("", "error: valuation trace diverges (diverges-second); "
                        "no best approximation\n"))
        code = main(["validate", path])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "") and out.startswith("FAIL divergence at s=0/1: ")


TRACER_BINDING = """
import io, sys
from contextlib import redirect_stdout

import novikit.cli

out = io.StringIO()
with redirect_stdout(out):
    assert novikit.cli.main(sys.argv[2:]) == 0
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(out.getvalue())

import stability_job
import tracer

assert "novikit.cancellation" not in sys.modules
spans = tracer.Tracer()
spans.install([stability_job])
mark = spans.mark()
with redirect_stdout(io.StringIO()):
    assert stability_job.main([sys.argv[1]]) == 0
spans.uninstall()
assert spans.summary(mark)["reduction.persistence_barcode.calls"] == 5

import novikit.cancellation
import novikit.reduction

for name in ("fixed_point", "floer_divergence_check", "best_approximation"):
    assert getattr(novikit.reduction, name) is getattr(novikit.cancellation, name), name
print("bound")
"""


STABILITY_TRACE = """
import io, sys
from contextlib import redirect_stdout

import novikit.cli

out = io.StringIO()
with redirect_stdout(out):
    assert novikit.cli.main(sys.argv[2:]) == 0
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(out.getvalue())

import novikit.matching
import stability_job
import tracer

assert "novikit.envelope" not in sys.modules
spans = tracer.Tracer()
for _ in range(2):
    spans.install([stability_job])
    mark = spans.mark()
    with redirect_stdout(io.StringIO()):
        for _ in range(2):
            assert stability_job.main([sys.argv[1]]) == 0
    spans.uninstall()
    assert spans.summary(mark)["invariants.bottleneck.calls"] == 2 * 5
    assert stability_job.bottleneck is novikit.matching.bottleneck
print("bound")
"""

REPLAY_TRACE = """
import io, sys
from contextlib import redirect_stdout

import novikit.cli
import stability_job
import tracer

path = sys.argv[1]


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = novikit.cli.main(argv)
    return code, out.getvalue()


def replay():
    code, text = run(["gen", "--seed", "4", "--model", "random"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return [(code, text)] + [run(argv) for argv in (
        ["rho", path, "--cycle", "z0", "--t", "1/2"], ["scan", path, "--cycle", "z0"],
        ["beta", path, "--t", "0/1,1/2"])]


plain = replay()
spans = tracer.Tracer()
spans.install([stability_job])
mark = spans.mark()
try:
    replayed = replay()
finally:
    spans.uninstall()
assert replayed == plain, (replayed, plain)
summary = spans.summary(mark)
calls = {name: summary.get(name + ".calls", 0)
         for name in ("invariants.rho", "invariants.scan_semicontinuity",
                      "invariants.boundary_depth", "envelope.pointwise_min")}
assert calls["invariants.rho"] == 1 and calls["invariants.scan_semicontinuity"] == 1, calls
assert calls["invariants.boundary_depth"] == 2 and calls["envelope.pointwise_min"] > 0, calls
print("replayed")
"""


class TestBenchBinding:
    def test_tracer_binds_on_a_stability_pass(self, tmp_path):
        # What the harness has loaded when it first installs its tracer on
        # the stability workload: an in-process ``gen``, then the stability
        # job.  The tracer reads every traced function from its old module
        # by name.
        env = _env()
        env["PYTHONPATH"] = os.pathsep.join([BENCH, env["PYTHONPATH"]])
        proc = subprocess.run(
            [sys.executable, "-c", TRACER_BINDING, str(tmp_path / "line.nvk"),
             "gen", "--model", "line", "--seed", "1", "--pairs", "3", "--closed", "1",
             "--rank", "0", "--slopes=1/2,-1/3"],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "bound\n"), proc.stderr

    def test_tracer_installs_before_envelope_loads(self, tmp_path):
        # The tracer reads ``envelope.pointwise_min`` after
        # ``invariants.scan_semicontinuity``, whose alias loads ``envelope``:
        # a stability pass never loads it before the first install.
        env = _env()
        env["PYTHONPATH"] = os.pathsep.join([BENCH, env["PYTHONPATH"]])
        proc = subprocess.run(
            [sys.executable, "-c", STABILITY_TRACE, str(tmp_path / "line.nvk"),
             "gen", "--model", "line", "--seed", "1", "--pairs", "3", "--closed", "1",
             "--rank", "0", "--slopes=1/2,-1/3"],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "bound\n"), proc.stderr

    def test_traced_replay_of_invariant_jobs(self, tmp_path):
        # The harness's in-process replay: one untraced pass (a ``gen``,
        # then the jobs) loads what they run, then a traced pass must span
        # each invariant and print the same output.
        env = _env()
        env["PYTHONPATH"] = os.pathsep.join([BENCH, env["PYTHONPATH"]])
        proc = subprocess.run([sys.executable, "-c", REPLAY_TRACE, str(tmp_path / "model.nvk")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "replayed\n"), proc.stderr


class TestCommands:
    def test_barcode_csv(self, elementary_file):
        code, out, _ = run_cli(["barcode", elementary_file, "--t", "0/1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "degree,birth,death"
        assert "1/1,3/1" in out

    def test_beta_value(self, elementary_file):
        code, out, _ = run_cli(["beta", elementary_file, "--t", "1/2"])
        assert code == 0
        assert out.strip() == "2/1"

    def test_rho_of_closed_generator(self, elementary_file):
        cx = parse(open(elementary_file).read())
        closed = next(g for g in cx.generators if g.name.startswith("z"))
        code, out, _ = run_cli(["rho", elementary_file,
                                "--cycle", closed.name, "--t", "1/2"])
        assert code == 0
        assert out.strip() == f"{closed.action_at(F(1,2)).numerator}/" \
                              f"{closed.action_at(F(1,2)).denominator}"

    def test_scan_constant_family(self, elementary_file):
        cx = parse(open(elementary_file).read())
        closed = next(g for g in cx.generators if g.name.startswith("z"))
        code, out, _ = run_cli(["scan", elementary_file,
                                "--cycle", closed.name])
        assert code == 0
        assert '"usc_at_zero": true' in out

    def test_unknown_cycle_name(self, elementary_file):
        code, _, err = run_cli(["rho", elementary_file,
                                "--cycle", "ghost", "--t", "0/1"])
        assert code == 2

    def test_unsampled_t_is_input_error(self, elementary_file):
        code, _, err = run_cli(["rho", elementary_file,
                                "--cycle", "z0", "--t", "1/3"])
        assert code == 2

    def test_broken_complex_fails_on_load(self, elementary_file, tmp_path):
        # swap two action offsets so filtration decrease breaks
        text = open(elementary_file).read()
        broken = text.replace("x0 0 1/1", "x0 0 9/1")
        path = tmp_path / "broken.nvk"
        path.write_text(broken)
        code, _, err = run_cli(["beta", str(path), "--t", "0/1"])
        assert code == 1
        assert "FAIL" in err


class TestDeterminism:
    def test_gen_byte_stable(self):
        a = run_cli(["gen", "--seed", "11", "--model", "random"])
        b = run_cli(["gen", "--seed", "11", "--model", "random"])
        assert a == b
        c = run_cli(["gen", "--seed", "12", "--model", "random"])
        assert c[1] != a[1]

    def test_roundtrip_byte_identical(self, model_file):
        text = open(model_file).read()
        assert emit(parse(text)) == text

    def test_csv_independent_of_thread_count(self, model_file):
        ts = "0/1,1/4,1/2,3/4,1/1"
        one = run_cli(["beta", model_file, "--t", ts],
                      env_extra={"NOVIKIT_THREADS": "1"})
        four = run_cli(["beta", model_file, "--t", ts],
                       env_extra={"NOVIKIT_THREADS": "4"})
        assert one == four
        assert one[0] == 0


def test_main_callable_directly(capsys, elementary_file):
    code = main(["beta", elementary_file, "--t", "0/1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2/1"
