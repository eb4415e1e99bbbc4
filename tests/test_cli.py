import io
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from novikit.cli import main
from novikit.fileformat import emit, parse
from novikit.models import ModelSpec, gen_elementary, gen_pathological

F = Fraction


def run_cli(argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "novikit.cli", *argv],
        capture_output=True, text=True, env=env)
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


class TestInputContract:
    @pytest.mark.parametrize("prefix, replacement", [
        ("field =", "field = f4"),
        ("field =", "field = fx"),
        ("omega0 =", "omega0 = 1/1"),
        ("rank =", "rank = -1"),
        ("[boundary", "[boundary s=2/1]"),
        (None, "[continuation foo]"),
        ("cutoff =", "cutoff = -1/1"),
    ], ids=["f4", "fx", "omega0", "rank", "boundary-s", "continuation", "cutoff"])
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
