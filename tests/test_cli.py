"""CLI contract: subcommands, config parsing, artifacts, exit codes."""

import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

import tfmult
from tfmult.cli import EXPERIMENTS, main

# the child process imports the same tfmult as this one, installed or not
PACKAGE_ROOT = str(Path(tfmult.__file__).resolve().parents[1])


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "tfmult.cli", *args],
                         capture_output=True, text=True, env=env)


def write_config(tmp_path, body):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\n" + body)
    return str(p)


class TestListValidate:
    def test_list_names_all_experiments(self):
        out = run_cli(["list"])
        assert out.returncode == 0
        assert set(out.stdout.split()) == set(EXPERIMENTS)

    def test_validate_good_config(self, tmp_path):
        cfg = write_config(tmp_path, "name = chirp_stft\nt_list = 0, 1\n")
        out = run_cli(["validate", cfg])
        assert out.returncode == 0
        assert "ok" in out.stdout

    def test_validate_unknown_experiment(self, tmp_path):
        cfg = write_config(tmp_path, "name = not_a_thing\n")
        out = run_cli(["validate", cfg])
        assert out.returncode == 2
        assert "unknown experiment" in out.stderr

    def test_validate_bad_grid_size(self, tmp_path):
        cfg = write_config(tmp_path, "name = chirp_stft\nn = 255\n")
        out = run_cli(["validate", cfg])
        assert out.returncode == 2
        assert "power of two" in out.stderr

    def test_validate_bad_number(self, tmp_path):
        cfg = write_config(tmp_path, "name = chirp_stft\nt_list = 1, banana\n")
        out = run_cli(["validate", cfg])
        assert out.returncode == 2

    @pytest.mark.parametrize("name,key,value", [
        ("chirp_stft", "n", "256.9"),
        ("amalgam_constants", "d", "1.5"),
        ("dyadic_series", "k", "5.5"),
        ("linear_phase", "cases", "2.5"),
        ("linear_phase", "seed", "inf"),
    ])
    def test_validate_rejects_non_integer(self, tmp_path, capsys, name, key, value):
        cfg = write_config(tmp_path, f"name = {name}\n{key} = {value}\n"
                                     f"out = {tmp_path / 'o'}\n")
        assert main(["validate", cfg]) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert main(["run", cfg]) == 2

    def test_missing_file(self):
        out = run_cli(["run", "/no/such/file.ini"])
        assert out.returncode == 2

    def test_missing_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[other]\nname = chirp_stft\n")
        out = run_cli(["validate", str(p)])
        assert out.returncode == 2


class TestRun:
    def test_run_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, f"name = linear_phase\ncases = 5\n"
                                     f"out = {tmp_path / 'out'}\n")
        out = run_cli(["run", cfg])
        assert out.returncode == 0
        csv = (tmp_path / "out" / "results.csv").read_text(encoding="utf-8")
        lines = csv.strip().split("\n")
        assert lines[0] == ("experiment,parameters,measured,predicted,"
                            "rel_deviation,refinement_estimate")
        assert len(lines) == 2
        assert lines[1].startswith("linear_phase,")

    def test_env_override_wins(self, tmp_path):
        cfg = write_config(tmp_path, f"name = linear_phase\ncases = 3\n"
                                     f"out = {tmp_path / 'ignored'}\n")
        out = run_cli(["run", cfg], env_extra={"TFMULT_OUT": str(tmp_path / "env_out")})
        assert out.returncode == 0
        assert (tmp_path / "env_out" / "results.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_run_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, "name = linear_phase\ncases = 5\n")
        run_cli(["run", cfg], env_extra={"TFMULT_OUT": str(tmp_path / "a")})
        run_cli(["run", cfg], env_extra={"TFMULT_OUT": str(tmp_path / "b")})
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b

    def test_svg_emitted_and_well_formed(self, tmp_path):
        cfg = write_config(tmp_path, "name = lp_contrast\nt = 1\n"
                                     "lambda_list = 1, 2\nn = 512\n")
        out = run_cli(["run", cfg], env_extra={"TFMULT_OUT": str(tmp_path / "o")})
        assert out.returncode == 0
        svg = tmp_path / "o" / "plot.svg"
        dom = xml.dom.minidom.parse(str(svg))
        assert dom.documentElement.tagName == "svg"

    def test_assertion_failure_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, "name = chirp_stft\ntolerance = 1e-30\n"
                                     "t_list = 1\n")
        out = run_cli(["run", cfg], env_extra={"TFMULT_OUT": str(tmp_path / "f")})
        assert out.returncode == 1
        assert "FAIL" in out.stderr
        # artifacts are still written for inspection
        assert (tmp_path / "f" / "results.csv").exists()

    def test_main_callable_in_process(self, tmp_path, capsys):
        assert main(["list"]) == 0
        captured = capsys.readouterr()
        assert "chirp_stft" in captured.out


class TestCsvFormat:
    def test_twelve_significant_digits(self, tmp_path):
        cfg = write_config(tmp_path, "name = lp_contrast\nt = 1\n"
                                     "lambda_list = 1\nn = 512\n")
        run_cli(["run", cfg], env_extra={"TFMULT_OUT": str(tmp_path / "o")})
        rows = (tmp_path / "o" / "results.csv").read_text().strip().split("\n")[1:]
        measured = rows[0].split(",")[2]
        digits = measured.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 11  # %.12g trims only trailing zeros

    def test_predicted_empty_when_no_formula(self, tmp_path):
        cfg = write_config(tmp_path, "name = lp_contrast\nt = 1\n"
                                     "lambda_list = 1\nn = 512\n")
        run_cli(["run", cfg], env_extra={"TFMULT_OUT": str(tmp_path / "o")})
        rows = (tmp_path / "o" / "results.csv").read_text().strip().split("\n")[1:]
        m11_row = [r for r in rows if "space=M11" in r][0]
        assert m11_row.split(",")[3] == ""
