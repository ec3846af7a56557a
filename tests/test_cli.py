"""CLI contract: subcommands, config parsing, artifacts, exit codes."""

import ast
import contextlib
import inspect
import io
import os
import subprocess
import sys
import tempfile
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tfmult
from tfmult import cli, verify
from tfmult.cli import EXPERIMENTS, PARSERS, load_config, main, parse_params
from tfmult.core import Grid

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

    @pytest.mark.parametrize("name,key,value", [
        ("lp_contrast", "lambda_list", ","),
        ("amalgam_constants", "t_list", ","),
        ("amalgam_constants", "t_list", "nan"),
        ("m_inf_1_divergence", "l_list", "16, inf"),
    ])
    def test_rejects_empty_or_non_finite_list(self, tmp_path, capsys, name, key, value):
        cfg = write_config(tmp_path, f"name = {name}\n{key} = {value}\n"
                                     f"out = {tmp_path / 'o'}\n")
        assert main(["validate", cfg]) == 2
        assert "non-empty list of finite numbers" in capsys.readouterr().err
        assert main(["run", cfg]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,key,value", [
        ("m_inf_1_divergence", "t", "nan"),
        ("lp_contrast", "t", "nan"),
        ("amalgam_constants", "tolerance", "nan"),
        ("sin_singular_fl1", "alpha", "inf"),
    ])
    def test_rejects_non_finite_scalar(self, tmp_path, capsys, name, key, value):
        cfg = write_config(tmp_path, f"name = {name}\n{key} = {value}\n"
                                     f"out = {tmp_path / 'o'}\n")
        assert main(["validate", cfg]) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert main(["run", cfg]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,key,value,message", [
        ("schrodinger_conservation", "p", "0.5", "exponent must lie in [1, inf]"),
        ("schrodinger_conservation", "p", "nan", "exponent must lie in [1, inf]"),
        ("wave_conservation", "q", "0.5", "exponent must lie in [1, inf]"),
        ("dyadic_series", "k", "5", "need K >= 10 and J >= 5"),
        ("dyadic_series", "j", "4", "need K >= 10 and J >= 5"),
    ])
    def test_validate_applies_run_range_checks(self, tmp_path, capsys, name, key,
                                               value, message):
        cfg = write_config(tmp_path, f"name = {name}\n{key} = {value}\n"
                                     f"out = {tmp_path / 'o'}\n")
        assert main(["validate", cfg]) == 2
        assert message in capsys.readouterr().err
        assert main(["run", cfg]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name,key,value,message", [
        ("m_inf_1_divergence", "l_list", "16, 0", "box sizes must be positive"),
        ("lp_contrast", "lambda_list", "-1", "Gaussian dilations must be positive"),
        ("linear_phase", "cases", "0", "need at least 1 random case"),
        ("dyadic_series", "alpha_list", "-1", "alpha must be positive"),
        ("operator_probe", "alpha_list", "3", "alpha must lie in [0, 2]"),
        ("wave_conservation", "n", "8", "cannot coarsen below N = 8"),
        ("linear_phase", "seed", "-1", "seed must be non-negative"),
        ("amalgam_constants", "d", "3", "dimension must be 1 or 2"),
        # (t^2 + 4 pi^2)^{1/4} overflowed, every c was 0 and the spread divided by 0
        ("schrodinger_conservation", "t_list", "1e300", "overflows at t = 1e+300"),
        # every nonzero phase t|xi| or t|xi|^2 was rounding noise, and run exited 0
        ("wave_conservation", "t_list", "1e300", "has an ulp of 4.76e+285 rad, above 1e-06"),
        ("schrodinger_conservation", "t_list", "1e100", "has an ulp of 1.99e+87 rad"),
        # run had not finished after a minute
        ("linear_phase", "cases", "100000000000", "at most 100000 random cases"),
        # run raised OverflowError in the Fresnel oracle
        ("lp_contrast", "t", "1e300", "t = 1e+300: the largest propagator phase"),
        # run raised OverflowError in the Fresnel oracle: (t lambda)^2 overflows
        ("lp_contrast", "lambda_list", "1, 1e300",
         "lambda = 1e+300: the closed-form L^1 ratio"),
        # run raised ZeroDivisionError in the series tail
        ("dyadic_series", "alpha_list", "1, 1e-300", "alpha = 1e-300: 2^-alpha rounds to 1"),
        # run tried to allocate 4 TiB for the second box
        ("m_inf_1_divergence", "l_list", "16, 1e6",
         "box L = 1e+06 needs an N = 549755813888 grid"),
        # run raised OverflowError dividing by 171!
        ("dyadic_series", "k", "171", "k = 171: the series depth K may be at most 170"),
        # run had not finished after a minute
        ("dyadic_series", "j", "100000000", "j = 100000000: the geometric depth J may be at "
                                            "most 1000"),
        # |xi|^alpha overflowed: run warned, then blamed the norm's overflow
        ("operator_probe", "l", "1e-300", "the grid L = 1e-300, N = 512 has a frequency "
                                          "lattice of spacing 1/L = 1e+300 whose |xi| "
                                          "overflows float64"),
        # run exited 2 from the probe family's sampling, which validate never did
        ("operator_probe", "l", "1e300", "error: the probe family on the grid L = 1e+300, "
                                         "N = 512: non-finite sample at x = "),
        # validate said ok, and run reported a failed theorem check on a grid
        # that cannot resolve the chirp inside the quarter box (off by 0.45 at
        # t = 17 and 2.3 at t = 50)
        ("amalgam_constants", "t_list", "17", "t = 17: the chirp's local frequency |t| L/4 "
                                              "reaches the Nyquist frequency"),
        ("amalgam_constants", "t_list", "0.5, 20", "t = 20: the chirp's local frequency"),
        ("amalgam_constants", "t_list", "-50", "t = -50: the chirp's local frequency"),
        ("amalgam_constants", "t_list", "1e300", "t = 1e+300: the chirp's local frequency"),
        # validate said ok, and run raised OverflowError from |t|^(-d) in the
        # M^(1,inf) prediction, which escaped main
        ("amalgam_constants", "t_list", "2.225073858507203e-309",
         "t = 2.22507e-309: the closed-form M^(1,inf) constant"),
        ("amalgam_constants", "t_list", "0.5, 1e-309", "t = 1e-309: the closed-form M^(1,inf)"),
        # validate said ok, and run measured on an N = 131072 grid, above the cap
        ("operator_probe", "n", "65536", "n = 65536: a 1D grid may have at most N = 65536 "
                                         "points, and this experiment also measures on N = 2n"),
        # validate tried to sample the grid: an 8 TiB MemoryError traceback
        ("chirp_stft", "n", "1099511627776",
         "n = 1099511627776: a 1D grid may have at most N = 65536 points"),
        # keys the experiment does not take used to pass both commands unread
        ("sin_singular_fl1", "n", "64", "sin_singular_fl1 takes no key 'n'"),
        ("lp_contrast", "lambda_lst", "1, 2", "lp_contrast takes no key 'lambda_lst'"),
    ])
    def test_validate_rejects_what_run_cannot_run(self, tmp_path, capsys, name, key,
                                                  value, message):
        # each of these used to pass validate, then crash, fail late or pass
        # vacuously in run
        cfg = write_config(tmp_path, f"name = {name}\n{key} = {value}\n"
                                     f"out = {tmp_path / 'o'}\n")
        assert main(["validate", cfg]) == 2
        assert message in capsys.readouterr().err
        assert main(["run", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("t_list,N", [("1e3", 131072), ("0.5, 16", 2048), ("-16", 2048),
                                          ("1e-300", "inf")])
    def test_2d_m1inf_grid_above_the_cap(self, tmp_path, capsys, t_list, N):
        # validate said ok, and run tried to allocate the grid (128 GiB at t = 1e3)
        cfg = write_config(tmp_path, f"name = amalgam_constants\nd = 2\nt_list = {t_list}\n"
                                     f"out = {tmp_path / 'o'}\n")
        for cmd in ("validate", "run"):
            assert main([cmd, cfg]) == 2
            assert f"needs an N = {N} grid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,key,value,parsed", [
        ("chirp_stft", "n", "2048.0", 2048),
        ("linear_phase", "cases", "1e3", 1000),
    ])
    def test_integer_valued_float_spellings_pass(self, tmp_path, name, key, value, parsed):
        cfg = write_config(tmp_path, f"name = {name}\n{key} = {value}\n")
        assert main(["validate", cfg]) == 0
        value = parse_params(load_config(cfg))[key]
        assert type(value) is int and value == parsed

    def test_validate_accepts_infinite_exponent(self, tmp_path):
        cfg = write_config(tmp_path, "name = schrodinger_conservation\np = 1\nq = inf\n")
        assert main(["validate", cfg]) == 0

    def test_divergence_of_a_negative_t(self, tmp_path):
        # t = -4 took the t = 0.25 grids: growth to L = 64 read 1.00 and run exited 1
        out = tmp_path / "o"
        cfg = write_config(tmp_path, f"name = m_inf_1_divergence\nt = -4\nout = {out}\n")
        assert main(["run", cfg]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        growth = [float(r.split(",")[2]) for r in rows if "growth_to_L" in r]
        assert len(growth) == 2 and all(g >= 1.5 for g in growth)

    @pytest.mark.parametrize("name,what", [
        ("schrodinger_conservation", "(1e+300, inf) norm of the initial field gauss"),
        ("wave_conservation", "(1e+300, 1) norm of the initial data"),
    ])
    def test_underflowing_norm_of_the_initial_data(self, tmp_path, capsys, name, what):
        # |V|^p of the Gaussian underflows to 0, and run divided by that norm
        cfg = write_config(tmp_path, f"name = {name}\np = 1e300\nout = {tmp_path / 'o'}\n")
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg]) == 2
        assert f"error: the {what} underflows to 0" in capsys.readouterr().err

    def test_divergence_needs_two_boxes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "name = m_inf_1_divergence\nl_list = 16\n"
                                     f"out = {tmp_path / 'o'}\n")
        assert main(["validate", cfg]) == 2
        assert "at least 2 boxes" in capsys.readouterr().err
        assert main(["run", cfg]) == 2

    @pytest.mark.parametrize("name", [
        "schrodinger_conservation", "wave_conservation", "operator_probe", "lp_contrast",
    ])
    def test_only_amalgam_constants_takes_d2(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, f"name = {name}\nd = 2\nout = {tmp_path / 'o'}\n")
        assert main(["validate", cfg]) == 2
        assert "only amalgam_constants takes d = 2" in capsys.readouterr().err
        assert main(["run", cfg]) == 2

    def test_missing_file(self):
        out = run_cli(["run", "/no/such/file.ini"])
        assert out.returncode == 2

    def test_missing_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[other]\nname = chirp_stft\n")
        out = run_cli(["validate", str(p)])
        assert out.returncode == 2

    @pytest.mark.parametrize("text", [
        "name = chirp_stft\n",  # no section header
        "[experiment]\nname = chirp_stft\nname = lp_contrast\n",  # a key twice
        "[experiment]\nname = chirp_stft\nt_list\n",  # a line without =
        "[experiment]\nname = chirp_stft\nt_list = %(x)s\n",  # raised on reading the value
    ])
    def test_malformed_file_exits_two(self, tmp_path, capsys, text):
        # each printed a configparser traceback and exited 1
        p = tmp_path / "bad.ini"
        p.write_text(text)
        for cmd in ("validate", "run"):
            assert main([cmd, str(p)]) == 2
            assert capsys.readouterr().err.startswith(f"error: malformed config file {p}: ")


class TestSchema:
    def test_every_experiment_is_a_plan(self):
        # validate runs the plan and run the runner, so both reach every check
        # through one derivation
        for name, runner in EXPERIMENTS.items():
            plan = inspect.unwrap(runner)
            assert plan is not runner
            assert inspect.signature(plan) == inspect.signature(runner)
            assert callable(plan(**parse_params({"name": name})))

    def test_runner_runs_the_plan_then_its_measure_step(self):
        calls = []
        runner = cli._runner(
            lambda **params: calls.append(params) or (lambda: calls.append("measure") or 7))
        assert runner(a=1) == 7 and calls == [{"a": 1}, "measure"]

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_defaults_written_back_parse_to_the_defaults(self, tmp_path, name):
        # a key without a parser, or a default of another kind than its
        # parser returns, makes the two configs differ
        bare = parse_params({"name": name})
        assert bare.keys() <= PARSERS.keys()
        text = "".join(
            f"{key} = {', '.join(map(repr, v)) if isinstance(v, tuple) else repr(v)}\n"
            for key, v in bare.items() if v is not None)
        written = parse_params(load_config(write_config(tmp_path, f"name = {name}\n{text}")))
        assert written == bare
        assert [type(v) for v in written.values()] == [type(v) for v in bare.values()]


    @pytest.mark.parametrize("function,argument,name,key", [
        (verify.lp_contrast_probe, "lambdas", "lp_contrast", "lambda_list"),
        (verify.verify_m_inf_1_divergence, "box_sizes", "m_inf_1_divergence", "l_list"),
    ])
    def test_library_and_cli_share_one_default(self, function, argument, name, key):
        library = inspect.signature(function).parameters[argument].default
        assert parse_params({"name": name})[key] is library

    def test_linear_phase_cases_default_is_the_verify_constant(self):
        # small ints are cached, so `is` cannot tell one constant from two
        # equal literals; read the default expressions of both signatures
        def default_source(function, argument):
            args = ast.parse(inspect.getsource(function)).body[0].args
            named = args.args[len(args.args) - len(args.defaults):]
            return dict(zip((a.arg for a in named), map(ast.unparse, args.defaults)))[argument]

        assert default_source(cli._run_linear_phase, "cases") == "verify.LINEAR_PHASE_CASES"
        assert default_source(verify.linear_phase_random_cases, "n") == "LINEAR_PHASE_CASES"
        assert parse_params({"name": "linear_phase"})["cases"] == verify.LINEAR_PHASE_CASES

    @pytest.mark.parametrize("name,value", [
        ("chirp_stft", "-1"),
        ("amalgam_constants", "0"),
    ])
    def test_tolerance_must_be_positive(self, tmp_path, capsys, name, value):
        # no error can be below a non-positive tolerance, so the run could only fail
        cfg = write_config(tmp_path, f"name = {name}\ntolerance = {value}\n"
                                     f"out = {tmp_path / 'o'}\n")
        assert main(["validate", cfg]) == 2
        assert "tolerance must be positive" in capsys.readouterr().err
        assert main(["run", cfg]) == 2
        assert not (tmp_path / "o").exists()


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

    def test_seed_reaches_csv_exactly(self, tmp_path):
        # 2**53 + 1 has no float; parsing through float wrote ...992
        cfg = write_config(tmp_path, "name = linear_phase\ncases = 1\n"
                                     f"seed = 9007199254740993\nout = {tmp_path / 'o'}\n")
        assert main(["run", cfg]) == 0
        csv = (tmp_path / "o" / "results.csv").read_text(encoding="utf-8")
        assert "cases=1;seed=9007199254740993," in csv

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
                                     "lambda_list = 1, 2\n")
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

    NON_FINITE = {
        "1e308": "the chirp of t = 1e+308 on the grid L = 32, N = 2048",
        "1e300": "the chirp of t = 0 on the grid L = 1e+300, N = 2048",
        "100": "alpha = 100: the k = 40 term |x|^(k alpha) psi(|x|)",
    }

    @pytest.mark.parametrize("name,key,value", [
        ("chirp_stft", "t_list", "1e308"),
        ("chirp_stft", "l", "1e300"),
        ("dyadic_series", "alpha_list", "100"),
    ])
    def test_non_finite_sample_exits_two(self, tmp_path, capsys, name, key, value):
        # sampling overflows: this ended in a traceback, then validate said
        # ok while run exited 2; the field is now sampled by validate too
        what = self.NON_FINITE[value]
        cfg = write_config(tmp_path, f"name = {name}\n{key} = {value}\n"
                                     f"out = {tmp_path / 'o'}\n")
        for cmd in ("validate", "run"):
            assert main([cmd, cfg]) == 2
            assert f"error: {what}: non-finite sample at x = " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", [*sorted(EXPERIMENTS),
                                      pytest.param("amalgam_constants\nd = 2", id="amalgam_2d")])
    def test_sample_checks_start_no_fft(self, tmp_path, monkeypatch, name):
        def no_fft(*args, **kwargs):
            raise AssertionError("validate started an FFT")

        for transform in ("fft", "fftn", "ifft", "ifftn"):
            monkeypatch.setattr(np.fft, transform, no_fft)
        assert main(["validate", write_config(tmp_path, f"name = {name}\n")]) == 0

    @pytest.mark.parametrize("body,what", [
        ("name = lp_contrast\nt = 1e-160\nlambda_list = 1e308",
         "the Gaussian e^(-pi lambda |x|^2) of lambda = 1e+308 on the grid L = 32, N = 2048"),
        ("name = schrodinger_conservation\nn = 16\nl = 1e308",
         "the initial data mod_shift_gauss on the grid L = 1e+308, N = 16"),
    ], ids=["lp_contrast", "schrodinger_conservation"])
    def test_fields_only_run_sampled(self, tmp_path, capsys, body, what):
        # validate said ok, then run exited 2 with a sampling error that named
        # neither the key nor the field
        cfg = write_config(tmp_path, f"{body}\nout = {tmp_path / 'o'}\n")
        for cmd in ("validate", "run"):
            assert main([cmd, cfg]) == 2
            assert f"error: {what}: non-finite sample at x = " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflowing_frequency_lattice_names_the_grid(self, tmp_path):
        # the message said "inf rad" after a numpy overflow warning (and
        # t = 0 times the overflowed |xi| warned of an invalid value)
        cfg = write_config(tmp_path, "name = wave_conservation\nn = 16\nl = 1e-300\n"
                                     "t_list = 0, 0.5\n")
        for cmd in ("validate", "run"):
            out = run_cli([cmd, cfg], env_extra={"TFMULT_OUT": str(tmp_path / "o")})
            assert out.returncode == 2
            assert out.stderr == ("error: the grid L = 1e-300, N = 16 has a frequency lattice "
                                  "of spacing 1/L = 1e+300 whose |xi| overflows float64\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("xs,ys", [([1e300], [1.0]), ([1.0], [1e300])])
    def test_svg_one_valued_axis_of_large_magnitude(self, tmp_path, xs, ys):
        # x0 + 1.0 == x0 once |x0| >= 2^53, which left a zero-width axis
        path = tmp_path / "plot.svg"
        cli.emit_svg({"a": (xs, ys)}, path)
        circle = xml.dom.minidom.parse(str(path)).getElementsByTagName("circle")[0]
        assert (circle.getAttribute("cx"), circle.getAttribute("cy")) == ("60.00", "360.00")

    def test_main_callable_in_process(self, tmp_path, capsys):
        assert main(["list"]) == 0
        captured = capsys.readouterr()
        assert "chirp_stft" in captured.out


class TestCsvFormat:
    def test_twelve_significant_digits(self, tmp_path):
        cfg = write_config(tmp_path, "name = lp_contrast\nt = 1\n"
                                     "lambda_list = 1\n")
        run_cli(["run", cfg], env_extra={"TFMULT_OUT": str(tmp_path / "o")})
        rows = (tmp_path / "o" / "results.csv").read_text().strip().split("\n")[1:]
        measured = rows[0].split(",")[2]
        digits = measured.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 11  # %.12g trims only trailing zeros

    def test_predicted_empty_when_no_formula(self, tmp_path):
        cfg = write_config(tmp_path, "name = lp_contrast\nt = 1\n"
                                     "lambda_list = 1\n")
        run_cli(["run", cfg], env_extra={"TFMULT_OUT": str(tmp_path / "o")})
        rows = (tmp_path / "o" / "results.csv").read_text().strip().split("\n")[1:]
        m11_row = [r for r in rows if "space=M11" in r][0]
        assert m11_row.split(",")[3] == ""


# extreme values of every kind: tiny, huge, zero, huge integers
_EXTREMES = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1e308, 0.5, 1.0, 2.0, 4.0]
_NUMBERS = st.one_of(st.sampled_from(_EXTREMES), st.floats()).map(repr)
_INTEGERS = st.one_of(
    st.sampled_from([0, 1, -1, 5, 8, 16, 64, 171, 256, 512, 1024, 2 ** 20, 2 ** 40, 2 ** 64,
                     10 ** 30, -10 ** 30]),
    st.integers(-10 ** 6, 10 ** 6)).map(str)
_TEXT = {
    cli._int: st.one_of(_INTEGERS, _NUMBERS),
    cli._float: _NUMBERS,
    cli._exponent: st.one_of(_NUMBERS, st.just("inf")),
    cli._floats: st.lists(_NUMBERS, min_size=1, max_size=3).map(", ".join),
}


def _plan_grids(name, params) -> list:
    """The grids of all that the plan of ``params`` hands its measure step."""
    measure = inspect.unwrap(EXPERIMENTS[name])(**params)
    grids, todo = [], list(inspect.getclosurevars(measure).nonlocals.values())
    while todo:
        v = todo.pop()
        if isinstance(v, Grid):
            grids.append(v)
        elif isinstance(v, (list, tuple)):
            todo.extend(v)
        elif hasattr(v, "grid") or hasattr(v, "field"):  # a field, symbol or window
            todo.append(getattr(v, "grid", None) or v.field)
    return grids


def _small_run(name, params) -> bool:
    """Whether a validated config's run is cheap enough to start in a test.

    No 2D ``amalgam_constants``; the grids that ``n`` or ``l_list`` set, as
    the plan hands them to its measure step (N = n and 2n for
    ``operator_probe``), hold at most 1024 points; ``cases``, ``k`` and
    ``j`` are no larger than their defaults.  The other experiments run on
    their own fixed grids.
    """
    defaults = parse_params({"name": name})
    if params.get("d") == 2:
        return False
    if {"n", "l_list"} & params.keys() and max(g.N for g in _plan_grids(name, params)) > 1024:
        return False
    return all(params[key] <= defaults[key] for key in ("cases", "k", "j") if key in params)


# the exits of 2 that run may take after validate said ok: a (p, q) norm of
# the data leaves the float64 range, which no check short of a pass can see
_NORM_RANGE = ("falls below the float64 range", "rescale the field so that |V|^p stays within")


class TestRandomConfigs:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_every_exit_is_0_1_or_2_with_a_message(self, data):
        # a config of random keys and extreme values, through both commands
        # in process: an exception escaping main fails the test
        name = data.draw(st.sampled_from(sorted(EXPERIMENTS)))
        keys = list(inspect.signature(EXPERIMENTS[name]).parameters)
        chosen = data.draw(st.lists(st.sampled_from(keys), unique=True))
        body = "".join(f"{key} = {data.draw(_TEXT[PARSERS[key]])}\n" for key in chosen)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setenv("TFMULT_OUT", str(Path(tmp) / "o"))
            cfg = write_config(Path(tmp), f"name = {name}\n{body}")
            if self._exit(["validate", cfg])[0] == 0 and _small_run(
                    name, parse_params(load_config(cfg))):
                # a config that validates is one that run can measure
                code, err = self._exit(["run", cfg])
                assert code != 2 or any(m in err for m in _NORM_RANGE), (body, err)

    @staticmethod
    def _exit(argv) -> tuple:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert err.getvalue().startswith("error: ") and len(err.getvalue()) > 8
        if code == 1:
            assert "FAIL-context: " in err.getvalue()
        return code, err.getvalue()
