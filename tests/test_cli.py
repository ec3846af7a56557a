"""CLI contract: subcommands, config parsing, artifacts, exit codes."""

import ast
import contextlib
import functools
import inspect
import io
import os
import re
import runpy
import subprocess
import sys
import tempfile
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tfmult
from tfmult import cli, mult, tf, verify
from tfmult.cli import EXPERIMENTS, PARSERS, load_config, main, parse_params
from tfmult.core import Grid

# the child process imports the same tfmult as this one, installed or not
PACKAGE_ROOT = str(Path(tfmult.__file__).resolve().parents[1])
# the fixed non-default configs whose outputs tools/compare_outputs.py compares
EXTRA_CONFIGS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"))["EXTRA_CONFIGS"]


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
        # run compared every growth with 2 and exited 1: no growth can pass
        ("m_inf_1_divergence", "l_list", "16, 16", "box sizes must strictly increase"),
        ("m_inf_1_divergence", "l_list", "64, 32, 16", "box sizes must strictly increase"),
        # validate said ok, and run compared the L^1 ratios in list order and
        # exited 1, though every row matched its closed form
        ("lp_contrast", "lambda_list", "8, 4, 2, 1",
         "Gaussian dilations must strictly increase, got [8.0, 4.0, 2.0, 1.0]"),
        ("lp_contrast", "lambda_list", "1, 1, 2",
         "Gaussian dilations must strictly increase, got [1.0, 1.0, 2.0]"),
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
        # validate said ok, and run warned of overflow in the closed form,
        # wrote an empty measured cell and exited 1 (three keys: t_list, l, n)
        ("chirp_stft", "t_list", "1e200\nl = 1e-300\nn = 16",
         "t = 1e+200: the closed-form chirp STFT is not finite on the grid L = 1e-300, N = 16"),
        # validate said ok, and run exited 1: the ratios of the two grids
        # differed by 0.30 and 0.087, above 0.05, as the narrow probes are
        # not resolved below n/l = 5.41
        ("operator_probe", "n", "128", "n = 128, l = 32: the operator probes are resolved "
                                       "only for n/l >= 5.5, and n/l = 4"),
        ("operator_probe", "n", "64\nl = 20", "n = 64, l = 20: the operator probes"),
        # validate said ok, and run exited 1: the chirp's first frequency
        # alias reached the compared band (max |V - oracle| 2.7e-6 at 4.8)
        ("chirp_stft", "t_list", "4.8", "t = 4.8: on the grid L = 32, N = 2048 the chirp's "
                                        "first frequency alias lies 3N/(4L) - |t|L/4 = 9.6"),
        ("chirp_stft", "t_list", "0.5, -6", "t = -6: on the grid L = 32, N = 2048"),
        ("chirp_stft", "t_list", "2\nl = 16\nn = 128", "t = 2: on the grid L = 16, N = 128"),
        # validate said ok, and run exited 1: on a box below L = 8 the
        # periodized chirp's jump reaches the compared band (max |V - oracle|
        # 5.7e-6 at l = 7, n = 256, and 1.3e-6 at l = 7.5, n = 512)
        ("chirp_stft", "t_list", "0.5\nl = 7\nn = 256", "t = 0.5: the chirp STFT check needs "
                                                         "a box L >= 8 for t != 0, and L = 7"),
        ("chirp_stft", "t_list", "0, -1\nl = 7.5\nn = 512", "t = -1: the chirp STFT check needs"),
        # keys the experiment does not take used to pass both commands unread
        ("sin_singular_fl1", "n", "64", "sin_singular_fl1 takes no key 'n'"),
        ("lp_contrast", "lambda_lst", "1, 2", "lp_contrast takes no key 'lambda_lst'"),
    ])
    @pytest.mark.filterwarnings("error")
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

    @pytest.mark.parametrize("body", [
        # the chirp's alias rule admits |t| <= 4.7356 on the default grid;
        # max |V - oracle| reads 1.9e-7 at 4.7
        "name = chirp_stft\nt_list = 4.7, -4.7\n",
        # n/l = 5.5 on the smallest probe grids: the ratios change by 0.035
        "name = operator_probe\nn = 64\nl = 11.636\n",
        # the chirp check's least box admits t != 0 from L = 8 (2.6e-7 at
        # t = 0.5, N = 256), and t = 0 on any box (3.8e-10 at L = 5)
        "name = chirp_stft\nt_list = 0, 0.5\nl = 8\nn = 256\n",
        "name = chirp_stft\nt_list = 0\nl = 5\nn = 128\n",
    ])
    def test_plan_bounds_admit_what_run_measures(self, tmp_path, body):
        cfg = write_config(tmp_path, body + f"out = {tmp_path / 'o'}\n")
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg]) == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body,codes,message", [
        # x^2 overflowed in the Gaussian window (0 there anyway), and run
        # warned again from the final reduction before naming the overflow
        ("name = wave_conservation\nn = 16\nl = 1e200\n", (0, 2),
         "rescale the field so that |V|^p stays within float64"),
        # (w - t x)^2 overflowed where the closed form is 0, and both passed; the
        # box is below the chirp check's least one, so the plan now rejects it
        # with no pass (test_verify.py runs the check on it)
        ("name = chirp_stft\nt_list = 1e100\nl = 1e-300\nn = 16\n", (2, 2),
         "t = 1e+100: the chirp STFT check needs a box L >= 8 for t != 0"),
    ])
    def test_float64_range_edges_warn_nothing(self, tmp_path, capsys, body, codes, message):
        # numpy's RuntimeWarnings are errors here, on pool threads too
        cfg = write_config(tmp_path, body + f"out = {tmp_path / 'o'}\n")
        for cmd, code in zip(("validate", "run"), codes):
            assert main([cmd, cfg]) == code
            err = capsys.readouterr().err
            assert (message in err if code == 2 else err == "") and "Warning" not in err

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

    def test_2d_t_beyond_the_w_grid(self, tmp_path, capsys, monkeypatch):
        # validate said ok, and run failed the W row's check on the N = 256
        # grid, after minutes of M^(1,inf) passes on an N = 1024 grid
        def no_fft(*args, **kwargs):
            raise AssertionError("a pass started")

        for transform in ("fft", "fftn", "ifft", "ifftn"):
            monkeypatch.setattr(np.fft, transform, no_fft)
        cfg = write_config(tmp_path, "name = amalgam_constants\nd = 2\nt_list = 10\n"
                                     f"out = {tmp_path / 'o'}\n")
        for cmd in ("validate", "run"):
            assert main([cmd, cfg]) == 2
            assert ("error: t = 10: the 2D W rows run on the grid L = 16, N = 256, which "
                    "resolves the chirp to within 1e-5 only for |t| <= 4\n"
                    ) == capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("t,l_list,bound", [
        ("0.1", "16, 32, 64", "2.07/|t| = 20.7"), ("-0.1", "16, 32, 64", "2.07/|t| = 20.7"),
        ("0.127", "16, 32, 64", "2.07/|t| = 16.3"),
        ("1e-300", "16, 32, 64", "2.07/|t| = 2.07e+300"),
        ("1", "3, 6", "8 for every t"), ("1", "4, 8", "8 for every t"),
        ("1", "7, 14", "8 for every t"), ("-4", "1, 2", "8 for every t"),
        ("2", "2, 4", "8 for every t"),
    ])
    def test_divergence_first_box_too_small(self, tmp_path, capsys, monkeypatch, t, l_list,
                                            bound):
        # validate said ok, and run exited 1: on the boxes 16, 32, 64 the
        # ridge of a t with L_1 |t| below about 2 grows by less than 1.5 per
        # doubling (1.443 and 1.614 at t = 0.1, 1.000 at t = 1e-300); on a
        # first box below 8 the threshold of L_1 |t| rises above 2.07 (2.46
        # at L_1 = 4, 2.09 at 7): t = 1 on 3, 6 grew by 1.466 and exited 1
        def no_fft(*args, **kwargs):
            raise AssertionError("a pass started")

        for transform in ("fft", "fftn", "ifft", "ifftn"):
            monkeypatch.setattr(np.fft, transform, no_fft)
        cfg = write_config(tmp_path, f"name = m_inf_1_divergence\nt = {t}\nl_list = {l_list}\n"
                                     f"out = {tmp_path / 'o'}\n")
        for cmd in ("validate", "run"):
            assert main([cmd, cfg]) == 2
            assert (f"error: t = {t}: the first box L = {l_list.split(',')[0]} is too small for "
                    f"the chirp's M^(inf,1) ridge to grow; it must be at least {bound}\n"
                    ) == capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_divergence_smallest_first_box(self, tmp_path):
        # the corner of the rule, L_1 = 8 and L_1 |t| = 2.07; and t = 0 on
        # any boxes, which writes no growth rows
        for keys in ("t = 0.25875\nl_list = 8, 16", "t = 0\nl_list = 1, 2"):
            cfg = write_config(tmp_path, f"name = m_inf_1_divergence\n{keys}\n"
                                         f"out = {tmp_path / 'o'}\n")
            assert main(["validate", cfg]) == 0
            assert main(["run", cfg]) == 0

    @pytest.mark.parametrize("t_list", ["0.2", "0.05", "-0.45, 0.1, 0"])
    def test_amalgam_small_t_takes_a_box_of_its_scale(self, tmp_path, t_list):
        # the L = 16 box cut off the M^(1,inf) ridge: t = 0.2 read 0.049 off
        # the prediction, t = 0.05 read 0.62, and run exited 1
        out = tmp_path / "o"
        cfg = write_config(tmp_path, f"name = amalgam_constants\nt_list = {t_list}\n"
                                     f"out = {out}\n")
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg]) == 0
        rows = [r.split(",") for r in (out / "results.csv").read_text().splitlines()[1:]]
        ts = t_list.split(", ")
        assert len(rows) == 2 * len(ts) - ts.count("0")
        assert all(float(r[4]) < 1e-12 for r in rows)  # the L = 16 box: 7.2e-6 at t = 0.5

    @pytest.mark.parametrize("t_list,L,N", [("1e-300", "1.07151e+301", "3.42883e+302"),
                                            ("0.5, -0.0039", "4096", "131072")])
    def test_amalgam_t_too_small_for_the_cap(self, tmp_path, capsys, monkeypatch, t_list, L, N):
        def no_fft(*args, **kwargs):
            raise AssertionError("a pass started")

        for transform in ("fft", "fftn", "ifft", "ifftn"):
            monkeypatch.setattr(np.fft, transform, no_fft)
        cfg = write_config(tmp_path, f"name = amalgam_constants\nt_list = {t_list}\n"
                                     f"out = {tmp_path / 'o'}\n")
        t = t_list.split(", ")[-1]
        for cmd in ("validate", "run"):
            assert main([cmd, cfg]) == 2
            assert (f"error: t = {t}: the 1D amalgam rows of this t need the box L = {L} on an "
                    f"N = {N} grid, above the cap N = 65536\n") == capsys.readouterr().err
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

    @pytest.mark.parametrize("keys", [
        # t = -4 took the t = 0.25 grids: growth to L = 64 read 1.00 and run exited 1
        "t = -4",
        # a small |t| on first boxes of its chirp scale, L_1 |t| = 3.2: the
        # ridge grows by 1.614 and 1.761
        "t = 0.1\nl_list = 32, 64, 128",
        "t = -0.1\nl_list = 32, 64, 128",
    ])
    def test_divergence_grows_on_boxes_of_the_chirp_scale(self, tmp_path, keys):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, f"name = m_inf_1_divergence\n{keys}\nout = {out}\n")
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        growth = [float(r.split(",")[2]) for r in rows if "growth_to_L" in r]
        assert len(growth) == 2 and all(g >= 1.5 for g in growth)

    def test_divergence_predicts_the_box_ratio(self, tmp_path):
        # each growth was checked against 2 whatever the boxes: 16, 20, 24
        # grew in equal steps and run exited 1
        out = tmp_path / "o"
        cfg = write_config(tmp_path, f"name = m_inf_1_divergence\nl_list = 16, 20, 24\n"
                                     f"out = {out}\n")
        assert main(["run", cfg]) == 0
        rows = [r.split(",") for r in (out / "results.csv").read_text().splitlines()[1:]]
        values = [float(r[2]) for r in rows if ";L=" in r[1]]
        growth = [(float(r[2]), float(r[3]), float(r[4])) for r in rows if "growth_to_L" in r[1]]
        assert [p for _, p, _ in growth] == [20 / 16, 24 / 20]
        for (g, p, dev), (a, b) in zip(growth, zip(values, values[1:])):
            assert g == pytest.approx(b / a) and dev == pytest.approx(abs(g - p) / p)
            assert (1 + p) / 2 <= g <= p

    @pytest.mark.parametrize("name,what", [
        ("schrodinger_conservation", "(1e+300, inf) norm of the field gauss"),
        ("wave_conservation", "(1e+300, 1) norm of the field gauss"),
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
        b"[experiment]\nname = chirp_stft\nt_list = 1\xff\n",  # not UTF-8
    ])
    def test_malformed_file_exits_two(self, tmp_path, capsys, monkeypatch, text):
        # each printed a configparser (or UnicodeDecodeError) traceback and exited 1
        p = tmp_path / "bad.ini"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        monkeypatch.setenv("TFMULT_OUT", str(tmp_path / "o"))
        for cmd in ("validate", "run"):
            assert main([cmd, str(p)]) == 2
            assert capsys.readouterr().err.startswith(f"error: malformed config file {p}: ")
        assert not (tmp_path / "o").exists()


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


    @pytest.mark.parametrize("constant,name,key", [
        ("LP_CONTRAST_LAMBDAS", "lp_contrast", "lambda_list"),
        ("DIVERGENCE_BOXES", "m_inf_1_divergence", "l_list"),
    ])
    def test_library_and_cli_share_one_default(self, constant, name, key):
        assert parse_params({"name": name})[key] is getattr(verify, constant)

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


# The helpers a plan derives or checks its run's inputs with, as ``cli`` and
# ``verify`` bind them: the checks, the grid, window, region, symbol and
# prediction helpers, and the chirp's resolution rule.  No field sampler is
# among them: the measure step samples the 2D chirps and the dyadic terms on
# purpose.
_HELPER = re.compile(r"^_check_|_grids?(_[12]d)?$|_window$|_region$|_prediction$|_envelope$"
                     r"|^(bump_chi|symbol_unimodular|wave_symbols|_amalgam_checks|fresnel_l1_ratio"
                     r"|chirp_aliased)$")


class TestOneDerivation:
    CONFIGS = [pytest.param(name, {}, id=name) for name in sorted(EXPERIMENTS)] + [
        pytest.param(name, dict(kv.split(" = ") for kv in keys.split("\n")), id=label)
        for label, name, keys in EXTRA_CONFIGS]

    @pytest.mark.parametrize("name,keys", CONFIGS)
    def test_measure_step_calls_no_helper_of_its_plan(self, monkeypatch, name, keys):
        # the measure steps checked their inputs again, lp_contrast's and
        # sin_singular_fl1's each check among them, and derived their grids
        # and windows again; then the amalgam_constants step still derived
        # its W predictions and the chirp_stft step its aliasing flags: so
        # the plan calls every helper, and the measure step none
        calls = []

        def recorded(attr, fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                calls.append(attr)
                return fn(*args, **kwargs)
            return call

        for module in (cli, verify):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and _HELPER.search(attr):
                    monkeypatch.setattr(module, attr, recorded(attr, obj))
        # the values do not matter here, and the 2D passes take seconds: every
        # |V| norm pass reads 1
        monkeypatch.setattr(tf, "_norms", lambda f, g, specs, *args: [1.0] * len(specs))
        params = parse_params({"name": name, **keys})
        calls.clear()
        measure = inspect.unwrap(EXPERIMENTS[name])(**params)
        planned = set(calls)
        calls.clear()
        measure()
        assert planned and not calls, sorted(set(calls))


class TestPhaseChecks:
    @pytest.mark.parametrize("name,plan,measure", [
        # every multiplier is built, and its phase checked, once in the plan
        # and only applied in the measure step: e^{it|xi|^2} for each of the
        # four t
        ("schrodinger_conservation", 4, 0),
        # the wave flow's pair for each of the three t on the data grid and
        # its half grid, and for t = 0 on the data grid (the energy baseline)
        ("wave_conservation", 7, 0),
        # e^{it|xi|^2} for the one t
        ("lp_contrast", 1, 0),
        # e^{i|xi|^alpha} for each of the four alpha on each of the two grids
        ("operator_probe", 8, 0),
    ])
    def test_phase_checks_of_a_default_run(self, monkeypatch, name, plan, measure):
        calls = []
        check = mult._check_phase_resolution

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(mult, "_check_phase_resolution", counted)
        step = inspect.unwrap(EXPERIMENTS[name])(**parse_params({"name": name}))
        assert len(calls) == plan
        calls.clear()
        assert step()[2]
        assert len(calls) == measure


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

    def test_unwritable_out_exits_two(self, tmp_path, capsys, monkeypatch):
        # run measured everything, then printed a NotADirectoryError traceback
        # and exited 1
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        cfg = write_config(tmp_path, f"name = sin_singular_fl1\nout = {out}\n")
        runs = []
        runner = EXPERIMENTS["sin_singular_fl1"]

        @functools.wraps(runner)
        def counted(**params):
            runs.append(params)
            return runner(**params)

        monkeypatch.setitem(EXPERIMENTS, "sin_singular_fl1", counted)
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write results to {out}: ")
        assert len(runs) == 1  # through EXPERIMENTS, which the benchmark's tracer wraps

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
