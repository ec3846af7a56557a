"""Check that two checkouts of tfmult write byte-identical experiment outputs.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository.  Every experiment
that ``tfmult list`` names is run at its default config, then each config of
``EXTRA_CONFIGS``, once per side, with ``PYTHONPATH=<side>/src`` and a fresh
``TFMULT_OUT`` directory under one temporary directory; ``tfmult validate``
checks each config first, so the plan path of every config is covered too.
Every file either side writes is compared byte for byte, and one line per
file says whether it is identical.

Exit 0 when every file is identical on both sides and every validate and
run exited 0 and wrote nothing to stderr; exit 1 on any difference, any
file written by only one side, a different experiment list, any non-zero
exit, or any stderr output (none of these configs should warn), which is
printed.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _env(side: Path, out: Path | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    if out is not None:
        env["TFMULT_OUT"] = str(out)
    return env


def _experiments(side: Path) -> list:
    done = subprocess.run([sys.executable, "-m", "tfmult.cli", "list"],
                          env=_env(side), capture_output=True, text=True, check=True)
    return done.stdout.split()


# (label, experiment, keys): 2D amalgam, then configs that sample the chirp,
# the symbols and the Gaussian data away from the default grids and values,
# then configs that reach the refinement estimates elsewhere: a W row with no
# M^{1,inf} row (t = 0), and wave rows at other (p, q) and at t = 0; then a 2D
# M^{1,inf} window of a negative t beside a 2D t with no M^{1,inf} row, and
# the divergence's growth predictions on boxes other than the default ones;
# then the multiplier ratios elsewhere: the constant and quadratic probe
# symbols on a coarser grid, the Schrodinger (p, q) equal to its M^{2,2}
# check, and the Fresnel contrast at other dilations and t; then a repeated
# wave t, measured once and reported twice, on the smallest grid it takes;
# then the divergence of the constant symbol (t = 0), which writes the box
# values and no growth rows; then a Schrodinger (p, q) with two powers beside
# the M^{2,2} check, so every windowed pass of it takes one |V|^p in place and
# the other in a scratch; then the Schrodinger envelope fit fed the identity
# flow (t = 0), a repeated t (one ratio per field, two plot points) and an
# unsorted t list; then the divergence of a small t on first boxes that its
# chirp scale admits; then the 1D amalgam rows of small ts, each on a box of
# its own chirp scale, and the divergence on the smallest first box the plan
# admits, L_1 = 8 with L_1 |t| = 2.07; then the k0-tiled N = 512 M^{1,inf}
# pass of a negative t, and the pruned N = 512 M^{1,inf} pass ahead of the
# N = 256 passes of another t
EXTRA_CONFIGS = (
    ("amalgam_constants_d2", "amalgam_constants", "d = 2"),
    ("chirp_stft_t-1_-0.5", "chirp_stft", "t_list = -1, -0.5"),
    ("amalgam_constants_t-1_3", "amalgam_constants", "t_list = -1, 3"),
    ("m_inf_1_divergence_t-1", "m_inf_1_divergence", "t = -1"),
    ("dyadic_series_alpha0.75_1.5", "dyadic_series", "alpha_list = 0.75, 1.5"),
    ("sin_singular_fl1_alpha0.8_delta0.5", "sin_singular_fl1", "alpha = 0.8\ndelta = 0.5"),
    ("linear_phase_seed7", "linear_phase", "seed = 7"),
    ("operator_probe_l20", "operator_probe", "l = 20"),
    ("lp_contrast_t-2", "lp_contrast", "t = -2"),
    ("schrodinger_conservation_l24_n1024", "schrodinger_conservation", "l = 24\nn = 1024"),
    ("wave_conservation_l20", "wave_conservation", "l = 20"),
    ("amalgam_constants_t0_1", "amalgam_constants", "t_list = 0, 1"),
    ("wave_conservation_pinf_q1_t0_3", "wave_conservation", "p = inf\nq = 1\nt_list = 0, 3"),
    ("wave_conservation_p2_q2", "wave_conservation", "p = 2\nq = 2"),
    ("amalgam_constants_d2_t-1_0", "amalgam_constants", "d = 2\nt_list = -1, 0"),
    ("m_inf_1_divergence_l8_16_32", "m_inf_1_divergence", "l_list = 8, 16, 32"),
    ("operator_probe_alpha0_2_n256", "operator_probe", "alpha_list = 0, 2\nn = 256"),
    ("schrodinger_conservation_p2_q2", "schrodinger_conservation", "p = 2\nq = 2"),
    ("lp_contrast_lambda0.5_3_t2", "lp_contrast", "lambda_list = 0.5, 3\nt = 2"),
    ("wave_conservation_t1_1_n16", "wave_conservation", "t_list = 1, 1\nn = 16"),
    ("m_inf_1_divergence_t0", "m_inf_1_divergence", "t = 0"),
    ("schrodinger_conservation_p1.5_q3", "schrodinger_conservation", "p = 1.5\nq = 3"),
    ("schrodinger_conservation_t4_0_4", "schrodinger_conservation", "t_list = 4, 0, 4"),
    ("m_inf_1_divergence_t0.1_l32", "m_inf_1_divergence", "t = 0.1\nl_list = 32, 64, 128"),
    ("amalgam_constants_t0.2_0.05", "amalgam_constants", "t_list = 0.2, 0.05"),
    ("m_inf_1_divergence_t0.25875_l8", "m_inf_1_divergence", "t = 0.25875\nl_list = 8, 16"),
    ("amalgam_constants_d2_t-3", "amalgam_constants", "d = 2\nt_list = -3"),
    ("amalgam_constants_d2_t4_1", "amalgam_constants", "d = 2\nt_list = 4, 1"),
)


def _configs(names) -> list:
    """[(label, INI text)]: each experiment at its defaults, then ``EXTRA_CONFIGS``."""
    out = [(name, f"[experiment]\nname = {name}\n") for name in names]
    out += [(label, f"[experiment]\nname = {name}\n{keys}\n")
            for label, name, keys in EXTRA_CONFIGS]
    return out


def _run_side(side: Path, configs, root: Path) -> bool:
    """Validate and run every config against one checkout; True if all exited 0 silently."""
    ok = True
    for label, text in configs:
        cfg = root / "configs" / f"{label}.ini"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(text, encoding="utf-8")
        out = root / "out" / label
        out.mkdir(parents=True)
        for cmd in ("validate", "run"):
            done = subprocess.run([sys.executable, "-m", "tfmult.cli", cmd, str(cfg)],
                                  env=_env(side, out), cwd=root, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"exit {done.returncode}  {side.name}: {cmd} {label}")
                ok = False
            if done.stderr:
                print(f"stderr  {side.name}: {cmd} {label}\n{done.stderr.rstrip()}")
                ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    sides = (args.parent.resolve(), args.change.resolve())

    names = [_experiments(side) for side in sides]
    ok = names[0] == names[1]
    if not ok:
        print(f"experiment lists differ: {names[0]} vs {names[1]}")
    configs = _configs(sorted(set(names[0]) | set(names[1])))

    with tempfile.TemporaryDirectory(prefix="tfmult-compare-") as tmp:
        roots = (Path(tmp) / "parent", Path(tmp) / "change")
        for side, root in zip(sides, roots):
            ok = _run_side(side, configs, root) and ok
        for label, _ in configs:
            dirs = [root / "out" / label for root in roots]
            files = sorted({p.name for d in dirs for p in d.iterdir()})
            for name in files:
                a, b = (d / name for d in dirs)
                if not (a.exists() and b.exists()):
                    verdict = "only in " + ("change" if b.exists() else "parent")
                elif filecmp.cmp(a, b, shallow=False):
                    verdict = "identical"
                else:
                    verdict = "different"
                ok = ok and verdict == "identical"
                print(f"{verdict:<16} {label}/{name}")
    print("all identical" if ok else "DIFFERENCES FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
