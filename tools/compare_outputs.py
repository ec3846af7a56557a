"""Check that two checkouts of tfmult write byte-identical experiment outputs.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository.  Every experiment
that ``tfmult list`` names is run at its default config, plus
``amalgam_constants`` with ``d = 2``, once per side, with
``PYTHONPATH=<side>/src`` and a fresh ``TFMULT_OUT`` directory under one
temporary directory; ``tfmult validate`` checks each config first, so the
plan path of every default config is covered too.  Every file either side
writes is compared byte for byte, and one line per file says whether it is
identical.

Exit 0 when every file is identical on both sides and every validate and
run exited 0 and wrote nothing to stderr; exit 1 on any difference, any
file written by only one side, a different experiment list, any non-zero
exit, or any stderr output (a default config should not warn), which is
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


def _configs(names) -> list:
    """[(label, INI text)]: each experiment at its defaults, then 2D amalgam."""
    out = [(name, f"[experiment]\nname = {name}\n") for name in names]
    out.append(("amalgam_constants_d2", "[experiment]\nname = amalgam_constants\nd = 2\n"))
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
