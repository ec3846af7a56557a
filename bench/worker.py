"""One benchmark iteration: run a workload's configs through the tfmult CLI.

Started by ``run.py`` as a fresh single-threaded process.  It imports
``tfmult`` from the checkout's ``src/``, writes the workload's configs into
``--dir``, and runs each with ``tfmult.cli.main(["run", cfg])`` and its own
fresh ``TFMULT_OUT`` directory.  Only the config loop is timed.  With
``--trace`` the tracer is installed first and its spans are written to
``spans.jsonl`` after the loop.  The iteration's figures go to
``result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import tfmult
    import tfmult.cli as cli

    if not Path(tfmult.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: tfmult imported from {tfmult.__file__}, not the checkout",
              file=sys.stderr)
        return 2

    runs = []
    for i, (name, text) in enumerate(workloads.configs(args.workload, args.seed)):
        cfg = args.dir / f"{i:02d}-{name}.ini"
        cfg.write_text(text, encoding="utf-8")
        runs.append((name, cfg, args.dir / "out" / f"{i:02d}-{name}"))

    tracer = Tracer(args.run_id) if args.trace else None
    if tracer:
        tracer.install()
    codes = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for name, cfg, out in runs:
        os.environ["TFMULT_OUT"] = str(out)
        try:
            codes.append(cli.main(["run", str(cfg)]))
        except Exception:  # an experiment that raises counts as failed
            traceback.print_exc()
            codes.append(-1)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        tracer.uninstall()
        tracer.dump(args.dir / "spans.jsonl")

    result = {
        "experiments": [name for name, _, _ in runs],
        "exit_codes": codes,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mib": ru1.ru_maxrss / 1024.0,  # Linux reports KiB
        "numpy": sys.modules["numpy"].__version__,
        "scipy_imported": "scipy" in sys.modules,
    }
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
