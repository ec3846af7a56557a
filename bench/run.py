"""tfmult benchmark: run one workload through the CLI and report its metrics.

    python3 bench/run.py --workload suite_1d --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this directory and tfmult
is imported from its ``src/``.  Each iteration is a fresh single-threaded
process (``worker.py``) that runs the workload's configs one after another;
iterations repeat until ``--seconds`` have passed (at least one runs).  Every
iteration writes its CLI output into a fresh temporary directory under
``.bench_out/`` in the checkout, removed when the run ends.

``--trace 0`` reports the end-to-end metrics: medians over iterations of
wall time, CPU time and peak RSS of the config loop, the median of several
fresh-interpreter imports of ``tfmult.cli`` (``setup_s``), and the largest
deviation from a closed form (``oracle_dev_max``).  ``--trace 1`` runs the
same untraced iterations, then one traced iteration, and reports per-layer
metrics from its spans.

Output is checked: an experiment fails when its CLI exit code is not 0 (its
own closed-form assertion failed) or it raised.  The run is correct when no
experiment failed, the oracle rows were found, and every iteration (traced
or not) wrote byte-identical output.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when the run is not correct, 2 when the checkout has no tfmult.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import load_spans, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0  # the whole run, set-up included
SETUP_REPEATS = 9

TF_NORMS = ("m_1_inf_norm", "amalgam_norm_wfl1", "m_inf_1_norm", "modulation_norm",
            "modulation_norms_multi", "stft", "fl1_norm")
MULT_FNS = ("apply_multiplier", "schrodinger_propagate", "wave_propagate", "wave_energy")
VERIFY_FNS = ("verify_chirp_stft", "verify_amalgam_constants", "verify_m_inf_1_divergence",
              "dyadic_fl1_series", "verify_sin_singular_fl1", "linear_phase_random_cases",
              "probe_ratios", "lp_contrast_probe", "schrodinger_conservation",
              "wave_conservation")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"),
              ("setup_s", "s"), ("oracle_dev_max", "ratio"))


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TFMULT_OUT", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
    return left


def measure_setup(deadline: float) -> list:
    """Seconds from spawning a fresh interpreter until it has imported tfmult.cli.

    The child reports the CLOCK_MONOTONIC time at which the import finished,
    so neither interpreter teardown nor the polling of ``subprocess.run``
    with a timeout (sleeps of up to 50 ms) enters the figure.  One warm-up
    import runs first.
    """
    cmd = [sys.executable, "-c", "import tfmult.cli, time; print(time.monotonic_ns())"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.monotonic_ns()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT / "src", check=True,
                              capture_output=True, text=True, timeout=remaining(deadline))
        if i:
            times.append((int(proc.stdout) - t0) / 1e9)
    return times


def run_iteration(tmp: Path, args, index: int, trace: bool, deadline: float):
    """One worker process; returns (result, {output path: bytes}, spans or None)."""
    work = tmp / f"iter{index}"
    work.mkdir()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(work),
           "--run-id", f"{args.workload}-{args.seed}-{index}"]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"iteration {index} exceeded {DEADLINE_S:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    out = work / "out"
    outputs = {str(p.relative_to(out)): p.read_bytes()
               for p in sorted(out.rglob("*")) if p.is_file()}
    spans = load_spans(work / "spans.jsonl") if trace else None
    shutil.rmtree(work)
    return result, outputs, spans


def check_outputs(result: dict, outputs: dict) -> tuple:
    """(failed experiments, oracle deviations) of one iteration."""
    failed, devs = 0, []
    for i, (name, code) in enumerate(zip(result["experiments"], result["exit_codes"])):
        csv_bytes = outputs.get(f"{i:02d}-{name}/results.csv")
        if code != 0 or csv_bytes is None:
            failed += 1
            continue
        devs.extend(workloads.oracle_deviations(csv_bytes.decode("utf-8")))
    return failed, devs


def per_layer_metrics(spans, traced_wall: float, untraced_wall: float) -> dict:
    s = summarize(spans)
    calls, incl, self_s, fft = s["calls"], s["incl_s"], s["self_s"], s["fft"]
    fft_s = incl.get("core.centered_fft", 0.0)
    m = {
        "core.centered_fft.calls": (calls.get("core.centered_fft", 0), "count"),
        "core.centered_fft.s": (fft_s, "s"),
        "core.centered_fft.points": (fft["points"], "count"),
        "core.centered_fft.rows": (fft["rows"], "count"),
        # computed from array shapes: 5 n log2 n flops per transform and
        # 16 bytes read plus 16 written per point; cache misses are not seen
        "core.centered_fft.gflop": (fft["flop"] / 1e9, "Gflop"),
        "core.centered_fft.gbyte": (fft["points"] * 32 / 1e9, "GB"),
        "core.centered_fft.gflop_per_s": (fft["flop"] / 1e9 / fft_s if fft_s else 0.0,
                                          "Gflop/s"),
        "core.coarsen.calls": (calls.get("core.coarsen", 0), "count"),
        "core.sample.calls": (calls.get("core.sample", 0), "count"),
        "core.sample.s": (incl.get("core.sample", 0.0), "s"),
        "core.self_s": (self_s.get("core", 0.0), "s"),
        "tf.self_s": (self_s.get("tf", 0.0), "s"),
        "tf.fft_calls": (fft["tf_calls"], "count"),
        "tf.fft_rows": (fft["tf_rows"], "count"),
        "tf.stft.out_mib": (s["stft_max_bytes"] / 2 ** 20, "MiB"),
    }
    for fn in TF_NORMS:
        m[f"tf.{fn}.calls"] = (calls.get(f"tf.{fn}", 0), "count")
        m[f"tf.{fn}.s"] = (incl.get(f"tf.{fn}", 0.0), "s")
    m["mult.self_s"] = (self_s.get("mult", 0.0), "s")
    for fn in MULT_FNS:
        m[f"mult.{fn}.calls"] = (calls.get(f"mult.{fn}", 0), "count")
        m[f"mult.{fn}.s"] = (incl.get(f"mult.{fn}", 0.0), "s")
    m["verify.self_s"] = (self_s.get("verify", 0.0), "s")
    for fn in VERIFY_FNS:
        m[f"verify.{fn}.s"] = (incl.get(f"verify.{fn}", 0.0), "s")
    m["cli.self_s"] = (self_s.get("cli", 0.0), "s")
    m["cli.emit.s"] = (incl.get("cli.emit_csv", 0.0) + incl.get("cli.emit_svg", 0.0), "s")
    for name in workloads.SUITE_1D:
        m[f"cli.exp.{name}.s"] = (incl.get(f"cli.exp.{name}", 0.0), "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def machine_record() -> dict:
    rec = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            rec["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), None)
    except OSError:
        rec["cpu"] = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                rec[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    rec["commit"] = None  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            rec["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    rec["scipy_installed"] = importlib.util.find_spec("scipy") is not None
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "tfmult" / "cli.py").is_file():
        print(f"error: no tfmult package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SystemExit unwinds subprocess.run, which kills and waits for the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        return measure(args, tmp, deadline)
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass


def measure(args, tmp: Path, deadline: float) -> int:
    setup = [] if args.trace else measure_setup(deadline)

    runs = []  # (result, outputs) per iteration, the traced one last
    start = time.monotonic()
    while not runs or time.monotonic() - start < args.seconds:
        runs.append(run_iteration(tmp, args, len(runs), False, deadline)[:2])
    if not args.trace:
        # import time drifts over seconds; sample it at both ends of the run
        setup += measure_setup(deadline)
    iterations = [result for result, _ in runs]
    wall = statistics.median(r["wall_s"] for r in iterations)
    if args.trace:
        traced, outputs, spans = run_iteration(tmp, args, len(runs), True, deadline)
        runs.append((traced, outputs))

    consistent = all(outputs == runs[0][1] for _, outputs in runs)
    attempted = sum(len(result["exit_codes"]) for result, _ in runs)
    checks = [check_outputs(result, outputs) for result, outputs in runs]
    failed = sum(f for f, _ in checks)
    devs = [d for _, ds in checks for d in ds]

    if args.trace:
        metrics = per_layer_metrics(spans, traced["wall_s"], wall)
    else:
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in iterations),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in iterations),
            "setup_s": statistics.median(setup),
            "oracle_dev_max": max(devs, default=0.0),
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    correct = failed == 0 and consistent and bool(devs)
    record = machine_record()
    record["numpy"] = iterations[0]["numpy"]
    record["scipy_imported_by_tfmult"] = any(r["scipy_imported"] for r in iterations)
    print("machine: " + json.dumps(record))
    print(f"workload {args.workload}: seed {args.seed}, {len(iterations)} untraced "
          f"iteration(s){' + 1 traced' if args.trace else ''}, "
          f"{len(setup)} set-up sample(s); medians over samples")
    print("  iteration wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in iterations))
    print(f"  failed_share {failed / attempted:.6g} ({failed} of {attempted} experiments)")
    if not consistent:
        print("  outputs differ between iterations", file=sys.stderr)
    if not devs:
        print("  no oracle rows found", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
