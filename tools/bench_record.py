"""Record alternating parent/change runs of the benchmark into one JSON file.

    python3 tools/bench_record.py PARENT CHANGE --out BENCH_6.json \\
        --pairs 10 --first-seed 600

PARENT and CHANGE are two checkouts of this repository.  The workloads
(every one, or those given with ``--workload``) and the run length T come
from the change's ``BENCHMARK.json``.  For each workload, pair i runs
``python3 <side>/bench/run.py --workload W --seed S --seconds T --trace 0``
once per side, with seed S = first-seed + i; even pairs run the parent
first, odd pairs the change first, so a drift of the machine's speed over
minutes falls on both sides alike.  Each run's final JSON line (the line
``bench/run.py`` ends with) and its ``machine:`` record are kept.  One
``--trace 1`` run per side and workload follows the pairs, for the
per-layer metrics.

The file holds the machine record, the command, every pair, and per metric
and side the median and quartiles (``statistics.quantiles``, inclusive
method) plus the number of pairs the change won (ties count for neither
side; "better" comes from the change's ``BENCHMARK.json``).  It is rewritten
after every run, so an interrupted recording keeps the pairs done so far.
The last stdout lines give, per workload and metric, both medians, their
ratio and the change's wins.  Exit 1 when any run is not correct or exits
non-zero.

Each side's ``commit`` is the HEAD that ``bench/run.py`` reads, so a side
with uncommitted edits to tracked files would be recorded under a commit
it does not match: before the first run, a side whose
``git status --porcelain --untracked-files=no`` is not empty (or fails)
ends the recording with exit 2, naming the side and its files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _run(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run: its final JSON line, machine record and exit code."""
    cmd = [sys.executable, str(side / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    machine = next((json.loads(ln.split(":", 1)[1]) for ln in lines
                    if ln.startswith("machine: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stderr)
    return {"seed": seed, "exit_code": done.returncode, "machine": machine,
            "result": result}


def _dirty(side: Path) -> str:
    """``side``'s edited tracked files, or git's error when it cannot read them; "" when clean."""
    done = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=side,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else done.stderr.strip()


def _summary(pairs: list, better: dict) -> dict:
    """Per metric: median and quartiles of each side, and the change's wins."""
    out = {}
    for name, direction in better.items():
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs
                         if p[side]["result"]] for side in ("parent", "change")}
        if not all(values.values()):
            continue
        entry = {}
        for side, vals in values.items():
            q1, med, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                           if len(vals) > 1 else (vals[0],) * 3)
            entry[side] = {"median": med, "q1": q1, "q3": q3, "n": len(vals)}
        wins = 0
        for p in pairs:
            if p["parent"]["result"] and p["change"]["result"]:
                a = p["parent"]["result"]["metrics"][name]["value"]
                b = p["change"]["result"]["metrics"][name]["value"]
                wins += (b < a) if direction == "lower" else (b > a)
        entry["change_wins"] = wins
        entry["ratio_of_medians"] = (entry["change"]["median"] / entry["parent"]["median"]
                                     if entry["parent"]["median"] else None)
        out[name] = entry
    return out


def _summary_lines(record: dict) -> list:
    """One line per workload and metric: both medians, their ratio, the change's wins."""
    lines = []
    for workload, entry in record["workloads"].items():
        for name, m in entry["summary"].items():
            ratio = m["ratio_of_medians"]
            lines.append(f"{workload} {name}: parent {m['parent']['median']:.6g}, "
                         f"change {m['change']['median']:.6g}, ratio "
                         f"{'-' if ratio is None else format(ratio, '.4f')}, change won "
                         f"{m['change_wins']}/{len(entry['pairs'])}")
    return lines


def _ok(run: dict) -> bool:
    return run["exit_code"] == 0 and bool(run["result"]) and run["result"]["correct"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        dirty = _dirty(path)
        if dirty:
            sys.stderr.write(f"error: the {side} checkout {path} is not a clean git "
                             f"checkout; commit or discard its changes first:\n{dirty}\n")
            return 2
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    record = {"command": ["python3", "bench/run.py", "--seconds", str(seconds),
                          "--trace", "0"],
              "machine": None, "commits": {}, "workloads": {}}
    ok = True

    def save():
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for workload in workloads:
        entry = record["workloads"][workload] = {"pairs": [], "summary": {}, "traced": {}}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = _run(sides[side], workload, seed, seconds, 0)
                ok = ok and _ok(run)
                machine = run.pop("machine") or {}
                record["commits"][side] = machine.pop("commit", None)
                record["machine"] = record["machine"] or machine
                pair[side] = run
                print(f"{workload} pair {i} {side}: "
                      f"{json.dumps(run['result']['metrics'] if run['result'] else None)}",
                      flush=True)
            entry["pairs"].append(pair)
            entry["summary"] = _summary(entry["pairs"], better)
            save()
        for side in ("parent", "change"):
            run = _run(sides[side], workload, args.first_seed, seconds, 1)
            ok = ok and _ok(run)
            run.pop("machine")
            entry["traced"][side] = run
            save()
    print("\n".join(_summary_lines(record)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
