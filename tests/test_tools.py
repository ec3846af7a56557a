"""The benchmark recorder records each side under the HEAD its files match; the output
comparison runs its non-default configs and fails on any stderr output; the
benchmark's fast self-checks pass against the package."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
RECORDER = TOOLS / "bench_record.py"


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                   cwd=repo, check=True, capture_output=True)


def _checkout(path: Path) -> Path:
    """A throwaway git repository whose bench/run.py leaves bench/started when it runs."""
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(
        "from pathlib import Path\nPath(__file__).with_name('started').touch()\n")
    (path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    _git(path, "init", "-q")
    _git(path, "add", "-A")
    _git(path, "commit", "-q", "-m", "seed")
    return path


def _record(tmp_path, sides):
    return subprocess.run([sys.executable, str(RECORDER), str(sides["parent"]),
                           str(sides["change"]), "--out", str(tmp_path / "bench.json"),
                           "--pairs", "1"], capture_output=True, text=True)


@pytest.mark.parametrize("dirty", ["parent", "change"])
def test_refuses_a_checkout_with_edited_tracked_files(tmp_path, dirty):
    # the edits were recorded under the HEAD that bench/run.py reads
    sides = {side: _checkout(tmp_path / side) for side in ("parent", "change")}
    with open(sides[dirty] / "bench" / "run.py", "a") as fh:
        fh.write("# edited\n")
    done = _record(tmp_path, sides)
    assert done.returncode == 2
    assert f"error: the {dirty} checkout {sides[dirty]} is not a clean" in done.stderr
    assert "bench/run.py" in done.stderr
    assert not any((path / "bench" / "started").exists() for path in sides.values())
    assert not (tmp_path / "bench.json").exists()


def test_untracked_files_do_not_count(tmp_path):
    sides = {side: _checkout(tmp_path / side) for side in ("parent", "change")}
    (sides["change"] / "notes.txt").write_text("not tracked\n")
    done = _record(tmp_path, sides)
    # the stand-in run.py prints no result, so the recording itself fails
    assert done.returncode == 1
    assert all((path / "bench" / "started").exists() for path in sides.values())


# a stand-in tfmult.cli: one experiment whose run writes one file, and a
# warning on stderr from run when WARN is true
_FAKE_CLI = """import os, sys
from pathlib import Path
WARN = {warn}
if sys.argv[1] == "list":
    print("exp")
elif sys.argv[1] == "run":
    Path(os.environ["TFMULT_OUT"], "results.csv").write_text("x\\n")
    if WARN:
        print("RuntimeWarning: overflow encountered in multiply", file=sys.stderr)
"""


def _fake_package(path: Path, warn: bool) -> Path:
    (path / "src" / "tfmult").mkdir(parents=True)
    (path / "src" / "tfmult" / "__init__.py").write_text("")
    (path / "src" / "tfmult" / "cli.py").write_text(_FAKE_CLI.format(warn=warn))
    return path


@pytest.mark.parametrize("warns", [None, "parent", "change"])
def test_compare_outputs_fails_on_stderr(tmp_path, warns):
    sides = [_fake_package(tmp_path / side, side == warns) for side in ("parent", "change")]
    done = subprocess.run([sys.executable, str(TOOLS / "compare_outputs.py"), *map(str, sides)],
                          capture_output=True, text=True)
    assert "identical        exp/results.csv" in done.stdout
    # every fixed extra config is run and compared too
    extras = runpy.run_path(str(TOOLS / "compare_outputs.py"))["EXTRA_CONFIGS"]
    assert len(extras) == 28
    for label, _, _ in extras:
        assert f"identical        {label}/results.csv" in done.stdout
    if warns is None:
        assert done.returncode == 0 and "all identical" in done.stdout
    else:
        assert done.returncode == 1 and "DIFFERENCES FOUND" in done.stdout
        assert f"stderr  {warns}: run exp\nRuntimeWarning: overflow" in done.stdout


_SOURCE = '''"""Module docstring,
over two lines."""
# a comment line

import math  # code with a trailing comment


class Box:
    """Class docstring."""

    side = 1


def area(box):
    """Function docstring,

    over three lines."""
    text = """a string that
    is no docstring"""
    return (box.side
            * box.side)
'''


def test_count_lines_counts_code_not_blanks_comments_or_docstrings(tmp_path):
    counter = runpy.run_path(str(TOOLS / "count_lines.py"))
    # import, class, side, def, the two lines of text and the two of return
    assert counter["count_code_lines"](_SOURCE) == 8
    path = tmp_path / "box.py"
    path.write_text(_SOURCE)
    done = subprocess.run([sys.executable, str(TOOLS / "count_lines.py"), str(path)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["box", "8", "total", "8"]


def test_benchmark_self_checks_pass():
    # the calls the benchmark makes into the package (its tracer's bindings,
    # modulation_norm(..., refine=False)); the two traced workloads stay out
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "bench/check_trace.py", "-k", "not tf_parented"],
                          cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
