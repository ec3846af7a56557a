"""The benchmark recorder records each side under the HEAD its files match."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RECORDER = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


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
