"""Outside-in span tracer for the tfmult layers.

The tracer wraps every public function of ``tfmult.core``, ``tf``, ``mult``,
``verify`` and ``cli`` at every binding that refers to it: the defining
module, every module that imported it by name (``tf`` imports
``centered_fft``, ``verify`` imports the ``tf`` norms, ...), the package
namespace, and the runner objects held in ``cli.EXPERIMENTS``.  Patching only
the defining module would miss every call made through an imported name.

Nothing under ``src/`` is edited.  Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

LAYERS = ("core", "tf", "mult", "verify", "cli")


def _fft_shape(args, kwargs, result):
    """(rows, points per transform) of a ``centered_fft(a, d, dx)`` call."""
    a = args[0] if args else kwargs["a"]
    d = args[1] if len(args) > 1 else kwargs["d"]
    n = 1
    for s in a.shape[a.ndim - d:]:
        n *= int(s)
    return a.size // n, n


def _stft_bytes(args, kwargs, result):
    return int(result.values.nbytes)


# extra facts recorded on a span: name -> fn(args, kwargs, result)
_PROBES = {
    "core.centered_fft": _fft_shape,
    "tf.stft": _stft_bytes,
}


class Tracer:
    """Records one span per call into a wrapped function.

    A span is ``(span_id, parent_id, name, start_ns, end_ns, extra)``;
    ``parent_id`` is -1 for a root span.  Every span of one tracer carries
    the tracer's ``run_id`` when written out.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._restore = []  # (setter, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = probe(args, kwargs, result) if probe and result is not None else None
                spans[sid] = (sid, parent, name, start, end, extra)

        return traced

    def install(self) -> None:
        package = importlib.import_module("tfmult")
        modules = {layer: importlib.import_module(f"tfmult.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        experiments = modules["cli"].EXPERIMENTS
        for exp, runner in experiments.items():
            wrappers.setdefault(id(runner), self._wrap(f"cli.exp.{exp}", runner))

        for ns in (*modules.values(), package):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._restore.append((functools.partial(setattr, ns, attr), obj))
                    setattr(ns, attr, wrappers[id(obj)])
        for exp, runner in list(experiments.items()):
            self._restore.append((functools.partial(experiments.__setitem__, exp), runner))
            experiments[exp] = wrappers[id(runner)]

    def uninstall(self) -> None:
        for setter, original in reversed(self._restore):
            setter(original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, extra in self.spans:
                fh.write(json.dumps({
                    "run_id": self.run_id, "id": sid, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "extra": extra,
                }) + "\n")


def load_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> dict:
    """Aggregate spans into per-function and per-layer figures.

    Returns ``calls[name]``, inclusive seconds ``incl_s[name]`` (calls nested
    in a call of the same function counted once), ``self_s[layer]`` (span
    time minus the time of direct child spans, summed over the layer's
    spans), and the FFT work counters of ``core.centered_fft``.
    """
    by_id = {s["id"]: s for s in spans}
    calls = defaultdict(int)
    incl_ns = defaultdict(int)
    self_ns = defaultdict(int)
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    fft = {"rows": 0, "points": 0, "flop": 0.0, "tf_calls": 0, "tf_rows": 0}
    stft_bytes = 0
    for s in spans:
        name, dur = s["name"], s["end_ns"] - s["start_ns"]
        calls[name] += 1
        self_ns[_layer(name)] += dur - child_ns[s["id"]]
        p = s["parent"]
        while p >= 0 and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p < 0:
            incl_ns[name] += dur
        if name == "core.centered_fft" and s["extra"]:
            rows, n = s["extra"]
            fft["rows"] += rows
            fft["points"] += rows * n
            fft["flop"] += rows * 5.0 * n * math.log2(n)
            if s["parent"] >= 0 and _layer(by_id[s["parent"]]["name"]) == "tf":
                fft["tf_calls"] += 1
                fft["tf_rows"] += rows
        elif name == "tf.stft" and s["extra"]:
            stft_bytes = max(stft_bytes, s["extra"])
    return {
        "calls": dict(calls),
        "incl_s": {k: v / 1e9 for k, v in incl_ns.items()},
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "fft": fft,
        "stft_max_bytes": stft_bytes,
    }

