"""Outside-in tracing of cmereg: wrap every public function of its working modules.

Tracer.install() replaces each public function and public method defined in
the modules below by a wrapper, at every place the function is bound: the
defining module, every cmereg module that imported it by name, and
module-level dicts such as cli.COMMANDS. Each call records a span
(run id, span id, parent span id, name, start, end) in memory; write()
dumps them as JSON Lines. A few functions also record a count read from
their return value or exception (PROBES). summarize() turns a trace file
into per-name calls, total time and self time, where self time is a span's
duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# `errors` is left out: it defines exception classes and does no work.
MODULES = ("kernels", "linalg", "embedding", "sparse", "lowrank", "ratecheck", "pendulum", "cli")


def _fista_probe(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"iterations": result.iterations,
            "capped": int(result.iterations >= bound.arguments["max_iter"])}


def _write_csv_probe(fn, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


PROBES = {
    "linalg.solve_spd": lambda fn, args, kwargs, result: {"residual": result.residual_norm},
    "sparse.fista_solve": _fista_probe,
    "pendulum.policy_iteration": lambda fn, args, kwargs, result: {"sweeps": len(result.sweep_deltas)},
    "pendulum.evaluate_policy": lambda fn, args, kwargs, result: {"policy": type(args[0]).__name__},
    "cli.write_csv": _write_csv_probe,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, parent id, name, start, end, attrs or None)
        self._stack = [None]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[sid] = (sid, parent, name, start, clock(), {"error": type(exc).__name__})
                raise
            finally:
                stack.pop()
            end = clock()
            spans[sid] = (sid, parent, name, start, end,
                          probe(fn, args, kwargs, result) if probe else None)
            return result

        return traced

    def install(self):
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"cmereg.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            setattr(obj, meth_name, self.wrap(f"{short}.{attr}.{meth_name}", meth))
        for name, mod in list(sys.modules.items()):
            if name != "cmereg" and not name.startswith("cmereg."):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is None:
                    continue
                sid, parent, name, start, end, attrs = span
                record = {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                          "start": start, "end": end}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record) + "\n")


def summarize(path: str) -> dict:
    """name -> {"calls", "total_s", "self_s", "attrs"}; "attrs" lists the attrs of each
    span that has them, with the span's duration added as "duration_s"."""
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[(s["run"], s["parent"])] += s["end"] - s["start"]
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": []})
    for s in spans:
        duration = s["end"] - s["start"]
        entry = out[s["name"]]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered[(s["run"], s["id"])]
        if "attrs" in s:
            entry["attrs"].append(dict(s["attrs"], duration_s=duration))
    return dict(out)
