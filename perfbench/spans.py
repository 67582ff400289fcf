"""Span recorder for the traced run, installed around the library's public callables.

A span holds a name, start, end, parent span and the benchmark op it belongs
to. Spans stay in compact in-memory arrays and are written out once, at the
end of the run. A span's self time is its duration minus the durations of its
child spans.

Layers are the library's modules. A call gets its own span when it crosses
into a layer from another one; a call made inside the same layer (``cdf``
called by ``quantile``, ``log_survival`` called by ``PowerBurr.survival``) is
only counted, under the span that is open, so a layer's self time is all the
work done in that module. Entry points wrapped with ``always=True`` get a span
even when called from their own layer, so that ``search`` and
``check_theorem``, or ``main`` and ``load_scenario``, are timed apart.

Two binding details matter:

* ``theorems`` and ``cli`` import ``check_*``, ``verify_example``,
  ``search_counterexamples``, ``load_scenario`` and the majorization helpers by
  name, so the wrapper is bound in the calling module as well.
* ``MixtureModel`` and the baselines are wrapped at class level, so that
  ``quantile``'s internal ``self.cdf`` calls go through the wrapper.
"""

from __future__ import annotations

import functools
import os
import re
import time
import warnings
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

_DROPPED = re.compile(r"^(\d+) grid points dropped")
_INCONCLUSIVE_ERRORS = ("TailError", "InfiniteMeanSuspected")


class Recorder:
    """In-memory span store plus counters kept at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[tuple[int, str]] = []  # (span index, layer) of open spans
        self.current_op = -1
        self.counts: defaultdict = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, always: bool = False, hook=None):
        """Wrap ``fn`` in span ``name``; its layer is the first dotted part of the name."""
        layer = name.split(".", 1)[0]
        nid = self.name(name)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec.stack
            if not always and stack and stack[-1][1] == layer:
                rec.counts[(rec.name_id[stack[-1][0]], nid)] += 1
                return fn(*args, **kwargs)
            idx = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(stack[-1][0] if stack else -1)
            rec.op.append(rec.current_op)
            rec.start.append(0.0)
            rec.end.append(0.0)
            stack.append((idx, layer))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.counts[("error", nid, type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                rec.start[idx] = t0
                rec.end[idx] = t1
            if hook is not None:
                hook(rec, args, result)
            return result

        return traced

    def call_op(self, index: int, fn):
        """Run one benchmark op inside a ``bench.op`` span."""
        self.current_op = index
        return self.wrap(fn, "bench.op", always=True)()

    def patch(self, owners, attr: str, name: str, always: bool = False, hook=None, wrapped=None):
        """Replace ``attr`` on every owner (module or class) with one traced wrapper."""
        original = getattr(owners[0], attr)
        traced = self.wrap(wrapped or original, name, always, hook)
        for owner in owners:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans, inclusive seconds and self seconds."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        selft = dur - child
        calls = np.bincount(a["name"], minlength=n_names)
        incl = np.bincount(a["name"], weights=dur, minlength=n_names)
        own = np.bincount(a["name"], weights=selft, minlength=n_names)
        return {
            name: {"calls": float(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }


# -- installation -------------------------------------------------------------------


def install(rec: Recorder, lib) -> None:
    """Wrap the public callables of every module the workloads reach."""
    b, mx, mj, od, th, cl = lib.baseline, lib.mixture, lib.majorization, lib.orders, lib.theorems, lib.cli

    def points(key):
        def hook(r, args, result):
            r.counts[key] += np.size(args[1])
        return hook

    for cls in (b.Exponential, b.PowerBurr):
        for meth in ("survival", "log_survival", "density", "hazard", "inverse_survival"):
            rec.patch([cls], meth, f"baseline.{meth}", hook=points("baseline.points"))

    for meth in ("survival", "cdf", "density", "hazard"):
        rec.patch([mx.MixtureModel], meth, f"mixture.eval.{meth}", hook=points("mixture.eval.points"))
    rec.patch([mx.MixtureModel], "quantile", "mixture.quantile", always=True)

    sample = mx.MixtureModel.sample

    def counting_warnings(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = sample(*args, **kwargs)
        rec.counts["mixture.sample.warnings"] += len(caught)
        return result

    def sample_hook(r, args, result):
        r.counts["mixture.sample.draws"] += np.size(result)
        r.counts["mixture.sample.nonfinite"] += int(np.sum(~np.isfinite(result)))

    rec.patch([mx.MixtureModel], "sample", "mixture.sample", always=True,
              hook=sample_hook, wrapped=functools.wraps(sample)(counting_warnings))

    for fn in mj.__all__:
        if callable(getattr(mj, fn)) and not isinstance(getattr(mj, fn), type):
            owners = [mj] + [m for m in (th, cl) if getattr(m, fn, None) is getattr(mj, fn)]
            rec.patch(owners, fn, f"majorization.{fn}")

    def verdict_hook(r, args, v):
        r.counts["orders.inconclusive"] += bool(v.inconclusive)
        for note in v.notes:
            m = _DROPPED.match(note)
            if m:
                r.counts["orders.star.dropped_points"] += int(m.group(1))

    for order in ("st", "hr", "star", "lorenz"):
        fn = f"check_{order}"
        owners = [od] + [m for m in (th, cl) if getattr(m, fn, None) is getattr(od, fn)]
        rec.patch(owners, fn, f"orders.{order}", always=True, hook=verdict_hook)

    rec.patch([th], "check_theorem", "theorems.check_theorem", always=True)
    rec.patch([th, cl], "verify_example", "theorems.verify_example", always=True)

    def findings_hook(r, args, result):
        r.counts["theorems.findings"] += len(result)

    rec.patch([th, cl], "search_counterexamples", "theorems.search", always=True, hook=findings_hook)

    rec.patch([cl], "main", "cli.main", always=True)
    rec.patch([cl], "load_scenario", "cli.load_scenario", always=True)
    atomic_write = cl._atomic_write

    def counting_write(path, text):
        atomic_write(path, text)
        rec.counts["cli.bytes_written"] += os.path.getsize(path)

    rec._patched.append((cl, "_atomic_write", atomic_write))
    cl._atomic_write = counting_write


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(rec: Recorder, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer counts and self times, per pass of the workload's op list."""
    tot = rec.totals()
    zero = {"calls": 0.0, "incl_s": 0.0, "self_s": 0.0}

    def get(name):
        return tot.get(name, zero)

    def prefix(p, field):
        return sum(v[field] for k, v in tot.items() if k.startswith(p))

    def inner(outer, name):
        if outer not in rec._ids or name not in rec._ids:
            return 0.0
        return rec.counts.get((rec._ids[outer], rec._ids[name]), 0.0)

    def errors(name, classes):
        if name not in rec._ids:
            return 0.0
        nid = rec._ids[name]
        return sum(rec.counts.get(("error", nid, c), 0.0) for c in classes)

    q = get("mixture.quantile")
    draws = rec.counts["mixture.sample.draws"]
    order_calls = sum(get(f"orders.{o}")["calls"] for o in ("st", "hr", "star", "lorenz"))
    order_inconclusive = rec.counts["orders.inconclusive"] + sum(
        errors(f"orders.{o}", _INCONCLUSIVE_ERRORS) for o in ("st", "hr", "star", "lorenz")
    )
    op_s = get("bench.op")["incl_s"]
    per = 1.0 / passes
    m: dict[str, tuple[float, str]] = {
        "baseline.calls": (prefix("baseline.", "calls") * per, "count"),
        "baseline.points": (rec.counts["baseline.points"] * per, "count"),
        "baseline.self_s": (prefix("baseline.", "self_s") * per, "s"),
        "mixture.quantile.calls": (q["calls"] * per, "count"),
        "mixture.quantile.cdf_per_call": (
            inner("mixture.quantile", "mixture.eval.cdf") / q["calls"] if q["calls"] else 0.0, "count"),
        "mixture.quantile.self_s": (q["self_s"] * per, "s"),
        "mixture.quantile.tail_errors": (errors("mixture.quantile", ("TailError",)) * per, "count"),
        "mixture.quantile.incl_frac": (q["incl_s"] / op_s if op_s else 0.0, "ratio"),
        "mixture.eval.calls": (prefix("mixture.eval.", "calls") * per, "count"),
        "mixture.eval.points": (rec.counts["mixture.eval.points"] * per, "count"),
        "mixture.eval.self_s": (prefix("mixture.eval.", "self_s") * per, "s"),
        "mixture.sample.draws": (draws * per, "count"),
        "mixture.sample.self_s": (get("mixture.sample")["self_s"] * per, "s"),
        "mixture.sample.nonfinite_frac": (
            rec.counts["mixture.sample.nonfinite"] / draws if draws else 0.0, "ratio"),
        "mixture.sample.warnings": (rec.counts["mixture.sample.warnings"] * per, "count"),
        "majorization.calls": (prefix("majorization.", "calls") * per, "count"),
        "majorization.self_s": (prefix("majorization.", "self_s") * per, "s"),
    }
    for o in ("st", "hr", "star", "lorenz"):
        m[f"orders.{o}.calls"] = (get(f"orders.{o}")["calls"] * per, "count")
        m[f"orders.{o}.self_s"] = (get(f"orders.{o}")["self_s"] * per, "s")
    m["orders.star.dropped_points"] = (rec.counts["orders.star.dropped_points"] * per, "count")
    m["orders.inconclusive_frac"] = (order_inconclusive / order_calls if order_calls else 0.0, "ratio")
    m.update({
        "theorems.check_theorem.calls": (get("theorems.check_theorem")["calls"] * per, "count"),
        "theorems.check_theorem.self_s": (get("theorems.check_theorem")["self_s"] * per, "s"),
        "theorems.search.self_s": (get("theorems.search")["self_s"] * per, "s"),
        "theorems.findings": (rec.counts["theorems.findings"] * per, "count"),
        "cli.main.calls": (get("cli.main")["calls"] * per, "count"),
        "cli.self_s": (get("cli.main")["self_s"] * per, "s"),
        "cli.load_scenario.self_s": (get("cli.load_scenario")["self_s"] * per, "s"),
        "cli.bytes_written": (rec.counts["cli.bytes_written"] * per, "bytes"),
        "bench.self_s": (get("bench.op")["self_s"] * per, "s"),
        "trace.spans": (len(rec.start) * per, "count"),
    })
    return m
