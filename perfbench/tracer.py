"""Spans around recalib's public functions, installed from outside the package.

``Tracer.install`` replaces every binding of each traced function with a
wrapper: the binding in the module that defines it and every binding in a
recalib module that imported it (``experiments.fit_recalibrator``,
``cli.apply_recalibrator``, ``oracle.apply``, ...), so no call escapes the
trace. ``uninstall`` puts the originals back. Each wrapped call records one
span: name, start, end, parent span, op id, the number of input points (or
bins, bytes, scanned B values) and whether an exception escaped it. Spans
live in flat arrays in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from time import perf_counter

import numpy as np


def _piecewise_bins(h) -> float:
    inner = getattr(h, "inner", h)
    scheme = getattr(inner, "scheme", None)
    return float(scheme.B) if scheme is not None else 1.0


# (module, attribute path, span name, points per call or None): the entry
# points each workload reaches, so every op is covered by layer spans. The
# rest (sigmoid, logit and interval_mass per quadrature node, model I/O,
# ...) stays unwrapped: its time counts as self time of the caller.
TRACED = (
    ("core", "LabeledSample.__post_init__", "core.LabeledSample", None),
    ("core", "umb_fit", "core.umb_fit", lambda a, k: float(len(a[0]))),
    ("core", "fit_recalibrator", "core.fit_recalibrator", lambda a, k: float(a[0].n)),
    ("core", "apply", "core.apply", None),
    ("core", "apply_batch", "core.apply_batch", lambda a, k: float(len(a[1]))),
    ("core", "estimate_weights", "core.estimate_weights", None),
    ("core", "Composite.flatten", "core.flatten", None),
    ("bounds", "optimal_bins", "bounds.optimal_bins", lambda a, k: float(max(int(a[0]) // 2 - 1, 0))),
    ("bounds", "risk_bound_report", "bounds.risk_bound_report", None),
    ("oracle", "sample", "oracle.sample", lambda a, k: float(a[1])),
    ("oracle", "population_risk", "oracle.population_risk", lambda a, k: _piecewise_bins(a[1])),
    ("oracle", "_quad", "oracle.quad", None),
    ("oracle", "estimate_K", "oracle.estimate_K", None),
    ("oracle", "empirical_risk_plugin", "oracle.empirical_risk_plugin", lambda a, k: float(a[0].n)),
    ("experiments", "run_risk_grid", "experiments.run_risk_grid", None),
    ("experiments", "run_label_shift", "experiments.run_label_shift", None),
    ("experiments", "run_optimal_B", "experiments.run_optimal_B", None),
    ("experiments", "write_risk_grid_csv", "experiments.write_risk_grid_csv", None),
    ("experiments", "write_manifest", "experiments.write_manifest", None),
    ("fileio", "write_text_atomic", "fileio.write_text_atomic", lambda a, k: float(len(a[1]))),
)

CLI_COMMANDS = ("fit", "apply", "shift", "bound", "optbins", "simulate")

_COLUMNS = (("name", "i"), ("parent", "i"), ("op", "i"),
            ("start", "d"), ("end", "d"), ("points", "d"), ("failed", "b"))


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {key: array(code) for key, code in _COLUMNS}
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, points: float, start: float) -> int:
        c = self.cols
        i = len(c["start"])
        c["name"].append(nid)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["op"].append(self.op)
        c["start"].append(start)
        c["end"].append(start)
        c["points"].append(points)
        c["failed"].append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int, failed: bool) -> None:
        self.cols["end"][i] = perf_counter()
        if failed:
            self.cols["failed"][i] = 1
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, start: float | None = None):
        """A span around a block; ``start`` backdates it (process start-up)."""
        i = self._open(self._id(name), 0.0, perf_counter() if start is None else start)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(i, failed)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished span measured elsewhere (child start-up)."""
        i = self._open(self._id(name), 0.0, start)
        self.cols["end"][i] = end
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def _wrap(self, name: str, fn, points):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(nid, points(args, kwargs) if points else 0.0, perf_counter())
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer._close(i, failed)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function at every binding in loaded recalib modules."""
        if self._patches:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "recalib" or key.startswith("recalib."))]
        for mod_name, path, name, points in TRACED:
            owner = sys.modules.get(f"recalib.{mod_name}")
            if owner is None:
                continue
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, points)
            if classes:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)
        cli = sys.modules.get("recalib.cli")
        if cli is not None:
            for cmd in CLI_COMMANDS:
                command = cli.main.commands[cmd]
                self._patch(command, "callback", self._wrap(f"cli.{cmd}", command.callback, None))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def arrays(self) -> dict:
        out = {key: np.frombuffer(col, dtype=col.typecode).copy() if len(col) else
               np.zeros(0, dtype=col.typecode) for key, col in self.cols.items()}
        out["failed"] = out["failed"].astype(bool)
        return out

    def dump(self, path: str) -> None:
        """Write all spans and counters to an .npz file."""
        cols = self.arrays()
        np.savez(path, names=np.array(self.names, dtype=str),
                 counter_names=np.array(list(self.counters), dtype=str),
                 counter_values=np.array(list(self.counters.values()), dtype=np.float64),
                 **cols)

    def merge(self, path: str) -> None:
        """Append the spans and counters another process dumped."""
        with np.load(path) as f:
            remap = np.array([self._id(str(n)) for n in f["names"]], dtype=np.int64)
            offset = len(self.cols["start"])
            parent = f["parent"].astype(np.int64)
            self.cols["name"].extend(remap[f["name"]].tolist())
            self.cols["parent"].extend(np.where(parent >= 0, parent + offset, -1).tolist())
            self.cols["op"].extend(f["op"].tolist())
            for key in ("start", "end", "points"):
                self.cols[key].extend(f[key].tolist())
            self.cols["failed"].extend(f["failed"].astype(np.int8).tolist())
            for name, value in zip(f["counter_names"], f["counter_values"]):
                self.count(str(name), float(value))


def summarize(tracer: Tracer) -> tuple[dict, dict]:
    """Per-name span statistics and per-op covered time.

    Returns ``(stats, covered)``. ``stats[name]`` holds calls, s (inclusive
    time of outermost calls, so recursion is not counted twice), self_s
    (time not covered by child spans), points (of outermost calls) and
    failed (exceptions escaping into another module or out of the run).
    ``covered[op]`` is the summed time of root spans in that op, which
    equals the summed self time of every span in it.
    """
    c = tracer.arrays()
    n = len(c["start"])
    names = tracer.names
    if n == 0:
        return {}, {}
    name = c["name"].astype(np.int64)
    parent = c["parent"].astype(np.int64)
    dur = c["end"] - c["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time
    prefixes = [x.split(".")[0] for x in names]
    mod_id = {m: j for j, m in enumerate(sorted(set(prefixes)))}
    module = np.array([mod_id[m] for m in prefixes], dtype=np.int64)
    pname = np.where(has_parent, name[np.clip(parent, 0, None)], -1)
    outer = pname != name
    pmod = np.where(has_parent, module[np.clip(pname, 0, None)], -1)
    escaped = c["failed"] & (pmod != module[name])
    k = len(names)
    calls = np.bincount(name, minlength=k)
    s = np.bincount(name, weights=dur * outer, minlength=k)
    self_s = np.bincount(name, weights=self_time, minlength=k)
    points = np.bincount(name, weights=c["points"] * outer, minlength=k)
    failed = np.bincount(name, weights=escaped.astype(np.float64), minlength=k)
    stats = {names[j]: {"calls": int(calls[j]), "s": float(s[j]), "self_s": float(self_s[j]),
                        "points": float(points[j]), "failed": int(failed[j])}
             for j in range(k)}
    roots = ~has_parent
    covered: dict[int, float] = {}
    for op, d in zip(c["op"][roots].tolist(), dur[roots].tolist()):
        covered[op] = covered.get(op, 0.0) + d
    return stats, covered
