"""Outside-in tracer: spans around calls into lqgkit's public functions.

The tracer never edits lqgkit.  `install` replaces, in every loaded lqgkit
module, each module attribute that refers to a traced function (for example
`lqgkit.harness.filter_update`, `lqgkit.lqr.dre_step`,
`lqgkit.estimation.solve_spd`), so every call site that looks the function up
through its module's globals goes through the wrapper; `uninstall` puts the
originals back.

Each call becomes one span: name, start, end, parent span, op id, an argument
key (for distinct-argument counting) and a value (an iteration or draw
count).  Spans live in compact in-memory arrays and are written out once, at
the end.  A span also records the window its wrapper covered, so tracer
bookkeeping is charged neither to the span nor to its parent's self time.

This module imports only the standard library, so a child process can import
it without moving numpy's import cost into the time it measures.
"""
from __future__ import annotations

import hashlib
import importlib
import math
import sys
from array import array
from time import perf_counter

# (layer, attribute path in lqgkit.<layer>, argument key?, value source).
# harness.sweep and cli.main get no metrics of their own; they are traced so
# that their self time counts toward their layer.
TARGETS = (
    ("harness", "run", False, None),
    ("harness", "sweep", False, None),
    ("model", "validate", True, None),
    ("lqr", "solve_lqr", False, None),
    ("lqr", "solve_dare_lqr", True, "iterations"),
    ("lqr", "dre_step", False, None),
    ("lqr", "settling_report", False, None),
    ("lqr", "evaluate_cost", False, None),
    ("estimation", "predictor_step", False, None),
    ("estimation", "filter_predict", False, None),
    ("estimation", "filter_update", False, None),
    ("estimation", "smoother_run", False, None),
    ("stochastic", "sample_gaussian", False, None),
    ("stochastic", "GaussianStream.standard_normal", False, "count"),
    ("_linalg", "solve_spd", False, None),
    ("_linalg", "psd_factor", True, None),
    ("scenario", "parse_scenario", False, None),
    ("cli", "main", False, None),
)

FIELDS = (("name", "i"), ("op", "i"), ("parent", "q"), ("key", "q"),
          ("start", "d"), ("end", "d"), ("enter", "d"), ("exit", "d"), ("value", "d"))


def _feed(h, obj) -> None:
    """Hash an argument by content: arrays by bytes, objects by their fields."""
    if hasattr(obj, "dtype") and hasattr(obj, "tobytes"):
        h.update(repr((obj.shape, obj.dtype.str)).encode())
        h.update(obj.data if obj.flags.c_contiguous else obj.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif obj is None or isinstance(obj, (bool, int, float, str)):
        h.update(repr(obj).encode())
    else:
        h.update(type(obj).__qualname__.encode())
        _feed(h, sorted(vars(obj).items()))


def argument_key(args, kwargs) -> int:
    h = hashlib.blake2b(digest_size=8)
    _feed(h, args)
    _feed(h, sorted(kwargs.items()))
    return int.from_bytes(h.digest(), "little", signed=True)


def _value(kind, args, result) -> float:
    if kind == "iterations":
        return float(result.iterations)
    if kind == "count":
        return float(args[1])
    return math.nan


class Tracer:
    """Span recorder with install/uninstall of the lqgkit call-site patches."""

    def __init__(self):
        self.names = [f"{layer}.{path.rsplit('.', 1)[-1]}" for layer, path, _, _ in TARGETS]
        self.spans = {field: array(code) for field, code in FIELDS}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ patching

    def _wrap(self, fn, name_id: int, keyed: bool, value_kind):
        s = self.spans
        name, op, parent, key = s["name"], s["op"], s["parent"], s["key"]
        start, end, enter, exit_, value = s["start"], s["end"], s["enter"], s["exit"], s["value"]
        timing = (start, end, enter, exit_, value)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            t_enter = perf_counter()
            idx = len(name)
            name.append(name_id)
            op.append(tracer.op)
            parent.append(stack[-1] if stack else -1)
            key.append(argument_key(args, kwargs) if keyed else -1)
            for col in timing:
                col.append(0.0)
            enter[idx] = t_enter
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if value_kind is not None:
                value[idx] = _value(value_kind, args, result)
            exit_[idx] = perf_counter()
            return result

        traced.__wrapped__ = fn
        return traced

    def _plan(self) -> None:
        owners = [importlib.import_module(f"lqgkit.{layer}") for layer, _, _, _ in TARGETS]
        modules = [m for n, m in sys.modules.items()
                   if (n == "lqgkit" or n.startswith("lqgkit.")) and m is not None]
        for name_id, (owner, (layer, path, keyed, value_kind)) in enumerate(zip(owners, TARGETS)):
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, attr)
                self._patches.append((cls, attr, original,
                                      self._wrap(original, name_id, keyed, value_kind)))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, name_id, keyed, value_kind)
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if obj is original:
                        self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        if not self._patches:
            self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -------------------------------------------------------------- output

    def columns(self) -> dict:
        """Span columns as numpy arrays (numpy is loaded by lqgkit by now)."""
        import numpy as np

        return {f: np.frombuffer(self.spans[f], dtype=_DTYPES[c]).copy() for f, c in FIELDS}


_DTYPES = {"i": "i4", "q": "i8", "d": "f8"}


def merge(parts: list[tuple[int, dict]]) -> dict:
    """Concatenate (op id, span columns) parts recorded by separate processes."""
    import numpy as np

    out = {f: [] for f, _ in FIELDS}
    offset = 0
    for op, cols in parts:
        count = cols["name"].size
        for f, _ in FIELDS:
            col = cols[f]
            if f == "op":
                col = np.full(count, op, dtype=col.dtype)
            elif f == "parent":
                col = np.where(col >= 0, col + offset, -1)
            out[f].append(col)
        offset += count
    return {f: np.concatenate(out[f]) if out[f] else np.zeros(0, _DTYPES[c])
            for f, c in FIELDS}


def summarize(cols: dict, names: list[str], op_wall: dict[int, float]) -> dict:
    """Per-function and per-layer figures over the ops listed in op_wall.

    op_wall maps op id to its wall time in seconds.  A span's self time is
    its duration minus the windows its child spans' wrappers covered; its
    inclusive time excludes the tracer's own work inside it.
    """
    import numpy as np

    parent = cols["parent"].tolist()
    dur = (cols["end"] - cols["start"]).tolist()
    cover = (cols["exit"] - cols["enter"]).tolist()
    self_time = list(dur)
    inner_overhead = [0.0] * len(dur)
    for i in range(len(dur) - 1, -1, -1):   # children come after their parent
        p = parent[i]
        if p >= 0:
            self_time[p] -= cover[i]
            inner_overhead[p] += cover[i] - dur[i] + inner_overhead[i]
    self_time = np.array(self_time)
    inclusive = np.array(dur) - np.array(inner_overhead)

    ops = np.array(sorted(op_wall), dtype=int)
    n_ops = max(len(ops), 1)
    wall = float(sum(op_wall.values())) or 1.0
    kept = np.isin(cols["op"], ops)
    figures: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for name_id, name in enumerate(names):
        layer = name.split(".")[0]
        sel = kept & (cols["name"] == name_id)
        calls = int(sel.sum())
        layer_self[layer] = layer_self.get(layer, 0.0) + float(self_time[sel].sum())
        figures[f"{name}.calls"] = calls / n_ops
        figures[f"{name}.us_per_call"] = float(inclusive[sel].sum()) / calls * 1e6 if calls else 0.0
        distinct = sum(len(set(cols["key"][sel & (cols["op"] == op)].tolist())) for op in ops)
        figures[f"{name}.distinct_frac"] = distinct / calls if calls else 0.0
        total = float(np.nansum(cols["value"][sel]))
        figures[f"{name}.value_per_call"] = total / calls if calls else 0.0
        figures[f"{name}.value_per_op"] = total / n_ops
    for layer, seconds in layer_self.items():
        figures[f"{layer}.self_share"] = seconds / wall
    return figures
