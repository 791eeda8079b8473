"""Span recording around levylab's layer boundaries, and per-layer metrics.

The tracer lives entirely in the benchmark: ``install`` replaces each traced
public function with a wrapper at every module binding that holds it (for
example ``norm_batch`` is bound in ``norms``, ``levy``, ``posdef`` and
``derivatives``), so the program itself is unchanged. Each span records
an id, its parent's id, a name ``<layer>.<function>``, start and end
(``time.perf_counter`` seconds), the thread and a few counts taken from the
call's arguments or result. Spans stay in memory until ``Recorder.dump``.

A span opened inside a ``parallel_map`` worker takes that ``parallel_map``
span as its parent, and each mapped item gets a span named after the
mapped function, so work done in worker threads is attributed to the layer
that submitted it. Appends to a list and ``next`` on an ``itertools.count``
are single bytecode-level operations under the interpreter lock, which
keeps recording thread-safe without a lock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import pkgutil
import threading
import time
from collections import defaultdict


def _layer_of(fn) -> str:
    return getattr(fn, "__module__", "").rsplit(".", 1)[-1] or "unknown"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Recorder:
    """In-memory span store with a per-thread current-parent pointer."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, list[int]] = defaultdict(list)
        self.missing: list[str] = []     # traced functions the program no longer has
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _parent(self) -> int:
        return getattr(self._local, "parent", 0)

    def wrap(self, name, fn, attrs=None, prepare=None, parent=None):
        """Wrapper recording one span per call of ``fn``.

        ``attrs(args, kwargs, result)`` returns the span's counts;
        ``prepare(span_id, args, kwargs)`` may rewrite the arguments before
        the call; ``parent`` fixes the parent span instead of the calling
        thread's current one.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            saved = self._parent()
            self._local.parent = sid
            if prepare is not None:
                args, kwargs = prepare(sid, args, kwargs)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._local.parent = saved
                info = attrs(args, kwargs, result) if attrs and result is not None else None
                self.spans.append((sid, saved if parent is None else parent, name,
                                   start, end, threading.get_ident(), info))
        return traced

    def dump(self, path, origin: float, extra: dict) -> None:
        """Write every span (times relative to ``origin``) plus the counters."""
        spans = [{"id": sid, "parent": par, "name": name,
                  "start": start - origin, "end": end - origin,
                  "thread": thread, "attrs": info}
                 for sid, par, name, start, end, thread, info in self.spans]
        doc = dict(extra, spans=spans, missing=self.missing,
                   counters={k: sum(v) for k, v in self.counters.items()})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _Proxy:
    """Attribute proxy: listed overrides, everything else from ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _nnls_attrs(args, kwargs, sol):
    A = _arg(args, kwargs, 0, "A")
    return {"iterations": int(sol.iterations),
            "active_columns": int((sol.weights > 0.0).sum()),
            "columns": int(A.shape[1]),
            "converged": bool(sol.converged)}


def _norm_attrs(args, kwargs, _):
    spec = _arg(args, kwargs, 0, "spec")
    return {"rows": len(_arg(args, kwargs, 1, "xs")), "orlicz": spec.kind == "orlicz"}


TARGETS = {
    # (module, function): attrs
    ("cli", "main"): None,
    ("criterion", "second_derivative_test"): None,
    ("levy", "feasibility_scan"): None,
    ("levy", "assemble_moment_system"): None,
    ("levy", "solve_nnls"): _nnls_attrs,
    ("posdef", "witness_search"): None,
    ("mollifier", "demo_run"): None,
    ("mollifier", "lhs_integral"): lambda a, k, r: {"phi_count": int(r.phi_count)},
    ("quadrature", "integrate"): lambda a, k, r: {"panels": int(r.panels),
                                                  "converged": bool(r.converged)},
    ("derivatives", "d1_d2_norm_batch"): lambda a, k, r: {"rows": len(r[0])},
    ("norms", "norm_batch"): _norm_attrs,
    ("parallel", "parallel_map"): lambda a, k, r: {"items": len(a[1])},
}


def install(package) -> Recorder:
    """Wrap every traced function at every binding inside ``package``."""
    modules = [importlib.import_module(f"{package.__name__}.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)
               if not info.name.startswith("_")]
    modules.append(package)
    rec = Recorder()

    def integrand_prepare(sid, args, kwargs):
        f = args[0] if args else kwargs.pop("f")
        f = rec.wrap(f"{_layer_of(f)}.integrand", f)
        return (f, *args[1:]), kwargs

    def map_prepare(sid, args, kwargs):
        fn, items = _arg(args, kwargs, 0, "fn"), list(_arg(args, kwargs, 1, "items"))
        name = f"{_layer_of(fn)}.{fn.__name__.strip('<>')}"
        return (rec.wrap(name, fn, parent=sid), items), {}

    prepares = {("quadrature", "integrate"): integrand_prepare,
                ("parallel", "parallel_map"): map_prepare}

    by_module = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for (mod_name, fn_name), attrs in TARGETS.items():
        original = getattr(by_module.get(mod_name), fn_name, None)
        if original is None:
            rec.missing.append(f"{mod_name}.{fn_name}")
            continue
        wrapper = rec.wrap(f"{mod_name}.{fn_name}", original, attrs,
                           prepares.get((mod_name, fn_name)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    # count kernel eigenproblems where posdef solves them, batched or not
    np = getattr(by_module.get("posdef"), "np", None)
    if np is None:
        rec.missing.append("posdef.np.linalg.eigvalsh")
    else:
        def eigvalsh(a, *args, **kwargs):
            rec.counters["posdef.eigenproblems"].append(math.prod(a.shape[:-2]))
            return np.linalg.eigvalsh(a, *args, **kwargs)

        by_module["posdef"].np = _Proxy(np, linalg=_Proxy(np.linalg, eigvalsh=eigvalsh))
    return rec


# ---------------------------------------------------------------- analysis

def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics (see BENCHMARK.json) from a spans document."""
    spans = doc["spans"]
    own = self_times(spans)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        layer_self[s["name"].split(".", 1)[0]] += own[s["id"]]

    def calls(name):
        return len(by_name[name])

    def wall(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def own_sum(name, where=lambda s: True):
        return sum(own[s["id"]] for s in by_name[name] if where(s))

    def total(name, key):
        return sum(s["attrs"][key] for s in by_name[name] if s["attrs"])

    def ratio(name, key):
        return total(name, key) / calls(name) if calls(name) else 0.0

    maps = {s["id"] for s in by_name["parallel.parallel_map"]}
    nnls = "levy.solve_nnls"
    orlicz = lambda s: bool(s["attrs"] and s["attrs"]["orlicz"])  # noqa: E731
    return {
        f"{nnls}.calls": calls(nnls),
        f"{nnls}.self_s": own_sum(nnls),
        f"{nnls}.max_s": max((s["end"] - s["start"] for s in by_name[nnls]), default=0.0),
        f"{nnls}.iterations": total(nnls, "iterations"),
        f"{nnls}.active_columns": total(nnls, "active_columns"),
        f"{nnls}.columns": total(nnls, "columns"),
        f"{nnls}.converged_ratio": ratio(nnls, "converged"),
        "levy.assemble_moment_system.self_s": own_sum("levy.assemble_moment_system"),
        "levy.feasibility_scan.wall_s": wall("levy.feasibility_scan"),
        "mollifier.lhs_integral.calls": calls("mollifier.lhs_integral"),
        "mollifier.lhs_integral.wall_s": wall("mollifier.lhs_integral"),
        "mollifier.lhs_integral.phi_count": total("mollifier.lhs_integral", "phi_count"),
        "mollifier.self_s": layer_self["mollifier"],
        "quadrature.integrate.calls": calls("quadrature.integrate"),
        "quadrature.integrate.panels": total("quadrature.integrate", "panels"),
        "quadrature.integrate.converged_ratio": ratio("quadrature.integrate", "converged"),
        "quadrature.integrate.self_s": own_sum("quadrature.integrate"),
        "derivatives.d1_d2_norm_batch.calls": calls("derivatives.d1_d2_norm_batch"),
        "derivatives.d1_d2_norm_batch.rows": total("derivatives.d1_d2_norm_batch", "rows"),
        "derivatives.d1_d2_norm_batch.self_s": own_sum("derivatives.d1_d2_norm_batch"),
        "norms.norm_batch.calls": calls("norms.norm_batch"),
        "norms.norm_batch.rows": total("norms.norm_batch", "rows"),
        "norms.norm_batch.self_s": own_sum("norms.norm_batch"),
        "norms.norm_batch.orlicz_rows": sum(s["attrs"]["rows"] for s in by_name["norms.norm_batch"]
                                            if orlicz(s)),
        "norms.norm_batch.orlicz_self_s": own_sum("norms.norm_batch", orlicz),
        "posdef.witness_search.wall_s": wall("posdef.witness_search"),
        "posdef.self_s": layer_self["posdef"],
        "posdef.eigenproblems": doc["counters"].get("posdef.eigenproblems", 0),
        "criterion.second_derivative_test.wall_s": wall("criterion.second_derivative_test"),
        "criterion.self_s": layer_self["criterion"],
        "parallel.parallel_map.calls": calls("parallel.parallel_map"),
        "parallel.parallel_map.items": total("parallel.parallel_map", "items"),
        "parallel.parallel_map.wall_s": wall("parallel.parallel_map"),
        "parallel.parallel_map.busy_s": sum(s["end"] - s["start"] for s in spans
                                            if s["parent"] in maps),
        "cli.self_s": layer_self["cli"],
    }


def top_self_times(doc: dict, count: int = 5) -> list[tuple[str, float]]:
    """Span names with the largest summed self time."""
    own = self_times(doc["spans"])
    sums = defaultdict(float)
    for s in doc["spans"]:
        sums[s["name"]] += own[s["id"]]
    return sorted(sums.items(), key=lambda kv: -kv[1])[:count]
