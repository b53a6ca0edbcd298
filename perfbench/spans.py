"""Spans recorded around calls into flaglab's layers, from outside the package.

A traced command process creates one Recorder, calls install() to replace
the layer functions listed in TARGETS with recording wrappers, runs
flaglab.cli.main and writes Recorder.spans out once the command returns.
Nothing inside src/flaglab is instrumented.

A span is the tuple (id, name, start, end, parent, error, attrs):
perf_counter seconds, the id of the enclosing span (0 for none), the
exception type name if the call raised, and a dict of counts taken from
the call's arguments or result (or None).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). A function is replaced in every flaglab
# module that imported it by name, so `from .certify import gap_sweep` in
# cli.py is traced too.
TARGETS = (
    ("flaglab.prodsvd", "ProductSVD.absorb", "prodsvd.absorb"),
    ("flaglab.prodsvd", "jacobi_svd", "prodsvd.jacobi_svd"),
    ("flaglab.certify", "gap_sweep", "certify.gap_sweep"),
    ("flaglab.certify", "_doubling_ratio", "certify.doubling_ratio"),
    ("flaglab.certify", "boundary_sample", "certify.boundary_sample"),
    ("flaglab.certify", "limit_set_sample", "certify.limit_set_sample"),
    ("flaglab.fibers", "_flag_pool", "fibers.flag_pool"),
    ("flaglab.fibers", "_transversality_sweep", "fibers.transversality_sweep"),
    ("flaglab.fibers", "tangent_project", "fibers.tangent_project"),
    ("flaglab.boxdim", "occupied_cells", "boxdim.occupied_cells"),
    ("flaglab.boxdim", "box_dimension_sphere", "boxdim.box_dimension_sphere"),
    ("flaglab.sphere", "visual_mass", "sphere.visual_mass"),
    ("flaglab.cache", "cached_limit_set_sample", "cache.cached_limit_set_sample"),
    ("flaglab.cache", "_load_flags", "cache.load"),
    ("flaglab.cache", "_save_flags", "cache.save"),
    ("flaglab.cli", "resolve_rep", "cli.resolve_rep"),
    ("flaglab.cli", "emit", "cli.emit"),
    ("flaglab.cli", "write_manifest", "cli.write_manifest"),
    ("flaglab.cli", "_fiber_cloud", "cli.fiber_cloud"),
    ("flaglab.cli", "main", "cli.main"),
)

# Per-layer metrics, in the order BENCHMARK.json lists them. Layers a
# workload does not reach read 0, ratios included.
PER_LAYER = {
    "prodsvd.absorb.calls": "count",
    "prodsvd.absorb.busy_s": "s",
    "prodsvd.jacobi_svd.busy_s": "s",
    "certify.gap_sweep.sym4.busy_s": "s",
    "certify.gap_sweep.schottky.busy_s": "s",
    "certify.doubling_ratio.busy_s": "s",
    "certify.boundary_sample.calls": "count",
    "certify.boundary_sample.busy_s": "s",
    "certify.boundary_sample.failed": "count",
    "certify.limit_set_sample.busy_s": "s",
    "certify.limit_set_sample.yield": "ratio",
    "fibers.flag_pool.busy_s": "s",
    "fibers.adversarial.useful_ratio": "ratio",
    "fibers.triple_score.self_s": "s",
    "fibers.triples.tested_ratio": "ratio",
    "fibers.tangent_project.calls": "count",
    "fibers.tangent_project.busy_s": "s",
    "fibers.tangent_project.failed": "count",
    "boxdim.occupied_cells.calls": "count",
    "boxdim.occupied_cells.busy_s": "s",
    "boxdim.box_dimension_sphere.self_s": "s",
    "sphere.visual_mass.busy_s": "s",
    "sphere.visual_mass.mc_points": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.load_s": "s",
    "cache.save_s": "s",
    "cli.resolve_rep_s": "s",
    "cli.write_s": "s",
    "cli.fiber_cloud.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unstable_counts": "count",
}

# Counts that must repeat exactly between two traced runs of one workload.
STABLE_COUNTS = (
    "prodsvd.absorb.calls",
    "certify.boundary_sample.calls",
    "fibers.tangent_project.calls",
    "cache.hits",
    "cache.misses",
    "sphere.visual_mass.mc_points",
)


class Recorder:
    """Keeps the spans of one process in memory.

    Each thread has its own stack of open spans. A call in a worker thread
    with no open span of its own gets the main thread's innermost open span
    as parent: flaglab's only pool (cli._fiber_cloud) blocks the main thread
    inside that span until every worker call is done.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs=None, prepare=None):
        """fn wrapped to record a span per call. attrs(args, kwargs, result)
        returns the span's counts; prepare(args, kwargs) may replace the
        arguments before the call."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else (rec._main[-1] if rec._main else 0)
            sid = next(rec._ids)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            stack.append(sid)
            error = None
            extra = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, kwargs, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.spans.append((sid, name, t0, t1, parent, error, extra))

        return traced


def _limit_set_attrs(args, kwargs, result):
    samples, failures = result
    return {"kept": len(samples), "attempted": len(samples) + len(failures)}


def _flag_pool_attrs(args, kwargs, result):
    return {"pairs": len(result[1])}


def _sweep_attrs(args, kwargs, result):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return {"tested": result.triples_tested, "count": spec.count}


def _visual_mass_attrs(args, kwargs, result):
    return {"mc": result.mc_count}


def install(recorder: Recorder) -> list[str]:
    """Wrap every target that exists; returns the targets not found."""
    modules = {}
    for modname in {t[0] for t in TARGETS}:
        try:
            modules[modname] = importlib.import_module(modname)
        except ImportError:
            pass
    package = [m for n, m in list(sys.modules.items()) if n == "flaglab" or n.startswith("flaglab.")]

    def score_prepare(args, kwargs):
        # _transversality_sweep(rep, k, spec, ks, score_fn, mode): the
        # triple score is a closure, so it is traced where it is passed in
        def wrap_score(fn):
            return recorder.wrap(fn, "fibers.triple_score")

        if len(args) > 4:
            args = args[:4] + (wrap_score(args[4]),) + args[5:]
        elif "score_fn" in kwargs:
            kwargs = dict(kwargs, score_fn=wrap_score(kwargs["score_fn"]))
        return args, kwargs

    extras = {
        "certify.limit_set_sample": {"attrs": _limit_set_attrs},
        "fibers.flag_pool": {"attrs": _flag_pool_attrs},
        "fibers.transversality_sweep": {"attrs": _sweep_attrs, "prepare": score_prepare},
        "sphere.visual_mass": {"attrs": _visual_mass_attrs},
    }
    missing = []
    for modname, attr, name in TARGETS:
        holder = modules.get(modname)
        owner, _, leaf = attr.rpartition(".")
        if owner:
            holder = getattr(holder, owner, None)
        original = getattr(holder, leaf, None)
        if original is None:
            missing.append(f"{modname}.{attr}")
            continue
        wrapped = recorder.wrap(original, name, **extras.get(name, {}))
        setattr(holder, leaf, wrapped)
        if not owner:
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    return missing


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.
    Children may overlap (worker threads); overlapping cover counts once."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _, _ in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, lo, hi, _, _, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (hi - lo) - covered
    return out


def layer_metrics(commands) -> dict[str, float]:
    """Per-layer metrics of one workload run.

    commands: (tag, spans, scale) per command process, where tag names the
    command's builtin representation (e.g. "sym4") or is None, and scale
    turns the process's seconds into reference seconds. Spans of different
    processes are never linked. trace.* metrics are left at 0 for the
    caller, which sees more than one run.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    failed = defaultdict(int)
    selfs = defaultdict(float)
    extra = defaultdict(float)
    for tag, spans, scale in commands:
        own = self_times(spans)
        names = {s[0]: s[1] for s in spans}
        for sid, name, t0, t1, parent, error, attrs in spans:
            calls[name] += 1
            busy[name] += (t1 - t0) * scale
            selfs[name] += own[sid] * scale
            if error is not None:
                failed[name] += 1
            if name == "certify.gap_sweep":
                extra[f"gap_sweep.{tag}"] += (t1 - t0) * scale
            if name == "certify.boundary_sample" and names.get(parent) == "fibers.flag_pool":
                extra["adversarial_samples"] += 1
            for key, value in (attrs or {}).items():
                extra[f"{name}.{key}"] += value

    def ratio(num, den):
        return num / den if den else 0.0

    hits = calls["cache.load"] - failed["cache.load"]
    out = {
        "prodsvd.absorb.calls": calls["prodsvd.absorb"],
        "prodsvd.absorb.busy_s": busy["prodsvd.absorb"],
        "prodsvd.jacobi_svd.busy_s": busy["prodsvd.jacobi_svd"],
        "certify.gap_sweep.sym4.busy_s": extra["gap_sweep.sym4"],
        "certify.gap_sweep.schottky.busy_s": extra["gap_sweep.schottky"],
        "certify.doubling_ratio.busy_s": busy["certify.doubling_ratio"],
        "certify.boundary_sample.calls": calls["certify.boundary_sample"],
        "certify.boundary_sample.busy_s": busy["certify.boundary_sample"],
        "certify.boundary_sample.failed": failed["certify.boundary_sample"],
        "certify.limit_set_sample.busy_s": busy["certify.limit_set_sample"],
        "certify.limit_set_sample.yield": ratio(
            extra["certify.limit_set_sample.kept"], extra["certify.limit_set_sample.attempted"]
        ),
        "fibers.flag_pool.busy_s": busy["fibers.flag_pool"],
        "fibers.adversarial.useful_ratio": ratio(
            2 * extra["fibers.flag_pool.pairs"], extra["adversarial_samples"]
        ),
        "fibers.triple_score.self_s": selfs["fibers.triple_score"],
        "fibers.triples.tested_ratio": ratio(
            extra["fibers.transversality_sweep.tested"], extra["fibers.transversality_sweep.count"]
        ),
        "fibers.tangent_project.calls": calls["fibers.tangent_project"],
        "fibers.tangent_project.busy_s": busy["fibers.tangent_project"],
        "fibers.tangent_project.failed": failed["fibers.tangent_project"],
        "boxdim.occupied_cells.calls": calls["boxdim.occupied_cells"],
        "boxdim.occupied_cells.busy_s": busy["boxdim.occupied_cells"],
        "boxdim.box_dimension_sphere.self_s": selfs["boxdim.box_dimension_sphere"],
        "sphere.visual_mass.busy_s": busy["sphere.visual_mass"],
        "sphere.visual_mass.mc_points": int(extra["sphere.visual_mass.mc"]),
        "cache.hits": hits,
        "cache.misses": calls["cache.cached_limit_set_sample"] - hits,
        "cache.load_s": busy["cache.load"],
        "cache.save_s": busy["cache.save"],
        "cli.resolve_rep_s": busy["cli.resolve_rep"],
        "cli.write_s": busy["cli.emit"] + busy["cli.write_manifest"],
        "cli.fiber_cloud.self_s": selfs["cli.fiber_cloud"],
        "trace.overhead_s": 0.0,
        "trace.unstable_counts": 0,
    }
    return out


def combine_runs(runs: list[dict], traced_wall: float, plain_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics over several traced runs of one workload: counts
    from the first run, times and ratios as medians. Returns the metrics
    and a description of each stable count that did not repeat."""
    unstable = [
        f"{name}: {[r[name] for r in runs]}"
        for name in STABLE_COUNTS
        if len({r[name] for r in runs}) > 1
    ]
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "count":
            out[name] = runs[0][name]
        else:
            out[name] = statistics.median(r[name] for r in runs)
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["trace.unstable_counts"] = len(unstable)
    return out, unstable
