"""Span tracing from outside the program.

`Tracer.install` rebinds the public functions listed in TARGETS, in every
loaded ``charzero`` module that holds them, so calls made through ``cli`` and
between layers pass through a wrapper.  Each wrapped call becomes a span with
its start, end, parent span, the rise of the process's peak RSS across the
call, and size attributes taken from its arguments and result.  Nothing in
the package itself is changed.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from contextlib import contextmanager


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# (module, function, per-layer metric for its seconds, attributes(result))
TARGETS = [
    ("matgroup", "gl_group", "matgroup.enumerate_s", lambda r: {"matgroup.elements": r.order}),
    ("matgroup", "sl_group", "matgroup.enumerate_s", lambda r: {"matgroup.elements": r.order}),
    ("matgroup", "conjugacy_classes", "matgroup.classes_s",
     lambda r: {"matgroup.classes": r.num_classes, "matgroup.exponent": r.exponent}),
    # a value's power-basis coordinates number phi(m)
    ("dixon", "dixon_character_table", "dixon.table_s", lambda r: {"dixon.phi": len(r.values[0][0].coeffs)}),
    ("dixon", "dixon_prime", None, lambda r: {"dixon.prime": r}),
    ("dixon", "verify_orthogonality", "dixon.orthogonality_s", None),
    ("dixon", "zero_census", "dixon.census_s",
     lambda r: {"dixon.zeros": r.zero_entries, "dixon.entries": r.total_entries}),
    ("ffield", "field_for_order", "ffield.field_s", lambda r: {"ffield.q": r.q}),
    ("liefourier", "adjoint_orbits", "liefourier.orbits_s",
     lambda r: {"liefourier.orbits": r.num_orbits, "liefourier.matrix_space": len(r.orbit_of)}),
    ("liefourier", "fourier_table", "liefourier.fourier_s",
     lambda r: {"liefourier.fourier_entries": r.num_orbits ** 2}),
    ("liefourier", "fourier_zero_census", "liefourier.census_s", None),
    ("liefourier", "kl_verify", "liefourier.kl_s", lambda r: {"liefourier.kl_pairs": r.pairs_checked}),
    ("weyl", "weyl_classes", "weyl.classes_s", lambda r: {"weyl.num_classes": r.num_classes}),
    ("weyl", "sum_inv_c_sq_stream", "weyl.stream_s", None),
    ("weyl", "sum_inv_c_stream", "weyl.stream_s", None),
    ("weyl", "bbw_bound_check", "weyl.stream_s", None),
    ("weyl", "torus_order_poly", "weyl.torus_s", None),
    ("gln", "torus_inventory", "gln.torus_inventory_s", None),
    ("gln", "regular_ss_class_count", "gln.rss_count_s", None),
    ("gln", "general_position_count", "gln.general_position_s", None),
    ("bounds", "threshold_search", "bounds.threshold_s", lambda r: {"bounds.threshold": r.threshold}),
    ("bounds", "trend_report", "bounds.trend_s", None),
    ("cli", "main", "cli.main_s", None),
    ("cli", "emit", "cli.emit_s", None),
]

# Called thousands of times per threshold search: counted, not spanned.
COUNTED = ("bounds", "simple_bound_polys")

# Attributes that describe a size (|G|, tau, m, phi(m), l, q, ...) are
# reported as the largest value in the pass; all other attributes are counts
# and are summed.
SIZE_ATTRIBUTES = {
    "matgroup.elements", "matgroup.classes", "matgroup.exponent", "dixon.prime", "dixon.phi",
    "ffield.q", "liefourier.orbits", "liefourier.matrix_space", "weyl.num_classes",
    "bounds.threshold",
}

SPAN_METRICS = sorted({t[2] for t in TARGETS if t[2]})
ATTRIBUTE_METRICS = sorted(SIZE_ATTRIBUTES | {
    "dixon.zeros", "dixon.entries", "liefourier.fourier_entries", "liefourier.kl_pairs"})
OTHER_METRICS = [
    "dixon.orthogonality_rss_mib", "bounds.bound_poly_builds", "bounds.bound_poly_ranks",
    "cli.output_bytes", "job.self_s", "trace.overhead_ratio", "trace.spans",
]
PER_LAYER_METRICS = SPAN_METRICS + ATTRIBUTE_METRICS + OTHER_METRICS


def unit(metric: str) -> str:
    for suffix, name in (("_s", "s"), ("_mib", "MiB"), ("_bytes", "bytes"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return name
    return "count"


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "charzero" or name.startswith("charzero."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.bound_poly_ranks: list[int] = []

    @contextmanager
    def span(self, name: str, metric: str | None = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "metric": metric,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self.t0,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        rss0 = _maxrss_mib()
        try:
            yield record
        except BaseException as e:
            record["error"] = type(e).__name__
            raise
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.t0
            record["rss_rise_mib"] = _maxrss_mib() - rss0

    def _wrap(self, fn, name: str, metric: str | None, attributes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, metric) as record:
                result = fn(*args, **kwargs)
                if attributes is not None:
                    record["attrs"] = attributes(result)
            return result

        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(r, *args, **kwargs):
            self.bound_poly_ranks.append(r)
            return fn(r, *args, **kwargs)

        return counted

    def install(self) -> None:
        for module, fn_name, metric, attributes in TARGETS:
            original = getattr(importlib.import_module(f"charzero.{module}"), fn_name)
            _rebind(original, self._wrap(original, f"{module}.{fn_name}", metric, attributes))
        module, fn_name = COUNTED
        original = getattr(importlib.import_module(f"charzero.{module}"), fn_name)
        _rebind(original, self._count(original))

    def jobs(self) -> list[dict]:
        """Each job's duration, its time in ``cli.main`` and its self time."""
        return [
            {"job": s["name"], "seconds": s["end"] - s["start"],
             "main_s": sum(c["end"] - c["start"] for c in self.spans
                           if c["parent"] == s["id"] and c["name"] == "cli.main"),
             "self_s": job_self_seconds(s, self.spans)}
            for s in self.spans if s["parent"] is None
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass, from the recorded spans."""
        by_id = {s["id"]: s for s in self.spans}

        def has_ancestor_with(span, metric):
            parent = span["parent"]
            while parent is not None:
                if by_id[parent]["metric"] == metric:
                    return True
                parent = by_id[parent]["parent"]
            return False

        out = {m: 0.0 for m in SPAN_METRICS + ATTRIBUTE_METRICS}
        for s in self.spans:
            metric = s["metric"]
            if metric in out and not has_ancestor_with(s, metric):
                out[metric] += s["end"] - s["start"]
            for key, value in s["attrs"].items():
                out[key] = max(out[key], value) if key in SIZE_ATTRIBUTES else out[key] + value
        out["dixon.orthogonality_rss_mib"] = sum(
            s["rss_rise_mib"] for s in self.spans if s["name"] == "dixon.verify_orthogonality")
        out["bounds.bound_poly_builds"] = len(self.bound_poly_ranks)
        out["bounds.bound_poly_ranks"] = len(set(self.bound_poly_ranks))
        out["job.self_s"] = sum(j["self_s"] for j in self.jobs())
        out["trace.spans"] = len(self.spans)
        return out


def job_self_seconds(job: dict, spans: list[dict]) -> float:
    """A job's duration minus the time its wrapped calls cover.  A CLI job's
    ``cli.main`` span is looked through, so its self time is the time in
    ``main`` outside every wrapped child.  The program is single-threaded, so
    sibling spans never overlap."""
    covered, frontier = 0.0, [job["id"]]
    while frontier:
        parent = frontier.pop()
        for child in spans:
            if child["parent"] == parent:
                if child["name"] == "cli.main":
                    frontier.append(child["id"])
                else:
                    covered += child["end"] - child["start"]
    return job["end"] - job["start"] - covered
