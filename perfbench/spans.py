"""Spans around the library's layer boundaries, recorded from outside.

The benchmark wraps the layers' public functions and methods while a
traced run lasts; the library itself carries no tracing code. A function
is replaced in every loaded module namespace that binds it, so the call
``ideals.factor_series`` makes through its own import of
``weierstrass_divide`` is caught as well as a direct ``ring`` call.

Each span records name, start, end, parent span and op id, in flat arrays
kept in memory until the run ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from math import comb

from iwafitt import cli, euler, fitting, ideals, ring
from iwafitt.errors import InsufficientPrecision

_PRINCIPAL = ("dvr", "Zp_mod_pk")


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict = {}
        self.op_id = -1
        self._stack: list = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name, after=None):
        """``fn`` inside a span; ``name`` is a string or a function of the args.

        ``after(args, result, parent_name)`` runs once the span has closed,
        so its bookkeeping is not charged to the layer.
        """
        names, ids = self.names, self._name_ids
        span_name, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            nid = ids.get(label)
            if nid is None:
                nid = ids[label] = len(names)
                names.append(label)
            idx = len(start)
            up = stack[-1] if stack else -1
            span_name.append(nid)
            parent.append(up)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except InsufficientPrecision:
                end[idx] = clock()
                stack.pop()
                self.count(f"{label}.refusals")
                raise
            except BaseException:
                end[idx] = clock()
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            if after is not None:
                after(args, result, names[span_name[up]] if up >= 0 else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict:
        """name -> (calls, self seconds) over every recorded span."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            up = self.parent[i]
            if up >= 0:
                covered[up] += self.end[i] - self.start[i]
        out: dict = {}
        for i in range(n):
            label = self.names[self.name[i]]
            calls, secs = out.get(label, (0, 0.0))
            out[label] = (calls + 1, secs + (self.end[i] - self.start[i]) - covered[i])
        return out


def _on_fitting(tracer):
    """Count the minors each call enumerates, computed from its inputs."""
    def after(args, _result, _parent):
        M, i = args[0], args[1]
        r = M.rows - i
        if 0 < r <= min(M.rows, M.cols):
            label = "fitting.minor_slots" if M.ring.kind in _PRINCIPAL else "fitting.lambda.gens_raw"
            tracer.count(label, comb(M.rows, r) * comb(M.cols, r))
    return after


def _on_divide(tracer):
    def after(_args, result, parent):
        if parent == "ideals.factor_series":
            tracer.count("ideals.factor_series.divisions")
            if result[1].is_zero():
                tracer.count("ideals.factor_series.division_hits")
    return after


def _on_simulate(tracer):
    def after(_args, result, _parent):
        data = result[0]
        tracer.count("euler.keys", len(data.ind_lambda) + len(data.ind_kappa))
        tracer.count("euler.loc_pairs", len(data.loc_ord) + len(data.loc_unr))
    return after


def _targets(tracer):
    """(owner, attribute, span name, after-hook) for every traced boundary."""
    return [
        (fitting, "fitting_ideal", lambda M, i: f"fitting.fitting_ideal.{M.ring.kind}", _on_fitting(tracer)),
        (fitting, "smith_normal_form", "fitting.smith_normal_form", None),
        (ring.TruncatedSeries, "__mul__", "ring.series_mul", None),
        (ring.TruncatedSeries, "inverse", "ring.series_inverse", None),
        (ring, "weierstrass_prepare", "ring.weierstrass_prepare", None),
        (ring, "weierstrass_divide", "ring.weierstrass_divide", _on_divide(tracer)),
        (ring.SpecializationRing, "image_valuation", "ring.image_valuation", None),
        (ideals, "factor_series", "ideals.factor_series", None),
        (ideals, "specialize_elementary", "ideals.specialize_elementary", None),
        (ideals, "slope_report", "ideals.slope_report", None),
        (ideals, "class_of", "ideals.class_of", None),
        (euler, "simulate_system", "euler.simulate_system", _on_simulate(tracer)),
        (euler, "verify_artsel", "euler.verify_artsel", None),
        (euler, "verify_artkappa", "euler.verify_artkappa", None),
        (euler, "reciprocity_check", "euler.reciprocity_check", None),
        (euler.EulerSystemData, "to_dict", "euler.to_dict", None),
        (euler.EulerSystemData, "from_dict", "euler.from_dict", None),
        (cli, "main", "cli.main", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target while the block runs; restore the originals after."""
    restore = []
    try:
        for owner, attr, name, after in _targets(tracer):
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, after)))
                restore.append((owner, attr, raw))
                continue
            wrapped = tracer.wrap(raw, name, after)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                restore.append((owner, attr, raw))
                continue
            for module in list(sys.modules.values()):
                space = getattr(module, "__dict__", None)
                if not space:
                    continue
                for key, value in list(space.items()):
                    if value is raw:
                        setattr(module, key, wrapped)
                        restore.append((module, key, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer calls and self time, plus the counts and ratios derived from them."""
    spans = tracer.self_times()
    counts = tracer.counts
    out = {}

    def both(label):
        n, secs = spans.get(label, (0, 0.0))
        out[f"{label}.calls"] = (n, "count")
        out[f"{label}.self_s"] = (secs, "s")

    for kind in ("dvr", "Zp_mod_pk", "lambda"):
        both(f"fitting.fitting_ideal.{kind}")
    for _, _, label, _ in _targets(tracer):
        if isinstance(label, str):
            both(label)
    out["ring.weierstrass_prepare.refusals"] = (
        counts.get("ring.weierstrass_prepare.refusals", 0), "count")
    for label in ("fitting.minor_slots", "fitting.lambda.gens_raw", "euler.keys", "euler.loc_pairs"):
        out[label] = (counts.get(label, 0), "count")
    divisions = counts.get("ideals.factor_series.divisions", 0)
    out["ideals.factor_series.division_hit_ratio"] = (
        counts.get("ideals.factor_series.division_hits", 0) / divisions if divisions else 0.0,
        "ratio",
    )
    keys = counts.get("euler.keys", 0)
    verify_s = sum(
        spans.get(label, (0, 0.0))[1]
        for label in ("euler.verify_artsel", "euler.verify_artkappa", "euler.reciprocity_check")
    )
    out["euler.verify_us_per_key"] = (verify_s / keys * 1e6 if keys else 0.0, "us")
    return out
