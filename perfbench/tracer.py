"""Spans around the calls into circumproj's public functions.

The tracer wraps functions from outside the package: each target is looked
up in its defining module and the wrapper replaces every binding of that
function object in every loaded ``circumproj`` module, because most kernels
are imported by name into several modules and wrapping only the defining
module would miss most calls. Methods and classmethods are replaced on
their class.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span or -1, ``op`` the operation id current when the
span opened, and ``attrs`` a small dict of counts taken from the arguments
or the result (or None). Spans stay in memory until :meth:`Tracer.dump`.
Attributes are taken after a span closes, so their cost lands in the
enclosing span's self time; hashing the fixed sets of a 512-operator family
for ``intersect`` is the largest such cost.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
from time import perf_counter

import numpy as np


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return np.asarray(value, dtype=float).nbytes
    return 0


def _bytes_in(args, kwargs, result):
    return {"bytes_in": sum(_nbytes(a) for a in args)}


def _intersect_key(args, kwargs, result):
    digest = hashlib.blake2b(digest_size=16)
    for s in args[0]:
        digest.update(s.anchor.tobytes())
        digest.update(np.int64(s.basis.shape[0]).tobytes())
        digest.update(s.basis.tobytes())
    return {"key": digest.hexdigest()}


def _family(args, kwargs, result):
    return {"ops": len(result.ops), "distinct": len(result.solve_indices)}


def _points(args, kwargs, result):
    pts = np.asarray(args[0])
    points_in = 1 if pts.ndim == 1 else int(pts.shape[0])
    return {"points_in": points_in, "points_kept": len(result.coefficients) + 1}


def _steps(args, kwargs, result):
    return {"steps": int(result.stopped_at)}


def _audit(args, kwargs, result):
    rows = result.per_iteration
    return {"rows": len(rows), "violations": sum(1 for row in rows if not row[3])}


# (module, attribute path, span name, attrs); attrs None records a bare span.
SPAN_TARGETS = (
    ("numerics", "orthonormal_basis", "numerics.orthonormal_basis", _bytes_in),
    ("numerics", "complement_basis", "numerics.complement_basis", _bytes_in),
    ("numerics", "min_norm_solve", "numerics.min_norm_solve", _bytes_in),
    ("numerics", "spectral_norm", "numerics.spectral_norm", _bytes_in),
    ("subspace", "intersect", "subspace.intersect", _intersect_key),
    ("isometry", "fixed_point_set", "isometry.fixed_point_set", None),
    ("isometry", "accelerated_apply", "isometry.accelerated_apply", None),
    ("circumcenter", "build_psi", "circumcenter.build_psi", None),
    ("circumcenter", "OperatorSet.build", "circumcenter.OperatorSet.build", _family),
    ("circumcenter", "circumcenter_map", "circumcenter.circumcenter_map", None),
    ("circumcenter", "circumcenter", "circumcenter.circumcenter", _points),
    ("methods", "run_map", "methods.run_map", _steps),
    ("methods", "run_cim", "methods.run_cim", _steps),
    ("methods", "run_sym_map", "methods.run_sym_map", _steps),
    ("methods", "run_accel", "methods.run_accel", _steps),
    ("methods", "run_dr", "methods.run_dr", _steps),
    ("methods", "run_averaged_iter", "methods.run_averaged_iter", _steps),
    ("rates", "tuple_angle_cos", "rates.tuple_angle_cos", None),
    ("rates", "accel_constants", "rates.accel_constants", None),
    ("rates", "operator_rate", "rates.operator_rate", None),
    ("rates", "audit_bound", "rates.audit_bound", _audit),
    ("bench", "generate_instance", "bench.generate_instance", None),
    ("bench", "run_experiment", "bench.run_experiment", None),
    ("bench", "load_config", "cli.load_config", None),
    ("methods", "IterationTrace.to_csv", "bench.artifacts", None),
    ("rates", "RateReport.to_csv", "bench.artifacts", None),
    ("bench", "ExperimentReport.to_json", "bench.artifacts", None),
)

# Calls that are counted but get no span of their own.
COUNT_TARGETS = (
    ("isometry", "compose", "isometry.compose"),
)


class Tracer:
    """Collects spans and call counts for one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self.missing: list = []
        self.op = -1
        self._stack: list = []

    def _span(self, fn, name, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module_name, path, make):
        module = importlib.import_module(f"circumproj.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                return
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(make(raw.__func__)))
            else:
                setattr(cls, attr, make(raw))
            return
        original = getattr(module, path, None)
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "circumproj" or mod_name.startswith("circumproj.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self) -> "Tracer":
        for module_name, path, name, attrs in SPAN_TARGETS:
            self._replace(module_name, path, lambda fn, n=name, a=attrs: self._span(fn, n, a))
        for module_name, path, name in COUNT_TARGETS:
            self._replace(module_name, path, lambda fn, n=name: self._counter(fn, n))
        return self

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, handle)
