"""Per-layer metrics from the spans of a traced run.

Self time is a span's duration minus the durations of its child spans.
Figures marked ``/op`` are totals over the traced pass divided by the
operations it attempted, so runs that complete different numbers of
operations stay comparable.

Besides the per-function figures, every span's self time is attributed to
exactly one of the layers below, so the layer times of an operation add up
to its ``run_experiment`` time. A span belongs to the highest-ranked layer
named anywhere on its path from the root: numerics calls under a
circumcenter solve count as the solve, an ``intersect`` inside
``tuple_angle_cos`` counts as the rate engine.
"""

from __future__ import annotations

from collections import defaultdict

RUNNERS = ("run_map", "run_cim", "run_sym_map", "run_accel", "run_dr", "run_averaged_iter")
KERNELS = ("orthonormal_basis", "complement_basis", "min_norm_solve", "spectral_norm")
ERROR_TYPES = ("NumericalPropernessError", "RuntimeError", "ValueError", "other")

# Highest rank first.
LAYER_RANK = (
    "iteration.solve",
    "iteration.images",
    "iteration.driver",
    "family",
    "rates",
    "audit",
    "artifacts",
    "resolution",
    "plan",
)
LAYER_OF_SPAN = {
    "circumcenter.circumcenter": "iteration.solve",
    "circumcenter.circumcenter_map": "iteration.images",
    **{f"methods.{r}": "iteration.driver" for r in RUNNERS},
    "circumcenter.build_psi": "family",
    "circumcenter.OperatorSet.build": "family",
    "rates.tuple_angle_cos": "rates",
    "rates.accel_constants": "rates",
    "rates.operator_rate": "rates",
    "rates.audit_bound": "audit",
    "bench.artifacts": "artifacts",
    "bench.generate_instance": "resolution",
    "subspace.intersect": "resolution",
    "bench.run_experiment": "plan",
}

# name: (unit, better); the order here is the order of the output.
PER_LAYER = {}
for _k in KERNELS:
    PER_LAYER[f"numerics.{_k}.s"] = ("s/op", "lower")
    PER_LAYER[f"numerics.{_k}.calls"] = ("calls/op", "lower")
PER_LAYER.update({
    "numerics.bytes_in": ("B/op", "lower"),
    "numerics.blas_1thread_wall_s": ("s", "lower"),
    "numerics.blas_default_wall_s": ("s", "lower"),
    "subspace.intersect.s": ("s/op", "lower"),
    "subspace.intersect.calls": ("calls/op", "lower"),
    "subspace.intersect.unique_frac": ("ratio", "higher"),
    "isometry.fixed_point_set.s": ("s/op", "lower"),
    "isometry.fixed_point_set.calls": ("calls/op", "lower"),
    "isometry.compose.calls": ("calls/op", "lower"),
    "isometry.accelerated_apply.s": ("s/op", "lower"),
    "isometry.accelerated_apply.calls": ("calls/op", "lower"),
    "circumcenter.build_psi.s": ("s/op", "lower"),
    "circumcenter.OperatorSet.build.s": ("s/op", "lower"),
    "circumcenter.OperatorSet.build.calls": ("calls/op", "lower"),
    "circumcenter.family_ops": ("operators/op", "lower"),
    "circumcenter.family_distinct_frac": ("ratio", "higher"),
    "circumcenter.circumcenter_map.calls": ("calls/op", "lower"),
    "circumcenter.images.s": ("s/op", "lower"),
    "circumcenter.circumcenter.s": ("s/op", "lower"),
    "circumcenter.circumcenter.calls": ("calls/op", "lower"),
    "circumcenter.points_in": ("points/op", "lower"),
    "circumcenter.points_kept_frac": ("ratio", "higher"),
})
for _r in RUNNERS:
    PER_LAYER[f"methods.{_r}.s"] = ("s/op", "lower")
    PER_LAYER[f"methods.{_r}.steps"] = ("steps/op", "lower")
PER_LAYER["methods.step_us"] = ("us", "lower")
for _e in ERROR_TYPES:
    PER_LAYER[f"methods.errors.{_e}"] = ("count", "lower")
for _r in ("tuple_angle_cos", "accel_constants", "operator_rate"):
    PER_LAYER[f"rates.{_r}.s"] = ("s/op", "lower")
    PER_LAYER[f"rates.{_r}.calls"] = ("calls/op", "lower")
PER_LAYER.update({
    "rates.audit_bound.s": ("s/op", "lower"),
    "rates.audit_rows": ("rows/op", "lower"),
    "rates.audit_violations": ("rows/op", "lower"),
    "bench.generate_instance.s": ("s/op", "lower"),
    "bench.run_experiment.s": ("s/op", "lower"),
    "bench.artifacts.s": ("s/op", "lower"),
    "bench.artifact_bytes": ("B/op", "lower"),
    "bench.artifact_files": ("files/op", "lower"),
    "cli.load_config.s": ("s/op", "lower"),
})
for _layer in LAYER_RANK:
    PER_LAYER[f"layer.{_layer}.s"] = ("s/op", "lower")
PER_LAYER.update({
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.spans": ("spans/op", "lower"),
})


def error_bucket(bases: list) -> str:
    """The first declared error type among an exception's class names,
    most derived first, or "other"."""
    return next((name for name in bases if name in ERROR_TYPES), "other")


def analyse(spans: list, counts: dict, n_ops: int, n_configs: int) -> tuple:
    """Per-layer figures, plus inclusive time per span name (outermost
    occurrences only) for the share table. ``n_ops`` operations were
    attempted in the traced pass and ``n_configs`` configs were loaded."""
    ops = max(n_ops, 1)
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += duration[i]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(float))
    inclusive = defaultdict(float)
    layer_s = defaultdict(float)
    layer = [None] * len(spans)
    names_above = [frozenset()] * len(spans)
    keys = set()
    for i, (name, _, _, parent, op, extra) in enumerate(spans):
        own = LAYER_OF_SPAN.get(name)
        inherited = layer[parent] if parent >= 0 else None
        candidates = [l for l in (own, inherited) if l is not None]
        layer[i] = min(candidates, key=LAYER_RANK.index) if candidates else None
        above = names_above[parent] | {spans[parent][0]} if parent >= 0 else frozenset()
        names_above[i] = above
        own_self = duration[i] - child_time[i]
        self_s[name] += own_self
        calls[name] += 1
        if op < 0:  # config loading during set-up, outside every operation
            continue
        if name not in above:
            inclusive[name] += duration[i]
        if layer[i] is not None:
            layer_s[layer[i]] += own_self
        if extra:
            for key, value in extra.items():
                if key == "key":
                    keys.add(value)
                else:
                    attrs[name][key] += value

    m = {}
    for k in KERNELS:
        m[f"numerics.{k}.s"] = self_s[f"numerics.{k}"] / ops
        m[f"numerics.{k}.calls"] = calls[f"numerics.{k}"] / ops
    m["numerics.bytes_in"] = sum(attrs[f"numerics.{k}"]["bytes_in"] for k in KERNELS) / ops
    m["subspace.intersect.s"] = self_s["subspace.intersect"] / ops
    m["subspace.intersect.calls"] = calls["subspace.intersect"] / ops
    m["subspace.intersect.unique_frac"] = len(keys) / max(calls["subspace.intersect"], 1)
    for name in ("fixed_point_set", "accelerated_apply"):
        m[f"isometry.{name}.s"] = self_s[f"isometry.{name}"] / ops
        m[f"isometry.{name}.calls"] = calls[f"isometry.{name}"] / ops
    m["isometry.compose.calls"] = counts.get("isometry.compose", 0) / ops
    family = attrs["circumcenter.OperatorSet.build"]
    m["circumcenter.build_psi.s"] = self_s["circumcenter.build_psi"] / ops
    m["circumcenter.OperatorSet.build.s"] = self_s["circumcenter.OperatorSet.build"] / ops
    m["circumcenter.OperatorSet.build.calls"] = calls["circumcenter.OperatorSet.build"] / ops
    m["circumcenter.family_ops"] = family["ops"] / ops
    m["circumcenter.family_distinct_frac"] = family["distinct"] / max(family["ops"], 1)
    m["circumcenter.circumcenter_map.calls"] = calls["circumcenter.circumcenter_map"] / ops
    m["circumcenter.images.s"] = self_s["circumcenter.circumcenter_map"] / ops
    m["circumcenter.circumcenter.s"] = self_s["circumcenter.circumcenter"] / ops
    m["circumcenter.circumcenter.calls"] = calls["circumcenter.circumcenter"] / ops
    points = attrs["circumcenter.circumcenter"]
    m["circumcenter.points_in"] = points["points_in"] / ops
    m["circumcenter.points_kept_frac"] = points["points_kept"] / max(points["points_in"], 1)
    steps_total = 0.0
    runner_time = 0.0
    for r in RUNNERS:
        steps = attrs[f"methods.{r}"]["steps"]
        steps_total += steps
        runner_time += inclusive[f"methods.{r}"]
        m[f"methods.{r}.s"] = self_s[f"methods.{r}"] / ops
        m[f"methods.{r}.steps"] = steps / ops
    m["methods.step_us"] = 1e6 * runner_time / max(steps_total, 1)
    for r in ("tuple_angle_cos", "accel_constants", "operator_rate"):
        m[f"rates.{r}.s"] = self_s[f"rates.{r}"] / ops
        m[f"rates.{r}.calls"] = calls[f"rates.{r}"] / ops
    audit = attrs["rates.audit_bound"]
    m["rates.audit_bound.s"] = self_s["rates.audit_bound"] / ops
    m["rates.audit_rows"] = audit["rows"] / ops
    m["rates.audit_violations"] = audit["violations"] / ops
    m["bench.generate_instance.s"] = self_s["bench.generate_instance"] / ops
    m["bench.run_experiment.s"] = self_s["bench.run_experiment"] / ops
    m["bench.artifacts.s"] = self_s["bench.artifacts"] / ops
    m["cli.load_config.s"] = self_s["cli.load_config"] / max(n_configs, 1)
    for name in LAYER_RANK:
        m[f"layer.{name}.s"] = layer_s[name] / ops
    m["trace.spans"] = len(spans) / ops
    return m, dict(inclusive)
