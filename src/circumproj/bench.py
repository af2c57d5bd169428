"""Experiment harness: seeded instances, method wiring, audited reports.

Configs are single JSON files (a key tree with lists, grammar documented in
the README). All randomness flows through numpy's default_rng (PCG64) with
documented seed derivation, artifacts are written atomically, and nothing
time-dependent is serialized, so rerunning a config reproduces every output
byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .circumcenter import OperatorSet, build_psi
from .isometry import (
    AffineIsometry,
    AffineMap,
    build_product_averaged,
    build_sum_averaged,
    compose,
    fixed_point_set,
    identity,
    make_reflector,
    operator_from_literal,
)
from .methods import (
    METHOD_TAGS,
    IterationTrace,
    MethodConfig,
    dr_operator,
    run_cim,
    run_linear,
    run_map,
    symmetric_map_operator,
)
from .numerics import EQ_TOL, as_vector
from .rates import (
    AccelConstants,
    RateConstant,
    RateReport,
    accel_constants,
    audit_bound,
    operator_rate,
    tuple_angle_cos,
)
from .subspace import AffineSubspace, Intersection, intersect, subspace_from_literal

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "load_config",
    "parse_config",
    "generate_instance",
    "run_experiment",
    "compute_rates",
]


class ConfigError(ValueError):
    """Config parsing or validation failure, with a key-path diagnostic."""


PREFIX_KINDS = ("none", "sym_map_product")
# The error whose first reach a method summary records as "iters_to_1e-10".
_REACH_ERROR = 1e-10


@dataclass(frozen=True)
class X0Spec:
    kind: str
    point: Optional[tuple] = None
    seed: Optional[int] = None


@dataclass(frozen=True)
class InstanceItem:
    label: str
    subspace_literals: tuple
    x0: Optional[X0Spec] = None
    product_fixed_line: Optional[tuple] = None


@dataclass(frozen=True)
class RandomInstances:
    count: int
    num_subspaces: int
    dim_range: tuple
    seed: int


@dataclass(frozen=True)
class MethodSpec:
    method: str
    operator_set: str = "psi"
    symmetrized: bool = False
    prefix: str = "none"
    builder: str = "sum"
    operators: Optional[tuple] = None
    label: Optional[str] = None
    max_iters: Optional[int] = None


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    ambient_dim: int
    seed: int
    max_iters: int
    stop_tol: float
    x0: X0Spec
    methods: tuple
    explicit_items: Optional[tuple] = None
    random_instances: Optional[RandomInstances] = None
    out_dir: Optional[str] = None


def _expect_mapping(obj, path: str, keys: Sequence[str]) -> dict:
    """``obj`` as a mapping whose keys are all among ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key, expected one of {tuple(keys)}")
    return obj


def _expect_list(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list, got {type(obj).__name__}")
    return obj


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}: missing required key '{key}'")
    return obj[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_seed(value, path: str) -> int:
    """``value`` as a seed; numpy's generators take nonnegative integers only."""
    seed = _as_int(value, path)
    if seed < 0:
        raise ConfigError(f"{path}: must be nonnegative")
    return seed


def _as_number(value, path: str) -> float:
    """``value`` as a finite float. Python's json reads ``NaN`` and
    ``Infinity``, so they are refused here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {number!r}")
    return number


def _parse_x0(obj, path: str, ambient_dim: int) -> X0Spec:
    mapping = _expect_mapping(obj, path, ("kind", "point", "seed"))
    kind = _get(mapping, "kind", path)
    if kind == "explicit":
        point = _expect_list(_get(mapping, "point", path), f"{path}.point")
        if len(point) != ambient_dim:
            raise ConfigError(f"{path}.point: expected {ambient_dim} entries, got {len(point)}")
        return X0Spec(kind="explicit",
                      point=tuple(_as_number(v, f"{path}.point[{i}]") for i, v in enumerate(point)))
    if kind == "random_unit":
        return X0Spec(kind="random_unit", seed=_as_seed(_get(mapping, "seed", path), f"{path}.seed"))
    raise ConfigError(f"{path}.kind: expected 'explicit' or 'random_unit', got {kind!r}")


def _choice(mapping: dict, key: str, default, choices: tuple, path: str):
    value = mapping.get(key, default)
    if value not in choices:
        raise ConfigError(f"{path}.{key}: unknown value {value!r}, expected one of {choices}")
    return value


def _require_file_name(label: Optional[str], path: str) -> None:
    if label is not None and any(c in label for c in "/\\\0"):
        raise ConfigError(f"{path}.label: {label!r} may not contain '/', '\\' or NUL")


def _parse_method(obj, index: int, ambient_dim: int, source: str) -> MethodSpec:
    """A methods entry, whose keys are checked against the ``_RECIPES`` row
    that its tag and variant name, so a key that row does not read is an
    error at that key."""
    path = f"{source}.methods[{index}]"
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(obj).__name__}")
    method = _get(obj, "method", path)
    if method not in METHOD_TAGS:
        raise ConfigError(f"{path}.method: unknown tag {method!r}, expected one of {METHOD_TAGS}")
    variant_key = _VARIANT_KEYS.get(method)
    variant = None
    if variant_key is not None:
        variants = tuple(v for m, v in _RECIPES if m == method)
        variant = _choice(obj, variant_key, getattr(MethodSpec, variant_key), variants, path)
    chosen = {} if variant_key is None else {variant_key: variant}
    mapping = _expect_mapping(obj, path, ("method", "label", "max_iters", *chosen,
                                          *_RECIPES[method, variant][1]))
    prefix = _choice(mapping, "prefix", "none", PREFIX_KINDS, path)
    symmetrized = mapping.get("symmetrized", False)
    if not isinstance(symmetrized, bool):
        raise ConfigError(f"{path}.symmetrized: expected a boolean")
    if prefix == "sym_map_product" and not symmetrized:
        raise ConfigError(
            f"{path}.prefix: 'sym_map_product' requires method 'cim' with "
            "operator_set 'psi' and symmetrized true"
        )
    operators = None
    if variant == "custom":
        operators = tuple(_expect_list(_get(mapping, "operators", path), f"{path}.operators"))
        for j, literal in enumerate(operators):
            try:
                op = operator_from_literal(literal)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"{path}.operators[{j}]: {err}") from None
            if op.ambient_dim != ambient_dim:
                raise ConfigError(f"{path}.operators[{j}]: acts on R^{op.ambient_dim}, "
                                  f"expected ambient_dim {ambient_dim}")
    label = mapping.get("label")
    if label is not None and (not isinstance(label, str) or not label):
        raise ConfigError(f"{path}.label: expected a nonempty string")
    _require_file_name(label, path)
    max_iters = mapping.get("max_iters")
    if max_iters is not None:
        max_iters = _as_int(max_iters, f"{path}.max_iters")
        if max_iters < 0:
            raise ConfigError(f"{path}.max_iters: must be nonnegative")
    return MethodSpec(method=method, symmetrized=symmetrized, prefix=prefix,
                      operators=operators, label=label, max_iters=max_iters, **chosen)


def parse_config(obj, source: str = "config") -> ExperimentConfig:
    """Validate a parsed JSON object into an :class:`ExperimentConfig`.

    Raises :class:`ConfigError` with the offending key path on any problem.
    """
    root = _expect_mapping(obj, source, ("name", "ambient_dim", "seed", "max_iters", "stop_tol",
                                         "x0", "instances", "methods", "out_dir"))
    name = _get(root, "name", source)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{source}.name: expected a nonempty string")
    ambient_dim = _as_int(_get(root, "ambient_dim", source), f"{source}.ambient_dim")
    if ambient_dim < 1:
        raise ConfigError(f"{source}.ambient_dim: must be at least 1")
    seed = _as_seed(root.get("seed", 0), f"{source}.seed")
    max_iters = _as_int(root.get("max_iters", 50), f"{source}.max_iters")
    if max_iters < 0:
        raise ConfigError(f"{source}.max_iters: must be nonnegative")
    stop_tol = _as_number(root.get("stop_tol", 0.0), f"{source}.stop_tol")
    if stop_tol < 0:
        raise ConfigError(f"{source}.stop_tol: must be nonnegative")
    instances = _expect_mapping(_get(root, "instances", source), f"{source}.instances",
                                ("kind", "items", "count", "num_subspaces", "dim_range", "seed"))
    kind = _get(instances, "kind", f"{source}.instances")
    raw_x0 = root.get("x0", {"kind": "random_unit", "seed": seed})
    if kind == "random" and isinstance(raw_x0, dict) and raw_x0.get("kind") == "explicit":
        raise ConfigError(f"{source}.x0: random instances draw their own start points")
    x0 = _parse_x0(raw_x0, f"{source}.x0", ambient_dim)
    explicit_items = None
    random_instances = None
    if kind == "explicit":
        raw_items = _expect_list(_get(instances, "items", f"{source}.instances"),
                                 f"{source}.instances.items")
        if not raw_items:
            raise ConfigError(f"{source}.instances.items: must be nonempty")
        items = []
        for i, raw in enumerate(raw_items):
            path = f"{source}.instances.items[{i}]"
            mapping = _expect_mapping(raw, path, ("label", "subspaces", "x0", "product_fixed_line"))
            label = mapping.get("label", f"instance_{i:02d}")
            if not isinstance(label, str) or not label:
                raise ConfigError(f"{path}.label: expected a nonempty string")
            _require_file_name(label, path)
            subs = _expect_list(_get(mapping, "subspaces", path), f"{path}.subspaces")
            if not subs:
                raise ConfigError(f"{path}.subspaces: must be nonempty")
            for j, literal in enumerate(subs):
                try:
                    sub = subspace_from_literal(literal)
                except (TypeError, ValueError) as err:
                    raise ConfigError(f"{path}.subspaces[{j}]: {err}") from None
                if sub.ambient_dim != ambient_dim:
                    raise ConfigError(f"{path}.subspaces[{j}]: dimension {sub.ambient_dim} "
                                      f"does not match ambient_dim {ambient_dim}")
            item_x0 = (_parse_x0(mapping["x0"], f"{path}.x0", ambient_dim)
                       if "x0" in mapping else None)
            fixed_line = mapping.get("product_fixed_line")
            if fixed_line is not None:
                line_path = f"{path}.product_fixed_line"
                fixed_line = tuple(_as_number(v, f"{line_path}[{j}]")
                                   for j, v in enumerate(_expect_list(fixed_line, line_path)))
                if len(fixed_line) != ambient_dim:
                    raise ConfigError(f"{line_path}: expected {ambient_dim} entries, "
                                      f"got {len(fixed_line)}")
                if not any(fixed_line):
                    raise ConfigError(f"{line_path}: must be a nonzero direction")
            items.append(InstanceItem(label=label, subspace_literals=tuple(subs),
                                      x0=item_x0, product_fixed_line=fixed_line))
        labels = [item.label for item in items]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"{source}.instances.items: labels must be unique")
        explicit_items = tuple(items)
    elif kind == "random":
        path = f"{source}.instances"
        count = _as_int(_get(instances, "count", path), f"{path}.count")
        num_subspaces = _as_int(_get(instances, "num_subspaces", path), f"{path}.num_subspaces")
        dim_range = _expect_list(_get(instances, "dim_range", path), f"{path}.dim_range")
        if len(dim_range) != 2:
            raise ConfigError(f"{path}.dim_range: expected [low, high]")
        lo = _as_int(dim_range[0], f"{path}.dim_range[0]")
        hi = _as_int(dim_range[1], f"{path}.dim_range[1]")
        rseed = _as_seed(_get(instances, "seed", path), f"{path}.seed")
        if count < 1:
            raise ConfigError(f"{path}.count: must be positive")
        if num_subspaces < 1:
            raise ConfigError(f"{path}.num_subspaces: must be positive")
        if not 1 <= lo <= hi <= ambient_dim:
            raise ConfigError(f"{path}.dim_range: need 1 <= low <= high <= ambient_dim")
        random_instances = RandomInstances(count=count, num_subspaces=num_subspaces,
                                           dim_range=(lo, hi), seed=rseed)
    else:
        raise ConfigError(f"{source}.instances.kind: expected 'explicit' or 'random', got {kind!r}")

    raw_methods = _expect_list(_get(root, "methods", source), f"{source}.methods")
    if not raw_methods:
        raise ConfigError(f"{source}.methods: must be nonempty")
    methods = tuple(_parse_method(m, i, ambient_dim, source) for i, m in enumerate(raw_methods))
    fewest = (random_instances.num_subspaces if explicit_items is None
              else min(len(item.subspace_literals) for item in explicit_items))
    for i, spec in enumerate(methods):
        if spec.method == "dr" and fewest < 2:
            raise ConfigError(f"{source}.methods[{i}]: method 'dr' needs at least two "
                              f"subspaces, an instance has {fewest}")
    _require_unique_file_names(methods, explicit_items, source)

    out_dir = root.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"{source}.out_dir: expected a string")

    return ExperimentConfig(name=name, ambient_dim=ambient_dim, seed=seed,
                            max_iters=max_iters, stop_tol=stop_tol, x0=x0,
                            methods=methods, explicit_items=explicit_items,
                            random_instances=random_instances, out_dir=out_dir)


def _require_unique_file_names(methods: tuple, explicit_items: Optional[tuple],
                               source: str) -> None:
    """Each method's label, its default included, and each artifact file
    stem must be unique, or one run's files would overwrite another's.
    Random instance labels ``random_NNN`` hold no ``__`` and are unique, so
    their stems are unique once the method labels are."""
    labels = {}
    for i, spec in enumerate(methods):
        label = _default_label(spec, i)
        if label in labels:
            raise ConfigError(f"{source}.methods[{i}].label: labels must be unique, "
                              f"{label!r} is also the label of methods[{labels[label]}]")
        labels[label] = i
    stems = {}
    for i, item in enumerate(explicit_items or ()):
        for label in labels:
            stem = _stem(item.label, label)
            if stem in stems:
                raise ConfigError(f"{source}.instances.items[{i}].label: artifact file stems "
                                  f"must be unique, {stem!r} is also a stem of "
                                  f"instances.items[{stems[stem]}]")
            stems[stem] = i


def _stem(instance_label: str, method_label: str) -> str:
    """The name of a run's artifact files, less their suffixes."""
    return f"{instance_label}__{method_label}"


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: invalid JSON: {err.msg}") from None
    return parse_config(obj, source=str(path))


_MIN_OFFSET = 0.1
_MAX_TRIES = 100


def generate_instance(ambient_dim: int, num_subspaces: int, dim_range,
                      rng: np.random.Generator):
    """Draw random linear subspaces and a unit start point.

    Returns ``(subspaces, x0, intersection)``, the intersection being the
    one the start was checked against. Subspace bases are orthonormalized
    Gaussian draws with dimensions from ``dim_range`` inclusive; the start
    point is uniform on the unit sphere. Draws whose start lies within
    ``_MIN_OFFSET`` = 0.1 of the intersection are retried, and after
    ``_MAX_TRIES`` = 100 failures an error is raised. Consuming order per
    try: dimensions, then one Gaussian matrix per subspace, then the start
    point.
    """
    lo, hi = int(dim_range[0]), int(dim_range[1])
    if not 1 <= lo <= hi <= ambient_dim:
        raise ValueError("need 1 <= low <= high <= ambient_dim in dim_range")
    for _ in range(_MAX_TRIES):
        dims = rng.integers(lo, hi + 1, size=num_subspaces)
        subspaces = [
            AffineSubspace.linear(rng.standard_normal((int(d), ambient_dim)))
            for d in dims
        ]
        raw = rng.standard_normal(ambient_dim)
        x0 = raw / float(np.linalg.norm(raw))
        inter = intersect(subspaces)
        if inter.is_empty:
            continue
        offset = float(np.linalg.norm(x0 - inter.subspace.project(x0)))
        if offset > _MIN_OFFSET:
            return subspaces, x0, inter
    raise RuntimeError(
        f"failed to draw a nondegenerate instance in {_MAX_TRIES} tries; "
        "the requested dimensions leave no room between start and intersection"
    )


@dataclass(frozen=True)
class _MethodPlan:
    """A method's audited constant, if any, and the run it bounds."""

    constant: Optional[RateConstant]
    run: Callable[[MethodConfig], IterationTrace]


@dataclass(eq=False)
class _Instance:
    """One instance and the parts its recipes share, each computed once.
    ``inter`` is the intersection of the subspaces, computed on resolution.
    Its subspace is the fixed set of every recipe but ``dr``, and the
    drivers and rate functions take it as a required argument, so it is
    decided here. Deriving it from A - I, as ``fixed_point_set`` does, is
    ill-conditioned at small angles theta: the smallest singular values of
    A - I are of order theta^2."""

    subspaces: list
    x0: np.ndarray
    inter: Intersection
    _reflectors: dict = field(default_factory=dict, init=False, repr=False)
    _averaged: dict = field(default_factory=dict, init=False, repr=False)

    def reflector(self, index: int) -> AffineIsometry:
        """The reflector through subspace ``index``, made on first use, so a
        recipe that needs two of them makes only those two."""
        if index not in self._reflectors:
            self._reflectors[index] = make_reflector(self.subspaces[index])
        return self._reflectors[index]

    @property
    def reflectors(self) -> list:
        return [self.reflector(i) for i in range(len(self.subspaces))]

    def family(self, symmetrized: bool) -> list:
        """The reflectors, as the palindrome R1..Rm..R1 when symmetrized."""
        return self.reflectors + self.reflectors[-2::-1] if symmetrized else self.reflectors

    def averaged(self, builder: str, symmetrized: bool) -> AffineMap:
        """The uniform averaged map ``builder`` makes of the family, one
        object per (builder, family), so its spectral data is taken once."""
        key = builder, symmetrized
        if key not in self._averaged:
            self._averaged[key] = _AVERAGED_BUILDERS[builder](self.family(symmetrized))
        return self._averaged[key]

    @cached_property
    def tuple_cos(self) -> float:
        return tuple_angle_cos(self.subspaces, fixed=self.inter.subspace)

    @cached_property
    def sym_op(self) -> AffineMap:
        return symmetric_map_operator(self.subspaces)

    @cached_property
    def accel(self) -> AccelConstants:
        return accel_constants(self.sym_op, fixed=self.inter.subspace)


def _linear_plan(constant_name: str, op: AffineMap, fixed: AffineSubspace,
                 ctx: _Instance, **ingredients) -> _MethodPlan:
    rate = operator_rate(op, fixed)
    return _MethodPlan(RateConstant(constant_name, rate, {"operator_rate": rate, **ingredients}),
                       lambda config: run_linear(op, ctx.x0, config, fixed=fixed))


def _plan_map(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    gamma = ctx.tuple_cos
    return _MethodPlan(RateConstant("cyclic_projection_tuple_rate", gamma,
                                    {"tuple_angle_cos": gamma}),
                       lambda config: run_map(ctx.subspaces, ctx.x0, config,
                                              fixed=ctx.inter.subspace))


def _plan_sym_map(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    return _linear_plan("symmetric_product_rate", ctx.sym_op, ctx.inter.subspace, ctx,
                        tuple_angle_cos_half=ctx.tuple_cos)


def _plan_accel_map(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    return _MethodPlan(RateConstant("acceleration_rate", ctx.accel.eta,
                                    dataclasses.asdict(ctx.accel)),
                       lambda config: run_linear(ctx.sym_op, ctx.x0, config,
                                                 fixed=ctx.inter.subspace))


def _plan_dr(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    op = dr_operator(ctx.reflector(0), ctx.reflector(1))
    # Fix(op) = (U ∩ V) ⊕ (U⊥ ∩ V⊥), not the intersection; the singular
    # values of A - I are of order theta here, so A - I decides it well.
    return _linear_plan("douglas_rachford_rate", op, fixed_point_set(op), ctx)


_AVERAGED_BUILDERS = {"sum": build_sum_averaged, "product": build_product_averaged}


def _plan_averaged_iter(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    op = ctx.averaged(spec.builder, symmetrized=False)
    return _linear_plan(f"{spec.builder}_averaged_rate", op, ctx.inter.subspace, ctx)


def _plan_cim_psi(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    family = ctx.family(spec.symmetrized)
    prefix = ctx.sym_op if spec.prefix == "sym_map_product" else None

    def run(config: MethodConfig) -> IterationTrace:
        config = dataclasses.replace(config, prefix=prefix)
        operator_set = build_psi(family, fixed=ctx.inter.subspace)
        return run_cim(operator_set, ctx.x0, config)

    if prefix is not None:
        return _MethodPlan(RateConstant("accelerated_prefixed_rate", ctx.accel.eta,
                                        {**dataclasses.asdict(ctx.accel),
                                         "prefactor": ctx.accel.cT}), run)
    gamma = ctx.tuple_cos
    if spec.symmetrized:
        return _MethodPlan(RateConstant("symmetric_tuple_rate", gamma * gamma,
                                        {"tuple_angle_cos_half": gamma}), run)
    return _MethodPlan(RateConstant("tuple_rate", gamma, {"tuple_angle_cos": gamma}), run)


def _plan_cim_averaged(builder: str, spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    """Circumcenter over {Id, R1, .., Rm} (sum) or {Id, R1, R2R1, ..} (product),
    with the rate of the averaged map the builder makes of the same reflectors."""
    family = ctx.family(spec.symmetrized)
    words = [tuple(range(i + 1)) if builder == "product" else (i,) for i in range(len(family))]

    def run(config: MethodConfig) -> IterationTrace:
        operator_set = OperatorSet(family, [()] + words, fixed=ctx.inter.subspace)
        return run_cim(operator_set, ctx.x0, config)

    rate = operator_rate(ctx.averaged(builder, spec.symmetrized), ctx.inter.subspace)
    constant = RateConstant(f"{builder}_averaged_rate", rate, {"operator_rate": rate})
    return _MethodPlan(constant, run)


def _plan_cim_custom(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    def run(config: MethodConfig) -> IterationTrace:
        ops = [operator_from_literal(lit) for lit in spec.operators]
        return run_cim(OperatorSet(ops), ctx.x0, config)

    return _MethodPlan(None, run)


# The key of a methods entry that names the variant of its method tag.
_VARIANT_KEYS = {"cim": "operator_set", "averaged_iter": "builder"}

# (method tag, variant) -> (recipe, the other keys of a methods entry it reads)
_RECIPES = {
    ("cim", "psi"): (_plan_cim_psi, ("symmetrized", "prefix")),
    ("cim", "identity_plus_reflectors"): (partial(_plan_cim_averaged, "sum"), ("symmetrized",)),
    ("cim", "identity_plus_prefix_products"):
        (partial(_plan_cim_averaged, "product"), ("symmetrized",)),
    ("cim", "custom"): (_plan_cim_custom, ("operators",)),
    ("map", None): (_plan_map, ()),
    ("sym_map", None): (_plan_sym_map, ()),
    ("accel_map", None): (_plan_accel_map, ()),
    ("dr", None): (_plan_dr, ()),
    ("averaged_iter", "sum"): (_plan_averaged_iter, ()),
    ("averaged_iter", "product"): (_plan_averaged_iter, ()),
}


def _variant(spec: MethodSpec) -> Optional[str]:
    key = _VARIANT_KEYS.get(spec.method)
    return None if key is None else getattr(spec, key)


def _default_label(spec: MethodSpec, index: int) -> str:
    if spec.label is not None:
        return spec.label
    parts = [f"{index:02d}", spec.method, _variant(spec),
             "sym" if spec.method == "cim" and spec.symmetrized else None,
             None if spec.prefix == "none" else "prefixed"]
    return "_".join(part for part in parts if part is not None)


def _plan_method(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    recipe, _ = _RECIPES[spec.method, _variant(spec)]
    return recipe(spec, ctx)


def _plans(config: ExperimentConfig, ctx: _Instance):
    """(spec, label, plan) per method of the config, planned when asked for."""
    for m_index, spec in enumerate(config.methods):
        yield spec, _default_label(spec, m_index), _plan_method(spec, ctx)


@dataclass(frozen=True)
class MethodOutcome:
    label: str
    method: str
    trace: IterationTrace
    report: Optional[RateReport]

    def summary_obj(self) -> dict:
        errors = self.trace.errors
        to_target = next((k for k, error in enumerate(errors) if error <= _REACH_ERROR), None)
        return {
            "label": self.label,
            "method": self.method,
            "final_error": float(errors[-1]),
            "error_origin": self.trace.error_origin,
            "iterations": int(self.trace.stopped_at),
            "iters_to_1e-10": to_target,
            "rate": None if self.report is None else self.report.to_json_obj(),
        }


@dataclass(frozen=True)
class InstanceOutcome:
    label: str
    ambient_dim: int
    subspace_dims: tuple
    intersection_dim: int
    x0: np.ndarray
    methods: tuple
    extra_checks: tuple

    @property
    def all_ok(self) -> bool:
        audits = all(m.report is None or m.report.all_satisfied for m in self.methods)
        checks = all(passed for _, passed, _ in self.extra_checks)
        return audits and checks


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    environment: dict
    instances: tuple

    @property
    def all_ok(self) -> bool:
        return all(instance.all_ok for instance in self.instances)

    def to_json_obj(self, include_traces: bool = False) -> dict:
        return {
            "name": self.name,
            "environment": self.environment,
            "all_ok": self.all_ok,
            "instances": [
                {
                    "label": instance.label,
                    "ambient_dim": instance.ambient_dim,
                    "subspace_dims": list(instance.subspace_dims),
                    "intersection_dim": instance.intersection_dim,
                    "x0": [float(v) for v in instance.x0],
                    "extra_checks": [
                        {"name": name, "passed": passed, "detail": detail}
                        for name, passed, detail in instance.extra_checks
                    ],
                    "methods": [
                        (
                            {**m.summary_obj(), "trace": m.trace.to_json_obj()}
                            if include_traces
                            else m.summary_obj()
                        )
                        for m in instance.methods
                    ],
                }
                for instance in self.instances
            ],
        }

    def to_json(self, include_traces: bool = False) -> str:
        """Compact sorted-key JSON on one line; without an indent ``json``
        keeps its C encoder."""
        return json.dumps(self.to_json_obj(include_traces=include_traces),
                          sort_keys=True, separators=(",", ":"))


def _environment_stamp(config: ExperimentConfig) -> dict:
    return {
        "package": "circumproj",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "seed": config.seed,
    }


def _resolve_x0(spec: X0Spec, ambient_dim: int, instance_index: int) -> np.ndarray:
    if spec.kind == "explicit":
        return as_vector(list(spec.point))
    rng = np.random.default_rng((spec.seed, instance_index))
    raw = rng.standard_normal(ambient_dim)
    return raw / float(np.linalg.norm(raw))


def _resolve_instances(config: ExperimentConfig):
    """(label, subspaces, x0, intersection, product_fixed_line) per instance."""
    resolved = []
    if config.explicit_items is not None:
        for i, item in enumerate(config.explicit_items):
            subspaces = [subspace_from_literal(literal) for literal in item.subspace_literals]
            x0 = _resolve_x0(item.x0 or config.x0, config.ambient_dim, i)
            resolved.append((item.label, subspaces, x0, intersect(subspaces),
                             item.product_fixed_line))
    else:
        spec = config.random_instances
        for i in range(spec.count):
            rng = np.random.default_rng((spec.seed, i))
            subspaces, x0, inter = generate_instance(config.ambient_dim, spec.num_subspaces,
                                                     spec.dim_range, rng)
            resolved.append((f"random_{i:03d}", subspaces, x0, inter, None))
    return resolved


def _product_fixed_line_check(ctx: _Instance, direction):
    """Whether R_m .. R_1 fixes exactly the line through the origin along ``direction``."""
    product = identity(ctx.subspaces[0].ambient_dim)
    for reflector in ctx.reflectors:
        product = compose(reflector, product)
    fixed = fixed_point_set(product)
    if fixed is None:
        return ("product_fixed_line", False, "product has no fixed points")
    wanted = as_vector(list(direction))
    unit = wanted / float(np.linalg.norm(wanted))
    if fixed.dim != 1:
        return ("product_fixed_line", False, f"fixed set has dimension {fixed.dim}")
    basis_vec = fixed.basis[0]
    residual = float(np.linalg.norm(basis_vec - (basis_vec @ unit) * unit))
    through_origin = fixed.contains(np.zeros(fixed.ambient_dim))
    passed = residual <= EQ_TOL and through_origin
    return ("product_fixed_line", passed,
            f"dimension {fixed.dim}, direction residual {residual:.3e}")


def _run_methods(config: ExperimentConfig, ctx: _Instance) -> tuple:
    """Plan, run and audit every method of the config on one instance."""
    outcomes = []
    for spec, label, plan in _plans(config, ctx):
        max_iters = spec.max_iters if spec.max_iters is not None else config.max_iters
        trace = plan.run(MethodConfig(method=spec.method, max_iters=max_iters,
                                      stop_tol=config.stop_tol))
        report = None if plan.constant is None else audit_bound(trace, plan.constant)
        outcomes.append(MethodOutcome(label, spec.method, trace, report))
    return tuple(outcomes)


def run_experiment(config: ExperimentConfig, out_dir=None, fmt: str = "csv",
                   write: bool = True) -> ExperimentReport:
    """Run every method on every instance, audit the bounds, write artifacts.

    With fmt 'csv' each instance/method pair gets a trace CSV and, when a
    bound was audited, a rate CSV next to report.json; with fmt 'json' the
    rows are embedded in report.json instead. All writes go through a
    temp-file-and-rename so partially written artifacts never appear.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    outcomes = []
    for label, subspaces, x0, inter, fixed_line in _resolve_instances(config):
        ctx = _Instance(subspaces, x0, inter)
        method_outcomes = _run_methods(config, ctx)
        checks = [] if fixed_line is None else [_product_fixed_line_check(ctx, fixed_line)]
        del ctx  # its shared parts are freed before the next instance and the artifacts
        outcomes.append(InstanceOutcome(
            label=label,
            ambient_dim=config.ambient_dim,
            subspace_dims=tuple(int(s.dim) for s in subspaces),
            intersection_dim=-1 if inter.is_empty else int(inter.subspace.dim),
            x0=x0,
            methods=method_outcomes,
            extra_checks=tuple(checks),
        ))
    report = ExperimentReport(name=config.name,
                              environment=_environment_stamp(config),
                              instances=tuple(outcomes))
    if write:
        target = Path(out_dir) if out_dir is not None else Path(config.out_dir or f"{config.name}_out")
        _write_report(report, target, fmt)
    return report


def _write_atomic(path: Path, data: str) -> None:
    """Write through ``<name>.tmp`` and a rename, so readers see the old
    file or the whole new one. A failed write removes the temp file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_report(report: ExperimentReport, out_dir: Path, fmt: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        for instance in report.instances:
            for outcome in instance.methods:
                stem = _stem(instance.label, outcome.label)
                _write_atomic(out_dir / f"{stem}.trace.csv", outcome.trace.to_csv())
                if outcome.report is not None:
                    _write_atomic(out_dir / f"{stem}.rate.csv", outcome.report.to_csv())
    _write_atomic(out_dir / "report.json",
                  report.to_json(include_traces=(fmt == "json")) + "\n")


def compute_rates(config: ExperimentConfig) -> list:
    """Theoretical constants for every instance/method pair, without tracing.

    Each row's ``rate`` is the method's report.json ``rate`` less the audit keys.
    Nothing is iterated, and no operator family is built that only the
    iteration needs.
    """
    rows = []
    for label, subspaces, x0, inter, _ in _resolve_instances(config):
        ctx = _Instance(subspaces, x0, inter)
        for _, method_label, plan in _plans(config, ctx):
            rows.append({
                "instance": label,
                "method": method_label,
                "rate": None if plan.constant is None else plan.constant.to_json_obj(),
            })
    return rows
