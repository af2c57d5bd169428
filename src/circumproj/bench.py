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
from collections import abc
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import __version__
from .circumcenter import OperatorSet, _require_subset_limit, build_psi
from .isometry import (
    AffineIsometry,
    AffineMap,
    build_product_averaged,
    build_sum_averaged,
    compose,
    fixed_point_set,
    make_reflector,
)
from .methods import (
    METHOD_TAGS,
    IterationTrace,
    MethodConfig,
    _mirrored,
    _sweep,
    dr_operator,
    run_cim,
    run_linear,
    run_map,
)
from .numerics import EQ_TOL, _one_blas_thread, _row_norms, as_vector, spectral_norm
from .rates import (
    AccelConstants,
    RateConstant,
    RateReport,
    _chain_start,
    _require_chain,
    accel_constants,
    audit_bound,
    operator_rate,
)
from .subspace import AffineSubspace, Intersection, intersect

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


@dataclass(frozen=True)
class X0Spec:
    kind: str
    point: Optional[tuple] = None
    seed: Optional[int] = None


@dataclass(frozen=True)
class InstanceItem:
    label: str
    subspaces: tuple  # the AffineSubspaces of its literals
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
    label: str
    variant: Optional[str] = None  # a cim entry's operator_set, an averaged_iter one's builder
    symmetrized: bool = False
    prefix: str = "none"
    family: Optional[OperatorSet] = None  # a custom set's, shared by every instance
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
    instances: Union[tuple, RandomInstances]  # the InstanceItems, or their random source
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


def _nonempty_list(mapping: dict, key: str, path: str) -> list:
    """The required ``key`` of ``mapping`` as a nonempty list."""
    items = _expect_list(_get(mapping, key, path), f"{path}.{key}")
    if not items:
        raise ConfigError(f"{path}.{key}: must be nonempty")
    return items


# Lower bounds of config integers, each with the words of its error.
_NONNEGATIVE = (0, "must be nonnegative")
_POSITIVE = (1, "must be positive")


def _as_int(value, path: str, bound: Optional[tuple] = None) -> int:
    """``value`` as an integer, and at least ``bound``'s least value when
    given. A seed is nonnegative: numpy's generators take no other."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if bound is not None and value < bound[0]:
        raise ConfigError(f"{path}: {bound[1]}")
    return value


def _as_number(value, path: str) -> float:
    """``value`` as a finite float. Python's json reads ``NaN`` and
    ``Infinity``, so they are refused here, and so is an integer that
    rounds to infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {number!r}")
    return number


def _vector(value, path: str, ambient_dim: int, entry=_as_number) -> tuple:
    """``value`` as a list of ``ambient_dim`` entries, each read by
    ``entry``: finite numbers, or the rows of a matrix."""
    entries = _expect_list(value, path)
    if len(entries) != ambient_dim:
        raise ConfigError(f"{path}: expected {ambient_dim} entries, got {len(entries)}")
    return tuple(entry(v, f"{path}[{i}]") for i, v in enumerate(entries))


def _nonempty_string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a nonempty string")
    return value


def _file_label(value, path: str) -> str:
    """``value`` as a label, which names artifact files."""
    label = _nonempty_string(value, path)
    if any(c in label for c in "/\\\0"):
        raise ConfigError(f"{path}: {label!r} may not contain '/', '\\' or NUL")
    return label


def _parse_x0(obj, path: str, ambient_dim: int) -> X0Spec:
    mapping = _expect_mapping(obj, path, ("kind", "point", "seed"))
    kind = _get(mapping, "kind", path)
    if kind == "explicit":
        return X0Spec(kind="explicit",
                      point=_vector(_get(mapping, "point", path), f"{path}.point", ambient_dim))
    if kind == "random_unit":
        return X0Spec(kind="random_unit",
                      seed=_as_int(_get(mapping, "seed", path), f"{path}.seed", _NONNEGATIVE))
    raise ConfigError(f"{path}.kind: expected 'explicit' or 'random_unit', got {kind!r}")


def _choice(mapping: dict, key: str, default, choices: tuple, path: str):
    value = mapping.get(key, default)
    if value not in choices:
        raise ConfigError(f"{path}.{key}: unknown value {value!r}, expected one of {choices}")
    return value


def _default_label(index: int, method: str, variant: Optional[str], symmetrized: bool,
                   prefix: str) -> str:
    """The label of a methods entry that sets none, like ``01_cim_psi``."""
    parts = [f"{index:02d}", method, variant, "sym" if symmetrized else None,
             None if prefix == "none" else "prefixed"]
    return "_".join(part for part in parts if part is not None)


def _built(path: str, constructor, *args):
    """``constructor(*args)``, its ValueError a config error at ``path``:
    the library's own checks, such as orthogonality, name the literal."""
    try:
        return constructor(*args)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def _subspace(obj, path: str, ambient_dim: int) -> AffineSubspace:
    """A subspace literal: an ``anchor`` point, a ``span`` of raw vectors
    attached at the anchor or at the origin, or both."""
    mapping = _expect_mapping(obj, path, ("anchor", "span"))
    if not mapping:
        raise ConfigError(f"{path}: needs an 'anchor' or a 'span' key")
    anchor = (_vector(mapping["anchor"], f"{path}.anchor", ambient_dim) if "anchor" in mapping
              else np.zeros(ambient_dim))
    if "span" not in mapping:
        return AffineSubspace.point(anchor)
    span = [_vector(v, f"{path}.span[{k}]", ambient_dim)
            for k, v in enumerate(_nonempty_list(mapping, "span", path))]
    return _built(path, AffineSubspace.from_span, anchor, span)


# The keys of an operator literal of each kind, besides "kind"; an
# orthogonal map's offset is optional.
_OPERATOR_KEYS = {"reflector": ("subspace",), "translation": ("offset",),
                  "orthogonal": ("matrix", "offset"), "compose": ("factors",)}


def _operator(obj, path: str, ambient_dim: int) -> AffineIsometry:
    """An operator literal as an isometry of R^ambient_dim. The factors of
    a ``compose`` literal act in turn, the first one first."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(obj).__name__}")
    _get(obj, "kind", path)
    kind = _choice(obj, "kind", None, tuple(_OPERATOR_KEYS), path)
    mapping = _expect_mapping(obj, path, ("kind", *_OPERATOR_KEYS[kind]))
    if kind == "reflector":
        subspace = _subspace(_get(mapping, "subspace", path), f"{path}.subspace", ambient_dim)
        return _built(path, make_reflector, subspace)
    if kind == "compose":
        factors = [_operator(factor, f"{path}.factors[{k}]", ambient_dim)
                   for k, factor in enumerate(_nonempty_list(mapping, "factors", path))]
        product = factors[0]
        for factor in factors[1:]:
            product = _built(path, compose, factor, product)
        return product
    if kind == "translation":
        offset = _vector(_get(mapping, "offset", path), f"{path}.offset", ambient_dim)
        return _built(path, AffineIsometry, np.eye(ambient_dim), offset)
    matrix = _vector(_get(mapping, "matrix", path), f"{path}.matrix", ambient_dim,
                     partial(_vector, ambient_dim=ambient_dim))
    offset = (_vector(mapping["offset"], f"{path}.offset", ambient_dim) if "offset" in mapping
              else np.zeros(ambient_dim))
    return _built(path, AffineIsometry, matrix, offset)


def _custom_family(literals: list, path: str, ambient_dim: int) -> OperatorSet:
    """The family of a custom set's operator literals, built once, when the
    config is parsed. A literal that is no isometry of R^ambient_dim, or a
    family with no common fixed point, is a config error at ``path``."""
    return _built(path, OperatorSet, [_operator(literal, f"{path}[{j}]", ambient_dim)
                                      for j, literal in enumerate(literals)])


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
    variant = None
    keys = ("method", "label", "max_iters")
    if method in _VARIANT_KEYS:
        key, default = _VARIANT_KEYS[method]
        variants = tuple(v for m, v in _RECIPES if m == method)
        variant = _choice(obj, key, default, variants, path)
        keys += (key,)
    mapping = _expect_mapping(obj, path, (*keys, *_RECIPES[method, variant][1]))
    prefix = _choice(mapping, "prefix", "none", PREFIX_KINDS, path)
    symmetrized = mapping.get("symmetrized", False)
    if not isinstance(symmetrized, bool):
        raise ConfigError(f"{path}.symmetrized: expected a boolean")
    if prefix == "sym_map_product" and not symmetrized:
        raise ConfigError(
            f"{path}.prefix: 'sym_map_product' requires method 'cim' with "
            "operator_set 'psi' and symmetrized true"
        )
    family = (_custom_family(_nonempty_list(mapping, "operators", path), f"{path}.operators",
                             ambient_dim) if variant == "custom" else None)
    label = mapping.get("label")
    label = (_default_label(index, method, variant, symmetrized, prefix) if label is None
             else _file_label(label, f"{path}.label"))
    max_iters = mapping.get("max_iters")
    if max_iters is not None:
        max_iters = _as_int(max_iters, f"{path}.max_iters", _NONNEGATIVE)
    return MethodSpec(method=method, label=label, variant=variant, symmetrized=symmetrized,
                      prefix=prefix, family=family, max_iters=max_iters)


@_one_blas_thread()
def parse_config(obj, source: str = "config") -> ExperimentConfig:
    """Validate a parsed JSON object into an :class:`ExperimentConfig`.

    Raises :class:`ConfigError` with the offending key path on any problem.
    Subspace and operator literals are read by the helpers that read every
    other key, and each is built once, here: the config holds the subspaces
    and custom families it built, and every run shares them.
    """
    root = _expect_mapping(obj, source, ("name", "ambient_dim", "seed", "max_iters", "stop_tol",
                                         "x0", "instances", "methods", "out_dir"))
    name = _nonempty_string(_get(root, "name", source), f"{source}.name")
    ambient_dim = _as_int(_get(root, "ambient_dim", source), f"{source}.ambient_dim",
                          (1, "must be at least 1"))
    seed = _as_int(root.get("seed", 0), f"{source}.seed", _NONNEGATIVE)
    max_iters = _as_int(root.get("max_iters", 50), f"{source}.max_iters", _NONNEGATIVE)
    stop_tol = _as_number(root.get("stop_tol", 0.0), f"{source}.stop_tol")
    if stop_tol < 0:
        raise ConfigError(f"{source}.stop_tol: must be nonnegative")
    raw_instances = _expect_mapping(_get(root, "instances", source), f"{source}.instances",
                                    ("kind", "items", "count", "num_subspaces", "dim_range",
                                     "seed"))
    kind = _get(raw_instances, "kind", f"{source}.instances")
    raw_x0 = root.get("x0", {"kind": "random_unit", "seed": seed})
    if kind == "random" and isinstance(raw_x0, dict) and raw_x0.get("kind") == "explicit":
        raise ConfigError(f"{source}.x0: random instances draw their own start points")
    x0 = _parse_x0(raw_x0, f"{source}.x0", ambient_dim)
    if kind == "explicit":
        items = []
        for i, raw in enumerate(_nonempty_list(raw_instances, "items", f"{source}.instances")):
            path = f"{source}.instances.items[{i}]"
            mapping = _expect_mapping(raw, path, ("label", "subspaces", "x0", "product_fixed_line"))
            label = _file_label(mapping.get("label", f"instance_{i:02d}"), f"{path}.label")
            literals = _nonempty_list(mapping, "subspaces", path)
            subspaces = tuple(_subspace(literal, f"{path}.subspaces[{j}]", ambient_dim)
                              for j, literal in enumerate(literals))
            item_x0 = (_parse_x0(mapping["x0"], f"{path}.x0", ambient_dim)
                       if "x0" in mapping else None)
            fixed_line = mapping.get("product_fixed_line")
            if fixed_line is not None:
                line_path = f"{path}.product_fixed_line"
                fixed_line = _vector(fixed_line, line_path, ambient_dim)
                if not any(fixed_line):
                    raise ConfigError(f"{line_path}: must be a nonzero direction")
            items.append(InstanceItem(label=label, subspaces=subspaces,
                                      x0=item_x0, product_fixed_line=fixed_line))
        if len({item.label for item in items}) != len(items):
            raise ConfigError(f"{source}.instances.items: labels must be unique")
        instances = tuple(items)
    elif kind == "random":
        path = f"{source}.instances"
        count = _as_int(_get(raw_instances, "count", path), f"{path}.count", _POSITIVE)
        num_subspaces = _as_int(_get(raw_instances, "num_subspaces", path),
                                f"{path}.num_subspaces", _POSITIVE)
        dim_range = _expect_list(_get(raw_instances, "dim_range", path), f"{path}.dim_range")
        if len(dim_range) != 2:
            raise ConfigError(f"{path}.dim_range: expected [low, high]")
        lo = _as_int(dim_range[0], f"{path}.dim_range[0]")
        hi = _as_int(dim_range[1], f"{path}.dim_range[1]")
        rseed = _as_int(_get(raw_instances, "seed", path), f"{path}.seed", _NONNEGATIVE)
        if not 1 <= lo <= hi <= ambient_dim:
            raise ConfigError(f"{path}.dim_range: need 1 <= low <= high <= ambient_dim")
        instances = RandomInstances(count=count, num_subspaces=num_subspaces,
                                    dim_range=(lo, hi), seed=rseed)
    else:
        raise ConfigError(f"{source}.instances.kind: expected 'explicit' or 'random', got {kind!r}")

    methods = tuple(_parse_method(m, i, ambient_dim, source)
                    for i, m in enumerate(_nonempty_list(root, "methods", source)))
    counts = ((instances.num_subspaces,) if isinstance(instances, RandomInstances)
              else tuple(len(item.subspaces) for item in instances))
    for i, spec in enumerate(methods):
        if spec.method == "dr" and min(counts) < 2:
            raise ConfigError(f"{source}.methods[{i}]: method 'dr' needs at least two "
                              f"subspaces, an instance has {min(counts)}")
        if spec.variant == "psi":
            # build_psi's own rule, on the palindrome's 2m - 1 reflectors when symmetrized
            reflectors = 2 * max(counts) - 1 if spec.symmetrized else max(counts)
            try:
                _require_subset_limit(reflectors)
            except ValueError as err:
                raise ConfigError(f"{source}.methods[{i}]: operator_set 'psi' over "
                                  f"{reflectors} reflectors: {err}") from None
    _require_unique_file_names(methods, instances, source)

    out_dir = root.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"{source}.out_dir: expected a string")
    if out_dir == "":
        raise ConfigError(f"{source}.out_dir: must be nonempty")

    return ExperimentConfig(name=name, ambient_dim=ambient_dim, seed=seed,
                            max_iters=max_iters, stop_tol=stop_tol, x0=x0,
                            methods=methods, instances=instances, out_dir=out_dir)


def _require_unique_file_names(methods: tuple, instances, source: str) -> None:
    """Each method's label, its default included, and each artifact file
    stem must be unique, or one run's files would overwrite another's.
    Random instance labels ``random_NNN`` hold no ``__`` and are unique, so
    their stems are unique once the method labels are."""
    labels = {}
    for i, spec in enumerate(methods):
        if spec.label in labels:
            raise ConfigError(f"{source}.methods[{i}].label: labels must be unique, "
                              f"{spec.label!r} is also the label of methods[{labels[spec.label]}]")
        labels[spec.label] = i
    stems = {}
    for i, item in enumerate(() if isinstance(instances, RandomInstances) else instances):
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
    """Read and validate a JSON config file, as UTF-8 text (RFC 8259); a
    byte that is not UTF-8 and a key given twice in one object are config
    errors."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text at byte {err.start}") from None

    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        obj = json.loads(text, object_pairs_hook=unique_keys)
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
    Shifted by :func:`_instance`, both hold direction spaces, ``shift`` is z,
    and the recipes start at x0 - z, a ``custom`` family at ``x0`` itself.
    ``inter``'s subspace is the fixed set of every recipe but ``dr``, and the
    drivers and rate functions take it as a required argument, so it is
    decided here. Deriving it from A - I, as ``fixed_point_set`` does, is
    ill-conditioned at small angles theta: the smallest singular values of
    A - I are of order theta^2.

    ``sym_op`` is the palindromic sweep P_1 .. P_m .. P_1, and ``tuple_cos``
    the norm of its first half applied to I - P_fixed, the chain of
    ``tuple_angle_cos``: each projector is formed once for both, and
    reading either computes both. On an affine or empty instance
    ``tuple_cos`` raises ``tuple_angle_cos``'s error.

    The instance holds the reflectors that ``dr``, a circumcentered family
    or the ``product_fixed_line`` check asked for, each made on first use.
    The averaged builders read each operator once, in order, and hold none,
    so they read the family through :class:`_ReflectorsOnRead`: a reflector
    the instance holds, or one made for that read and dropped after it."""

    subspaces: Sequence
    x0: np.ndarray
    inter: Intersection
    shift: Optional[np.ndarray] = None
    _reflectors: dict = field(default_factory=dict, init=False, repr=False)
    _averaged: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def start(self) -> np.ndarray:
        return self.x0 if self.shift is None else self.x0 - self.shift

    def reflector(self, index: int) -> AffineIsometry:
        """The reflector through subspace ``index``, made on first use and
        held, so a recipe that needs two of them makes only those two."""
        if index not in self._reflectors:
            self._reflectors[index] = make_reflector(self.subspaces[index])
        return self._reflectors[index]

    def _family_indices(self, symmetrized: bool) -> list:
        """Subspace indices 0..m-1, as the palindrome 0..m-1..0 when symmetrized."""
        indices = list(range(len(self.subspaces)))
        return _mirrored(indices) if symmetrized else indices

    def family(self, symmetrized: bool) -> list:
        """The reflectors, as the palindrome R1..Rm..R1 when symmetrized."""
        return [self.reflector(i) for i in self._family_indices(symmetrized)]

    def averaged(self, builder: str, symmetrized: bool) -> AffineMap:
        """The uniform averaged map ``builder`` makes of the family, one
        object per (builder, family), so its spectral data is taken once."""
        key = builder, symmetrized
        if key not in self._averaged:
            family = _ReflectorsOnRead(self, self._family_indices(symmetrized))
            self._averaged[key] = _AVERAGED_BUILDERS[builder](family)
        return self._averaged[key]

    @cached_property
    def _palindrome(self) -> tuple:
        """``sym_op`` and the norm of its sweep's first half applied to
        I - P_fixed, the tuple chain."""
        half = list(self.subspaces)
        op, chain = _sweep(_mirrored(half), len(half), _chain_start(self.inter.subspace))
        return op, spectral_norm(chain)

    @property
    def sym_op(self) -> AffineMap:
        return self._palindrome[0]

    @cached_property
    def tuple_cos(self) -> float:
        _require_chain(self.subspaces, self.inter.subspace)
        return self._palindrome[1]

    @cached_property
    def accel(self) -> AccelConstants:
        return accel_constants(self.sym_op, fixed=self.inter.subspace)


class _ReflectorsOnRead(abc.Sequence):
    """The reflectors through an instance's subspaces at ``indices``, made
    on each read unless the instance holds them, and never kept here."""

    def __init__(self, ctx: _Instance, indices: list):
        self._ctx, self._indices = ctx, indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, position: int) -> AffineIsometry:
        index = self._indices[position]
        held = self._ctx._reflectors.get(index)
        return held if held is not None else make_reflector(self._ctx.subspaces[index])


def _linear_plan(constant_name: str, op: AffineMap, fixed: AffineSubspace,
                 ctx: _Instance, **ingredients) -> _MethodPlan:
    rate = operator_rate(op, fixed)
    return _MethodPlan(RateConstant(constant_name, rate, {"operator_rate": rate, **ingredients}),
                       lambda config: run_linear(op, ctx.start, config, fixed=fixed))


def _plan_map(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    gamma = ctx.tuple_cos
    return _MethodPlan(RateConstant("cyclic_projection_tuple_rate", gamma,
                                    {"tuple_angle_cos": gamma}),
                       lambda config: run_map(ctx.subspaces, ctx.start, config,
                                              fixed=ctx.inter.subspace))


def _plan_sym_map(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    return _linear_plan("symmetric_product_rate", ctx.sym_op, ctx.inter.subspace, ctx,
                        tuple_angle_cos_half=ctx.tuple_cos)


def _plan_accel_map(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    return _MethodPlan(RateConstant("acceleration_rate", ctx.accel.eta,
                                    dataclasses.asdict(ctx.accel)),
                       lambda config: run_linear(ctx.sym_op, ctx.start, config,
                                                 fixed=ctx.inter.subspace))


def _plan_dr(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    op = dr_operator(ctx.reflector(0), ctx.reflector(1))
    # Fix(op) = (U ∩ V) ⊕ (U⊥ ∩ V⊥), not the intersection; the singular
    # values of A - I are of order theta here, so A - I decides it well.
    return _linear_plan("douglas_rachford_rate", op, fixed_point_set(op), ctx)


_AVERAGED_BUILDERS = {"sum": build_sum_averaged, "product": build_product_averaged}


def _plan_averaged_iter(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    op = ctx.averaged(spec.variant, symmetrized=False)
    return _linear_plan(f"{spec.variant}_averaged_rate", op, ctx.inter.subspace, ctx)


def _plan_cim_psi(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    prefix = ctx.sym_op if spec.prefix == "sym_map_product" else None

    def run(config: MethodConfig) -> IterationTrace:
        # the reflectors are made here: the constant needs none of them
        config = dataclasses.replace(config, prefix=prefix)
        operator_set = build_psi(ctx.family(spec.symmetrized), fixed=ctx.inter.subspace)
        return run_cim(operator_set, ctx.start, config)

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
        return run_cim(operator_set, ctx.start, config)

    rate = operator_rate(ctx.averaged(builder, spec.symmetrized), ctx.inter.subspace)
    constant = RateConstant(f"{builder}_averaged_rate", rate, {"operator_rate": rate})
    return _MethodPlan(constant, run)


def _plan_cim_custom(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    return _MethodPlan(None, lambda config: run_cim(spec.family, ctx.x0, config))


# The key of a methods entry that names the variant of its method tag, and
# the variant when the entry omits it.
_VARIANT_KEYS = {"cim": ("operator_set", "psi"), "averaged_iter": ("builder", "sum")}

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


def _plan_method(spec: MethodSpec, ctx: _Instance) -> _MethodPlan:
    recipe, _ = _RECIPES[spec.method, spec.variant]
    return recipe(spec, ctx)


@dataclass(frozen=True)
class MethodOutcome:
    label: str
    trace: IterationTrace
    report: Optional[RateReport]


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
    spec = config.instances
    if isinstance(spec, RandomInstances):
        for i in range(spec.count):
            rng = np.random.default_rng((spec.seed, i))
            subspaces, x0, inter = generate_instance(config.ambient_dim, spec.num_subspaces,
                                                     spec.dim_range, rng)
            resolved.append((f"random_{i:03d}", subspaces, x0, inter, None))
        return resolved
    for i, item in enumerate(spec):
        x0 = _resolve_x0(item.x0 or config.x0, config.ambient_dim, i)
        resolved.append((item.label, item.subspaces, x0, intersect(item.subspaces),
                         item.product_fixed_line))
    return resolved


def _instance(subspaces, x0: np.ndarray, inter: Intersection) -> _Instance:
    """The instance the recipes plan: when an anchor is nonzero and M is not
    empty, the direction spaces and M's, shifted by z, M's minimum-norm point.
    Errors are distances, so every verdict is the linear run's; a direction
    space drops only its offset from z, which ``intersect`` bounded."""
    if inter.is_empty or not any(s.anchor.any() for s in subspaces):
        return _Instance(subspaces, x0, inter)
    zero = np.zeros(len(x0))
    return _Instance([AffineSubspace(zero, s.basis) for s in subspaces], x0,
                     Intersection(AffineSubspace(zero, inter.subspace.basis), inter.residual),
                     shift=inter.subspace.anchor)


def _product_fixed_line_check(ctx: _Instance, direction):
    """Whether R_m .. R_1's linear part fixes exactly the line along
    ``direction``: the direction of its fixed line, which passes through z."""
    product, *rest = ctx.family(symmetrized=False)
    for reflector in rest:
        product = compose(reflector, product)
    fixed = fixed_point_set(AffineMap(product.A, np.zeros(product.ambient_dim)))
    wanted = as_vector(list(direction))
    unit = wanted / float(np.linalg.norm(wanted))
    if fixed.dim != 1:
        return ("product_fixed_line", False, f"fixed set has dimension {fixed.dim}")
    basis_vec = fixed.basis[0]
    residual = float(np.linalg.norm(basis_vec - (basis_vec @ unit) * unit))
    passed = residual <= EQ_TOL
    return ("product_fixed_line", passed,
            f"dimension {fixed.dim}, direction residual {residual:.3e}")


def _run_methods(config: ExperimentConfig, ctx: _Instance) -> tuple:
    """Plan, run and audit every method of the config on one instance; on a
    shifted one, map each trace but a ``custom`` family's back by z."""
    outcomes = []
    for spec in config.methods:
        plan = _plan_method(spec, ctx)
        max_iters = spec.max_iters if spec.max_iters is not None else config.max_iters
        trace = plan.run(MethodConfig(method=spec.method, max_iters=max_iters,
                                      stop_tol=config.stop_tol))
        if ctx.shift is not None and spec.variant != "custom":
            trace = dataclasses.replace(trace, iterates=trace.iterates + ctx.shift,
                                        x0_original=ctx.x0, target=trace.target + ctx.shift)
        report = None if plan.constant is None else audit_bound(trace, plan.constant)
        outcomes.append(MethodOutcome(spec.label, trace, report))
    return tuple(outcomes)


@_one_blas_thread()
def run_experiment(config: ExperimentConfig, out_dir=None, fmt: str = "csv") -> ExperimentReport:
    """Run every method on every instance and audit the bounds; write the
    artifacts into ``out_dir`` when one is given, and nothing otherwise.

    With fmt 'csv' each instance/method pair gets a trace CSV and, when a
    bound was audited, a rate CSV next to report.json; with fmt 'json' the
    rows are embedded in report.json instead. All writes go through a
    temp-file-and-rename so partially written artifacts never appear.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    outcomes = []
    for label, subspaces, x0, inter, fixed_line in _resolve_instances(config):
        ctx = _instance(subspaces, x0, inter)
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
    if out_dir is not None:
        _write_report(report, Path(out_dir), fmt)
    return report


def _write_atomic(path: Path, pieces) -> None:
    """Write the text ``pieces`` in turn through ``<name>.tmp`` and a rename,
    so readers see the old file or the whole new one. A failed write, an
    iterator that raises included, removes the temp file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_encode = partial(json.dumps, sort_keys=True, separators=(",", ":"))

# json's spelling of the floats that repr spells nan, inf and -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The error whose first reach a method record holds as "iters_to_1e-10".
_REACH_ERROR = 1e-10


def _float_texts(column: np.ndarray) -> list:
    """``repr`` of each float of a column."""
    return list(map(repr, column.tolist()))


def _json_texts(column: np.ndarray, texts: list) -> list:
    """A column's ``repr`` texts as ``json`` writes its floats: the same
    texts, unless a float is not finite and spelled NaN, Infinity or -Infinity."""
    if np.isfinite(column).all():
        return texts
    return [_JSON_NONFINITE.get(text, text) for text in texts]


def _rows_text(template: str, separator: str, *columns) -> str:
    """``template`` filled with each row's items of ``columns``, the rows
    joined by ``separator``, by one ``%`` over every field."""
    width, count = len(columns), len(columns[0])
    fields = [None] * (width * count)
    for index, column in enumerate(columns):
        fields[index::width] = column
    fields = tuple(fields)  # the list is freed before the text is formatted
    return separator.join([template] * count) % fields


def _vector_text(vector: np.ndarray) -> str:
    """A vector as ``json`` writes it in a list, without the brackets."""
    return ",".join(_json_texts(vector, _float_texts(vector)))


def _trace_csv(trace: IterationTrace) -> str:
    """One row per iterate at 17 significant digits, by one template. The
    x_norm column, by ``_row_norms``, is the one column computed at writing,
    not stored by the run: on a 2-vCPU Xeon, a dot per step would cost about
    4 ms on an iterate-long operation, this about 0.15 ms."""
    return "k,x_norm,error,step_norm\n" + _rows_text(
        "%d,%.17g,%.17g,%.17g\n", "", range(trace.iterates.shape[0]),
        _row_norms(trace.iterates).tolist(), trace.errors.tolist(), trace.step_norms.tolist())


def _trace_rows(trace: IterationTrace, error: list) -> str:
    """A trace record's ``rows`` as ``json`` writes them, without their
    brackets. ``error`` is the json text of the error column."""
    x_norm, step = _row_norms(trace.iterates), trace.step_norms
    return _rows_text('{"error":%s,"k":%d,"step_norm":%s,"x_norm":%s}', ",",
                      error, range(len(error)), _json_texts(step, _float_texts(step)),
                      _json_texts(x_norm, _float_texts(x_norm)))


def _rate_csv(audit: RateReport, error: list, bound: list) -> str:
    """One row per audited iterate, each float by its ``repr``."""
    return "k,error,bound,slack\n" + _rows_text(
        "%d,%s,%s,%s\n", "", range(len(error)), error, bound, _float_texts(audit.slacks))


def _audit_rows(audit: RateReport, error: list, bound: list) -> str:
    """An audit record's ``per_iteration`` as ``json`` writes it, without
    the brackets, from the json texts of the error and bound columns."""
    satisfied = map(("false", "true").__getitem__, audit.satisfied.tolist())
    return _rows_text('{"bound":%s,"error":%s,"k":%d,"satisfied":%s}', ",",
                      bound, error, range(len(error)), list(satisfied))


def _constant_record(constant: RateConstant) -> dict:
    return {
        "constant_name": constant.name,
        "value": float(constant.value),
        "ingredients": {k: float(v) for k, v in sorted(constant.ingredients.items())},
    }


def _method_record(outcome: MethodOutcome, embedded: bool) -> dict:
    """A method's report.json record with its rows and vectors as empty
    lists: its summary, its audit and, when ``embedded``, its trace. verify
    prints it, and the writer fills the lists with text."""
    trace, audit = outcome.trace, outcome.report
    reached = trace.errors <= _REACH_ERROR
    first = int(np.argmax(reached))
    record = {
        "label": outcome.label,
        "method": trace.method,
        "final_error": float(trace.errors[-1]),
        "error_origin": trace.error_origin,
        "iterations": trace.stopped_at,
        "iters_to_1e-10": first if reached[first] else None,
        "rate": None if audit is None else {
            **_constant_record(audit.constant),
            "slack_min": audit.slack_min,
            "all_satisfied": audit.all_satisfied,
            "per_iteration": [],
        },
    }
    if embedded:
        record["trace"] = {
            "method": trace.method,
            "ambient_dim": int(trace.ambient_dim),
            "stopped_at": trace.stopped_at,
            "x0_original": [],
            "target": [],
            "error_origin": trace.error_origin,
            "rows": [],
        }
    return record


def _document(report: ExperimentReport, embedded: bool) -> dict:
    """The report.json object, its rows and vectors as empty lists."""
    return {
        "name": report.name,
        "environment": report.environment,
        "all_ok": report.all_ok,
        "instances": [
            {
                "label": instance.label,
                "ambient_dim": instance.ambient_dim,
                "subspace_dims": list(instance.subspace_dims),
                "intersection_dim": instance.intersection_dim,
                "x0": [],
                "extra_checks": [
                    {"name": name, "passed": passed, "detail": detail}
                    for name, passed, detail in instance.extra_checks
                ],
                "methods": [_method_record(outcome, embedded) for outcome in instance.methods],
            }
            for instance in report.instances
        ],
    }


def _method_pieces(outcome: MethodOutcome, out_dir: Path, stem: str, fmt: str):
    """Write one method's CSVs in csv mode, then yield ``(opening, items)``
    for each list of its report.json record that the writer fills, in the
    record's order: the list's opening text and the text of its items.

    Each float column is formatted once for each format it appears in: the
    audit's error and bound ``repr`` texts fill both its rate CSV and its
    ``per_iteration`` rows, and the trace's embedded rows share the error
    text, since an audit holds its trace's own error array.
    """
    trace, audit = outcome.trace, outcome.report
    embedded = fmt == "json"
    if not embedded:
        _write_atomic(out_dir / f"{stem}.trace.csv", (_trace_csv(trace),))
    error = None
    if audit is not None:
        error_text, bound_text = _float_texts(audit.errors), _float_texts(audit.bounds)
        if not embedded:
            _write_atomic(out_dir / f"{stem}.rate.csv", (_rate_csv(audit, error_text, bound_text),))
        error = _json_texts(audit.errors, error_text)
        yield '"per_iteration":[', _audit_rows(audit, error, _json_texts(audit.bounds, bound_text))
    if embedded:
        if error is None:
            error = _json_texts(trace.errors, _float_texts(trace.errors))
        yield '"rows":[', _trace_rows(trace, error)
        yield '"target":[', _vector_text(trace.target)
        yield '"x0_original":[', _vector_text(trace.x0_original)


def _lists(report: ExperimentReport, out_dir: Path, fmt: str):
    """Each ``(opening, items)`` pair of report.json in document order: an
    instance's methods' (see ``_method_pieces``), then its ``"x0"``."""
    for instance in report.instances:
        for outcome in instance.methods:
            yield from _method_pieces(outcome, out_dir, _stem(instance.label, outcome.label), fmt)
        yield '"x0":[', _vector_text(instance.x0)


def _report_json_pieces(report: ExperimentReport, out_dir: Path, fmt: str):
    """report.json as text pieces, a compact sorted-key ``json`` document and
    a newline; in csv mode each method's CSVs are written as it is reached.

    The document is encoded once with its rows and vectors as empty lists.
    Each list's text is spliced in at the first ``"rows":[]``, ``"x0":[]``
    and so on after the last splice, in the order of :func:`_lists`: only
    the schema's keys form that text, as a quote in a string is escaped.
    """
    text = _encode(_document(report, fmt == "json"))
    done = 0
    for opening, items in _lists(report, out_dir, fmt):
        at = text.index(opening + "]", done) + len(opening)
        yield from (text[done:at], items)
        done = at
        del items  # freed before the next list is formatted
    yield text[done:] + "\n"


def _write_report(report: ExperimentReport, out_dir: Path, fmt: str) -> None:
    """Every artifact in one pass over the methods. report.json is written
    last by its rename, so a CSV write that fails leaves the old one."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "report.json", _report_json_pieces(report, out_dir, fmt))


@_one_blas_thread()
def compute_rates(config: ExperimentConfig) -> list:
    """Theoretical constants for every instance/method pair, without tracing.

    Each row's ``rate`` is the method's report.json ``rate`` less the audit keys.
    Nothing is iterated, and no operator family is built that only the
    iteration needs.
    """
    rows = []
    for label, subspaces, x0, inter, _ in _resolve_instances(config):
        ctx = _instance(subspaces, x0, inter)
        for spec in config.methods:
            constant = _plan_method(spec, ctx).constant
            rows.append({
                "instance": label,
                "method": spec.label,
                "rate": None if constant is None else _constant_record(constant),
            })
    return rows
