"""Shared builders for seeded random test instances."""

import importlib
import json
import math
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np

from circumproj import (
    AUDIT_TOL,
    CONSISTENCY_TOL,
    EQ_TOL,
    RANK_TOL,
    AffineIsometry,
    AffineMap,
    AffineSubspace,
    CircumcenterResult,
    Intersection,
    as_matrix,
    as_vector,
    bench,
    compose,
    identity,
    make_reflector,
    spectral_norm,
)
from circumproj.circumcenter import _merge
from circumproj.numerics import _norm
from oracles import merge_threshold, rank_floor

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo.json"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    """The module of ``scripts/NAME.py``, imported with ``scripts/`` on the
    import path, as the scripts find each other when run."""
    if str(SCRIPTS) not in sys.path:
        sys.path.insert(0, str(SCRIPTS))
    return importlib.import_module(name)


def demo_config() -> dict:
    """A fresh copy of the shipped demo config, for tests that mutate it."""
    return json.loads(DEMO_CONFIG.read_text())


def one_method_report(trace, audit=None, label: str = "m"):
    """An experiment report of one instance, ``one``, with one method, so
    that a lone trace and its audit reach the artifact writer."""
    outcome = bench.MethodOutcome(label, trace, audit)
    instance = bench.InstanceOutcome("one", trace.ambient_dim, (), 0, trace.x0_original,
                                     (outcome,), ())
    return bench.ExperimentReport("one", {}, (instance,))


def written_artifacts(report, fmt: str = "csv") -> dict:
    """The text of each artifact the writer writes for ``report``, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        bench._write_report(report, Path(tmp), fmt)
        return {path.name: path.read_text() for path in sorted(Path(tmp).iterdir())}


def json_text(trace, audit=None) -> str:
    """report.json as the writer writes it in json mode for one method,
    ``trace`` with ``audit``, for byte-for-byte comparisons."""
    return written_artifacts(one_method_report(trace, audit), "json")["report.json"]


def written_record(trace, audit=None) -> dict:
    """The method's record in the report.json of :func:`json_text`."""
    return json.loads(json_text(trace, audit))["instances"][0]["methods"][0]


def random_linear_subspace(rng: np.random.Generator, ambient_dim: int,
                           dim: int) -> AffineSubspace:
    return AffineSubspace.linear(rng.standard_normal((dim, ambient_dim)))


def random_family(rng: np.random.Generator, ambient_dim: int, count: int,
                  dim_low: int, dim_high: int):
    dims = rng.integers(dim_low, dim_high + 1, size=count)
    return [random_linear_subspace(rng, ambient_dim, int(d)) for d in dims]


def reflectors_of(subspaces):
    return [make_reflector(s) for s in subspaces]


def unit_vector(rng: np.random.Generator, ambient_dim: int) -> np.ndarray:
    raw = rng.standard_normal(ambient_dim)
    return raw / float(np.linalg.norm(raw))


def subsets(count: int) -> list:
    """Index subsets of range(count), by size, then lexicographically."""
    return [c for size in range(count + 1) for c in combinations(range(count), size)]


def dense_product(ops, word):
    """The composed operator that applies ops[word[0]] first."""
    product = identity(ops[0].ambient_dim)
    for i in word:
        product = compose(ops[i], product)
    return product


# The circumcenter step as the library wrote it with numpy's generic
# wrappers: one temporary or wrapper call per formula. The library's step
# must reproduce these bit for bit, so keep them as they are.

def merged_rows(points: np.ndarray) -> list:
    """The row indices that the circumcenter step's merge keeps: its list,
    or every row when it returns None because no point merges."""
    kept, _ = _merge(points)
    return list(range(points.shape[0])) if kept is None else kept


def reference_distinct(points: np.ndarray) -> tuple:
    """Greedy first-occurrence representatives within the merge threshold,
    the diameter, and the largest point norm that the threshold and the rank
    floor read."""
    gram = points @ points.T
    norms_sq = np.diag(gram)
    largest = float(np.sqrt(np.max(norms_sq)))
    threshold = merge_threshold(largest)
    pair_sq = norms_sq[:, None] + norms_sq
    dist_sq = np.subtract(pair_sq, np.multiply(gram, 2.0, out=gram), out=gram)
    threshold_sq = threshold**2
    margin = np.multiply(np.add(pair_sq, threshold_sq, out=pair_sq),
                         4.0 * (points.shape[1] + 2) * np.finfo(float).eps, out=pair_sq)
    near = dist_sq <= np.add(margin, threshold_sq, out=margin)
    keep = np.ones(points.shape[0], dtype=bool)
    for i in np.flatnonzero(near.sum(axis=1) > 1):
        for j in np.flatnonzero(near[i, :i] & keep[:i]):
            if float(np.linalg.norm(points[i] - points[j])) <= threshold:
                keep[i] = False
                break
    return np.flatnonzero(keep), float(np.sqrt(max(float(np.max(dist_sq)), 0.0))), largest


def reference_rank(s: np.ndarray, largest: float) -> int:
    """How many singular values s of the offsets the step keeps, for points of
    largest norm ``largest``: those above RANK_TOL times the first and above
    the rank floor."""
    return int(np.sum(s > max(s[0] * RANK_TOL, rank_floor(largest))))


def reference_circumcenter(points) -> CircumcenterResult:
    """Circumcenter of a finite point set from one thin SVD of the offsets."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    kept, diameter, largest = reference_distinct(pts)
    rep = pts[kept]
    p0 = rep[0]
    offsets = rep[1:] - p0
    rank = 0
    if offsets.shape[0]:
        u, s, vt = np.linalg.svd(offsets, full_matrices=False)
        rank = reference_rank(s, largest)
    if rank == 0:
        dists = np.linalg.norm(pts - p0, axis=1)
        spread = float(np.max(dists) - np.min(dists))
        return CircumcenterResult(p0.copy(), np.zeros(0), spread, 0.0)
    half = 0.5 * np.einsum("ij,ij->i", offsets, offsets)
    u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    projected = u.T @ half
    coords = projected / s
    candidate = p0 + vt.T @ coords
    dists = np.linalg.norm(pts - candidate, axis=1)
    spread = float(np.max(dists) - np.min(dists))
    center = candidate if spread <= CONSISTENCY_TOL * (1.0 + diameter) else None
    residual = float(np.linalg.norm(half - u @ projected))
    return CircumcenterResult(center, u @ (coords / s), spread, residual)


def reference_images(operator_set, x) -> np.ndarray:
    """The images of x under the words of an operator set, by a walk over a
    dict keyed by word."""
    image = {(): as_vector(x)}
    for word in operator_set.words:
        if word not in image:
            gen = operator_set.generators[word[-1]]
            image[word] = gen.A @ image[word[:-1]] + gen.b
    return np.array([image[word] for word in operator_set.words])


# The affine solution set as the library computed it from the QR of the
# stacked system and one SVD, with no rank certificate. The library's
# solution_set must reproduce it bit for bit, so keep it as it is.

def reference_solution_set(A, b) -> tuple:
    """``(x, null_basis, residual)`` of A x = b, from QR and SVD only."""
    mat = as_matrix(A)
    rhs = as_vector(b)
    rows, n = mat.shape
    if rows != rhs.shape[0]:
        raise ValueError(f"matrix has {rows} rows but right-hand side has {rhs.shape[0]} entries")
    if rows == 0:
        return np.zeros(n), np.eye(n), 0.0
    outside = 0.0
    if rows > n:
        r = np.linalg.qr(np.column_stack([mat, rhs]), mode="r")
        mat, rhs, outside = r[:n, :n], r[:n, n], abs(float(r[n, n]))
    u, s, vt = np.linalg.svd(mat)
    rank = int(np.count_nonzero(s > RANK_TOL * (1.0 + float(s[0]))))
    null_basis = np.ascontiguousarray(vt[rank:])
    if not np.any(rhs):
        return np.zeros(n), null_basis, outside
    coords = u[:, :rank].T @ rhs
    solution = vt[:rank].T @ (coords / s[:rank])
    residual = math.hypot(_norm(rhs - u[:, :rank] @ coords), outside)
    return solution, null_basis, residual


# The trace CSV as the library wrote it row by row, one float formatting
# call per field. The library's column-wise writer must reproduce it byte
# for byte, so keep it as it is.

def _fmt17(value: float) -> str:
    return format(float(value), ".17g")


def reference_step_norms(iterates) -> np.ndarray:
    """0, then ``_norm(iterates[k] - iterates[k - 1])``, from the iterates themselves."""
    return np.array([0.0] + [_norm(iterates[k] - iterates[k - 1])
                             for k in range(1, len(iterates))])


def reference_x_norm(row: np.ndarray) -> float:
    """``_norm(row)``, or, when its sum of squares overflows, 2^600 times the
    norm of row / 2^600, so it is finite wherever the norm is in range."""
    with np.errstate(over="ignore"):
        norm = _norm(row)
        return norm if norm < math.inf else float(np.ldexp(_norm(np.ldexp(row, -600)), 600))


def reference_trace_csv(trace) -> str:
    """``k,x_norm,error,step_norm`` rows at 17 significant digits."""
    lines = ["k,x_norm,error,step_norm"]
    steps = reference_step_norms(trace.iterates)
    for k, row in enumerate(trace.iterates):
        lines.append(
            f"{k},{_fmt17(reference_x_norm(row))},{_fmt17(trace.errors[k])},{_fmt17(steps[k])}"
        )
    return "\n".join(lines) + "\n"


# The rate CSV as the library wrote it row by row, one f-string per row. The
# library's one-pass writer must reproduce it byte for byte, so keep it as it
# is.

def reference_slack(observed: float, bound: float) -> float:
    """(bound - observed) / bound, or 1.0 or -inf when the bound is not positive."""
    if bound > 0.0:
        return (bound - observed) / bound
    return 1.0 if observed <= 0.0 else float("-inf")


def reference_rate_csv(report) -> str:
    """``k,error,bound,slack`` rows, every float by its repr."""
    lines = ["k,error,bound,slack"]
    for k, observed, bound, _ in report.per_iteration:
        slack = reference_slack(observed, bound)
        lines.append(f"{k},{observed!r},{bound!r},{slack!r}")
    return "\n".join(lines) + "\n"


# report.json as the library built it before it wrote it: one dict per
# record and per row, from the arrays and the audit's rows. The writer's
# text must be the compact sorted-key json.dumps of this object, so keep it
# as it is.

def _reference_trace_obj(trace) -> dict:
    """The embedded trace, one ``k, x_norm, error, step_norm`` dict per iterate."""
    steps = reference_step_norms(trace.iterates)
    return {
        "method": trace.method,
        "ambient_dim": int(trace.iterates.shape[1]),
        "stopped_at": int(trace.stopped_at),
        "x0_original": [float(v) for v in trace.x0_original],
        "target": [float(v) for v in trace.target],
        "error_origin": float(np.linalg.norm(trace.x0_original - trace.target)),
        "rows": [{"k": k, "x_norm": reference_x_norm(row), "error": float(trace.errors[k]),
                  "step_norm": float(steps[k])} for k, row in enumerate(trace.iterates)],
    }


def _reference_audit_obj(report) -> dict:
    """The audited constant, its slack_min and verdict, one dict per audit row."""
    constant = report.constant
    rows = report.per_iteration
    return {
        "constant_name": constant.name,
        "value": float(constant.value),
        "ingredients": {k: float(v) for k, v in sorted(constant.ingredients.items())},
        "slack_min": min([float("inf"), *(reference_slack(o, b) for _, o, b, _ in rows)]),
        "all_satisfied": all(s for _, _, _, s in rows),
        "per_iteration": [{"k": k, "error": o, "bound": b, "satisfied": s}
                          for k, o, b, s in rows],
    }


def _reference_method_obj(outcome, include_traces: bool) -> dict:
    errors = outcome.trace.errors.tolist()
    record = {
        "label": outcome.label,
        "method": outcome.trace.method,
        "final_error": errors[-1],
        "error_origin": float(np.linalg.norm(outcome.trace.x0_original - outcome.trace.target)),
        "iterations": int(outcome.trace.stopped_at),
        "iters_to_1e-10": next((k for k, e in enumerate(errors) if e <= 1e-10), None),
        "rate": None if outcome.report is None else _reference_audit_obj(outcome.report),
    }
    if include_traces:
        record["trace"] = _reference_trace_obj(outcome.trace)
    return record


def reference_report_obj(report, include_traces: bool) -> dict:
    """The report.json object of an experiment report, with each method's
    trace embedded when ``include_traces``."""
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
                "x0": [float(v) for v in instance.x0],
                "extra_checks": [{"name": name, "passed": passed, "detail": detail}
                                 for name, passed, detail in instance.extra_checks],
                "methods": [_reference_method_obj(m, include_traces) for m in instance.methods],
            }
            for instance in report.instances
        ],
    }


def reference_report_json(report, include_traces: bool) -> str:
    """The bytes of report.json: compact sorted-key JSON and a newline."""
    return json.dumps(reference_report_obj(report, include_traces), sort_keys=True,
                      separators=(",", ":")) + "\n"


# The audit rows as the library computed and stored them, one tuple per row
# from one Python loop. The rows the library now derives from its two
# columns must reproduce them bit for bit, so keep it as it is.

def reference_audit_rows(trace, constant) -> tuple:
    """(k, observed, bound, satisfied) with bound = (value ** k) * scale."""
    rate = float(constant.value)
    prefactor = constant.ingredients.get("prefactor")
    scale = float(trace.errors[0]) if prefactor is None else float(prefactor) * trace.error_origin
    rows = []
    for k, observed in enumerate(trace.errors.tolist()):
        bound = (rate ** k) * scale
        rows.append((k, observed, bound, observed <= bound * (1.0 + AUDIT_TOL)))
    return tuple(rows)


# verify's printout as the CLI formatted it from the report.json object. The
# lines the CLI now reads from each method's summary must reproduce it byte
# for byte, so keep it as it is.

def reference_verify_lines(payload: dict) -> list:
    """One line per method and per extra check of a report.json object."""
    lines = []
    for instance in payload["instances"]:
        for method in instance["methods"]:
            rate = method["rate"]
            reach = method["iters_to_1e-10"]
            tail = (f"iterations={method['iterations']} "
                    f"final_error={method['final_error']:.3e} "
                    f"iters_to_1e-10={'-' if reach is None else reach}")
            where = f"{instance['label']}/{method['label']}"
            if rate is None:
                lines.append(f"SKIP {where}: no audited bound, {tail}")
                continue
            status = "PASS" if rate["all_satisfied"] else "FAIL"
            lines.append(f"{status} {where}: {rate['constant_name']}={rate['value']:.6g} "
                         f"slack_min={rate['slack_min']:.3e} {tail}")
        for check in instance["extra_checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(f"{status} {instance['label']}/{check['name']}: {check['detail']}")
    return lines


# Resolution and planning as the library computed them with every n x n
# block held at once: the stacked intersection and common fixed set, the
# reflector, the averaged maps and the Douglas-Rachford map formed with an
# identity, the list of relaxed prefix products, a projector and an offset
# per factor of a projection product, and the identity multiplied into the
# rates. The library must reproduce them bit for bit, so keep them as they
# are.

def reference_intersect(subspaces) -> Intersection:
    """The stacked blocks I - P_i with right-hand sides (I - P_i) a_i, solved
    by the QR+SVD reference."""
    n = subspaces[0].ambient_dim
    blocks = np.empty((len(subspaces), n, n))
    for block, s in zip(blocks, subspaces):
        np.subtract(np.eye(n), s.projector_matrix(), out=block)
    rhs = np.concatenate([block @ s.anchor for block, s in zip(blocks, subspaces)])
    anchor, direction, residual = reference_solution_set(blocks.reshape(-1, n), rhs)
    if residual > CONSISTENCY_TOL * (1.0 + _norm(rhs)):
        return Intersection(None, residual)
    return Intersection(AffineSubspace(anchor, direction), residual)


def reference_common_fixed_points(ops):
    """The stacked systems (M_i - I) x = -b_i, solved by the QR+SVD
    reference, or None when inconsistent."""
    eye = np.eye(ops[0].ambient_dim)
    rhs = -np.concatenate([op.b for op in ops])
    anchor, direction, residual = reference_solution_set(
        np.vstack([op.A - eye for op in ops]), rhs)
    if residual > CONSISTENCY_TOL * (1.0 + _norm(rhs)):
        return None
    return AffineSubspace(anchor, direction)


def reference_make_reflector(subspace) -> AffineIsometry:
    """2P - I from the projector and an identity, and 2(a - P a)."""
    P = subspace.projector_matrix()
    Q = 2.0 * P - np.eye(subspace.ambient_dim)
    b = 2.0 * (subspace.anchor - P @ subspace.anchor)
    return AffineIsometry(Q, b)


def _with_certificate(op: AffineMap, certificate: float) -> AffineMap:
    """``op`` carrying ``certificate`` as its averagedness, which only the
    library's builders set and no constructor takes."""
    object.__setattr__(op, "averagedness", certificate)
    return op


def reference_build_sum_averaged(operators) -> AffineMap:
    """Each relaxed operator formed with an identity, weighted and summed."""
    parts = [op.A for op in operators]
    n = parts[0].shape[0]
    w, a = 1.0 / len(parts), 0.5
    A = np.zeros((n, n))
    for Q in parts:
        A += w * ((1.0 - a) * np.eye(n) + a * Q)
    return _with_certificate(AffineMap(A, np.zeros(n)), sum(w * a for _ in parts))


def reference_dr_operator(first, second) -> AffineMap:
    """(I + R_second R_first) / 2 with an identity added to the product."""
    n = first.ambient_dim
    return AffineMap(0.5 * (np.eye(n) + second.A @ first.A), np.zeros(n))


def reference_build_product_averaged(operators) -> AffineMap:
    """The m relaxed prefix products, listed, then summed with weight 1/m."""
    parts = [op.A for op in operators]
    n = parts[0].shape[0]
    w, a, lam = 1.0 / len(parts), 0.5, 0.5
    eye = np.eye(n)
    pieces = []
    prefix = parts[0]
    pieces.append((1.0 - a) * eye + a * parts[0])
    for i in range(1, len(parts)):
        inner = (1.0 - lam) * eye + lam * parts[i]
        pieces.append((1.0 - a) * eye + a * (inner @ prefix))
        prefix = parts[i] @ prefix
    A = np.zeros((n, n))
    for piece in pieces:
        A += w * piece
    return _with_certificate(AffineMap(A, np.zeros(n)), sum(w * a for _ in parts))


def _reference_projector_map(subspace) -> AffineMap:
    P = subspace.projector_matrix()
    return AffineMap(P, subspace.anchor - P @ subspace.anchor)


def _reference_compose_maps(outer, inner) -> AffineMap:
    return AffineMap(outer.A @ inner.A, outer.A @ inner.b + outer.b)


def reference_map_operator(subspaces) -> AffineMap:
    """P_m .. P_1 as a chain of affine maps, one projector per factor."""
    product = _reference_projector_map(subspaces[0])
    for s in subspaces[1:]:
        product = _reference_compose_maps(_reference_projector_map(s), product)
    return product


def reference_symmetric_map_operator(subspaces) -> AffineMap:
    """P_1 .. P_m .. P_1 through :func:`reference_map_operator`."""
    return reference_map_operator(list(subspaces) + list(subspaces[-2::-1]))


def reference_is_self_adjoint(op) -> bool:
    """max |A - A^T| <= EQ_TOL (1 + max |A|), from the abs of each matrix."""
    A = op.A
    return float(np.max(np.abs(A - A.T))) <= EQ_TOL * (1.0 + float(np.max(np.abs(A))))


def reference_operator_rate(op, fixed) -> float:
    """||A (I - P_fixed)||, each basis direction checked by its own product."""
    matrix = op.A
    for direction in fixed.basis:
        gap = float(np.linalg.norm(matrix @ direction - direction))
        if gap > CONSISTENCY_TOL:
            raise ValueError(f"a basis direction of the subspace is not fixed, gap {gap:.3e}")
    perp = np.eye(matrix.shape[0]) - fixed.projector_matrix()
    return spectral_norm(matrix @ perp)


def reference_tuple_angle_cos(subspaces, fixed) -> float:
    """||P_m .. P_1 (I - P_fixed)||, the chain started at I - P_fixed."""
    n = subspaces[0].ambient_dim
    product = np.eye(n) - fixed.projector_matrix()
    for s in subspaces:
        product = s.projector_matrix() @ product
    return spectral_norm(product)
