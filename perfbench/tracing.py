"""Per-layer tracing from outside plocal.

A ``Tracer`` wraps the public functions of each ``src/plocal`` module and
records one span per call: name, layer bucket, start, end and the span that
was open when it started.  Spans stay in memory; ``layer_metrics`` turns them
into per-layer self times and counts afterwards.  A span's self time is its
duration minus the durations of its direct children, so the layer self times
plus the untraced remainder (``pipeline.self_s``) add up to the traced wall
time exactly.

``FpMatrix.from_row_entries`` is deliberately not a boundary: it consumes
the caller's row generator, so most of the nerve and cochain assembly runs
inside it and belongs to the caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, time bucket).  A bucket of None counts calls without a span.
TARGETS = (
    ("plocal.catalog", "build_group", "groups.self_s"),
    ("plocal.groups", "sylow_subgroup", "groups.self_s"),
    ("plocal.groups", "all_subgroups", "groups.self_s"),
    ("plocal.groups", "sylow_conjugates", "groups.self_s"),
    ("plocal.groups", "centralizer", "groups.self_s"),
    ("plocal.groups", "normalizer", "groups.self_s"),
    ("plocal.groups", "transporter_set", "groups.self_s"),
    ("plocal.groups", "quotient_realization", "groups.self_s"),
    ("plocal.omega", "build_intersection_poset", "omega.self_s"),
    ("plocal.omega", "classify_centric", "omega.self_s"),
    ("plocal.omega", "verify_closure_properties", "omega.self_s"),
    ("plocal.categories", "build_transporter", "categories.build_s"),
    ("plocal.categories", "build_linking", "categories.build_s"),
    ("plocal.categories", "build_orbit", "categories.build_s"),
    ("plocal.categories", "coset_category", "categories.build_s"),
    ("plocal.categories", "full_subcategory", "categories.build_s"),
    ("plocal.categories", "quotient_projection", "categories.build_s"),
    ("plocal.categories", "skeleton", "categories.build_s"),
    ("plocal.categories", "verify_category", "categories.verify_s"),
    ("plocal.categories", "verify_quotient_functor", "categories.verify_s"),
    ("plocal.categories", "verify_closure_adjunction", "categories.verify_s"),
    ("plocal.homology", "nerve_complex", "homology.assemble_s"),
    ("plocal.homology", "bar_complex", "homology.assemble_s"),
    ("plocal.homology", "induced_chain_map", "homology.chain_map_s"),
    ("plocal.homology", "mapping_cone", "homology.cone_s"),
    ("plocal.homology", "homology_iso_verdict", "homology.cone_s"),
    ("plocal.fplinalg", "FpMatrix.rank", "fplinalg.rank_s"),
    ("plocal.fplinalg", "FpMatrix.matmul", "fplinalg.check_s"),
    ("plocal.fplinalg", "FpMatrix.equals", "fplinalg.check_s"),
    ("plocal.fplinalg", "rref_dense", "fplinalg.dense_s"),
    ("plocal.fplinalg", "nullspace_dense", "fplinalg.dense_s"),
    ("plocal.fplinalg", "EchelonCoords.__init__", "fplinalg.dense_s"),
    ("plocal.fplinalg", "EchelonCoords.add_silent", "fplinalg.dense_s"),
    ("plocal.fplinalg", "EchelonCoords.add_tracked", "fplinalg.dense_s"),
    ("plocal.fplinalg", "EchelonCoords.coords", "fplinalg.dense_s"),
    ("plocal.limits", "functor_cochain_complex", "limits.cochain_s"),
    ("plocal.limits", "inverse_limit_dim", "limits.lim0_check_s"),
    ("plocal.limits", "limits_profile", None),
    ("plocal.limit_checks", "build_orbit_skeletons", "limit_checks.skeletons_s"),
    ("plocal.cohomology", "CohomologyBasis.__init__", "cohomology.self_s"),
    ("plocal.cohomology", "classifying_cohomology_functor", "cohomology.self_s"),
    ("plocal.cohomology", "supported_cohomology_functor", "cohomology.self_s"),
    ("plocal.report", "AnalysisReport.to_json", "report.json_s"),
)

TIME_BUCKETS = tuple(dict.fromkeys(b for _, _, b in TARGETS if b))

# categories built by a constructor: the result itself, the first element of a
# (category, inclusion) pair, or the target of a projection functor
_CATEGORY_BUILDERS = {
    "build_transporter", "build_linking", "build_orbit", "coset_category",
    "full_subcategory", "quotient_projection", "skeleton",
}


def _category_of(result):
    if isinstance(result, tuple):
        result = result[0]
    return getattr(result, "target", result)


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self):
        # each span: [name, bucket, start, end, parent index, info]
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.wall_start = self.wall_end = 0.0

    def _wrap(self, fn, name: str, bucket: str | None):
        spans, stack = self.spans, self._open
        short = name.rsplit(".", 1)[-1]

        if bucket is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "FpMatrix.rank" and args[0]._rank is not None:
                return fn(*args, **kwargs)  # cached: no elimination happens
            span = [name, bucket, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[5] = _span_info(short, args, result)
            return result
        return traced

    def install(self):
        """Wrap every target in every plocal namespace that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "plocal" or n.startswith("plocal.")]
        for mod_name, attr, bucket in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, attr, bucket))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, attr, bucket)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def begin(self):
        self.wall_start = time.perf_counter()

    def end(self):
        self.wall_end = time.perf_counter()

    def dump(self, path):
        with open(path, "w") as fh:
            for name, bucket, t0, t1, parent, info in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": bucket, "start": t0 - self.wall_start,
                    "end": t1 - self.wall_start, "parent": parent, "info": info,
                }) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Self time per bucket plus the counts the benchmark reports."""
        child = [0.0] * len(self.spans)
        for name, bucket, t0, t1, parent, info in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        m: dict[str, float] = {b: 0.0 for b in TIME_BUCKETS}
        counts = dict.fromkeys((
            "groups.calls", "categories.morphisms", "homology.chains", "homology.boundary_nnz",
            "fplinalg.rank_calls", "fplinalg.rank_rows", "fplinalg.rank_nnz",
            "fplinalg.cone_rank_rows", "limits.cochain_dims", "cohomology.bases",
        ), 0)
        ranked = 0
        cone_rank_s = 0.0
        for k, (name, bucket, t0, t1, parent, info) in enumerate(self.spans):
            m[bucket] += (t1 - t0) - child[k]
            if bucket == "groups.self_s":
                counts["groups.calls"] += 1
            elif name == "CohomologyBasis.__init__":
                counts["cohomology.bases"] += 1
            elif name == "FpMatrix.rank":
                rows, nnz, rank = info
                counts["fplinalg.rank_calls"] += 1
                counts["fplinalg.rank_rows"] += rows
                counts["fplinalg.rank_nnz"] += nnz
                ranked += rank
                if parent >= 0 and self.spans[parent][0] == "homology_iso_verdict":
                    counts["fplinalg.cone_rank_rows"] += rows
                    cone_rank_s += t1 - t0
            elif name == "nerve_complex":
                counts["homology.chains"] += info[0]
                counts["homology.boundary_nnz"] += info[1]
            elif name == "functor_cochain_complex":
                counts["limits.cochain_dims"] += info
            elif name in _CATEGORY_BUILDERS:
                counts["categories.morphisms"] += info
        m.update(counts)
        rows = counts["fplinalg.rank_rows"]
        m["fplinalg.rank_yield"] = ranked / rows if rows else 0.0
        m["fplinalg.cone_rank_s"] = cone_rank_s
        m["limits.profiles"] = self.calls.get("limits_profile", 0)
        wall = self.wall_end - self.wall_start
        m["trace.wall_s"] = wall
        m["pipeline.self_s"] = wall - sum(m[b] for b in TIME_BUCKETS)
        return m


def _span_info(short: str, args, result):
    if short == "rank":
        return (args[0].shape[0], args[0].nnz, result)
    if short == "nerve_complex":
        return (sum(result.dims), sum(b.nnz for b in result.boundaries[1:]))
    if short == "functor_cochain_complex":
        return sum(result.dims)
    if short in _CATEGORY_BUILDERS:
        return _category_of(result).morphism_count
    return None
