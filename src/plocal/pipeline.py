"""End-to-end analysis pipeline and report assembly.

The pipeline wires the whole verification chain for one (group, prime):
Sylow data, the intersection poset and its closure operator, the three
categories and their laws, the quotient-functor conditions, the adjunction,
nerve-homology comparisons (transporter vs classifying space, centric
restriction, transporter vs linking), higher-limit checks (punctured
vanishing, normalizer reduction, restriction, filtration), and the final
comparison of the linking-system nerve against the classifying space.

``STAGES`` is the one list of checks: each row names a check, its verdict
keys in report order and the stage method, and ``run`` walks it in order.
A stage method writes its ``detail`` sections and returns one value (True,
False or None) per verdict key; the runner turns them into verdict strings.
Budget overruns in one stage mark it not-certified and the run continues;
earlier verdicts are kept.  So does a ``MemoryError``: the stage's
verdicts read not-certified, with the note "<check>: out of memory".  Any
other toolkit error in a stage (a broken internal invariant such as a
nonzero boundary squared) marks that stage's verdicts fail with a note, and
the run likewise continues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import categories as cats
from .catalog import GroupSpec, build_group
from .cohomology import CohomologyCache
from .errors import DEFAULT_BUDGET, BudgetExceeded, PLocalError
from .groups import (
    DEFAULT_ORDER_BOUND,
    PermutationGroup,
    all_subgroups,
    is_prime,
    p_part,
    sylow_subgroup,
)
from .homology import (
    FpComplex,
    bar_complex,
    homology_iso_verdict,
    induced_chain_map,
    nerve_complex,
)
from .limit_checks import (
    OrbitSkeletons,
    atomic_functor_limits,
    build_orbit_skeletons,
    class_filtration_check,
    normalizer_reduction_check,
    punctured_class_vanishing,
    support_restriction_check,
)
from .limits import ModuleData
from .omega import (
    build_intersection_poset,
    classify_centric,
    longest_chain_length,
    verify_closure_properties,
)
from .report import AnalysisReport, finalize_overall, verdict_str


@dataclass
class PipelineConfig:
    prime: int
    max_degree: int = 4
    max_limit_degree: int = 3
    cohomology_index_max: int = 2
    budget: int = DEFAULT_BUDGET
    skeletal: bool = True
    checks: tuple[str, ...] | None = None
    include_timings: bool = True
    order_bound: int = DEFAULT_ORDER_BOUND

    def wants(self, check: str) -> bool:
        return self.checks is None or check in self.checks


class PipelineRun:
    """One analysis run; artifacts are built lazily and shared across stages."""

    def __init__(self, G: PermutationGroup, config: PipelineConfig, source: str):
        if not is_prime(config.prime):
            raise PLocalError(f"{config.prime} is not prime")
        unknown = [c for c in config.checks or () if c not in ALL_CHECKS]
        if unknown:
            raise PLocalError(f"unknown checks: {', '.join(unknown)}")
        self.G = G
        self.cfg = config
        self.source = source
        self.p = config.prime
        self.timings: dict[str, float] = {}
        self.notes: list[str] = []
        self._cache: dict[str, object] = {}
        self._nerves: dict[cats.FiniteCategory, FpComplex] = {}

    # -- cached artifacts -------------------------------------------------

    def _get(self, key: str, build):
        if key not in self._cache:
            t0 = time.perf_counter()
            self._cache[key] = build()
            self.timings[key] = round(time.perf_counter() - t0, 6)
        return self._cache[key]

    @property
    def sylow(self):
        return self._get("sylow", lambda: sylow_subgroup(self.G, self.p))

    @property
    def poset(self):
        return self._get("poset", lambda: build_intersection_poset(self.G, self.p))

    @property
    def sylow_subgroup_list(self):
        return self._get("sylow_subgroups", lambda: all_subgroups(self.sylow))

    @property
    def centricity(self):
        def build():
            extra = [H for H in self.sylow_subgroup_list]
            seen = {H.ids for H in extra}
            for M in self.poset.members:
                if M.ids not in seen:
                    extra.append(M)
                    seen.add(M.ids)
            return classify_centric(self.G, self.p, extra)
        return self._get("centricity", build)

    @property
    def centric_in_sylow(self):
        def build():
            table = self.centricity
            return [
                H for H in self.sylow_subgroup_list
                if table.record_for(H).is_centric
            ]
        return self._get("centric_in_sylow", build)

    @property
    def omega_in_sylow(self):
        return self._get(
            "omega_in_sylow",
            lambda: [self.poset.members[i] for i in self.poset.members_in(self.sylow)],
        )

    @property
    def omega_centric_in_sylow(self):
        def build():
            table = self.centricity
            return [H for H in self.omega_in_sylow if table.record_for(H).is_centric]
        return self._get("omega_centric_in_sylow", build)

    @property
    def transporter_omega(self):
        return self._get(
            "transporter_omega",
            lambda: cats.build_transporter(self.G, self.omega_in_sylow, self.cfg.budget),
        )

    @property
    def transporter_omega_centric(self):
        """``transporter_omega`` itself when every poset member is centric."""
        def build():
            objs = self.omega_centric_in_sylow
            if [H.ids for H in objs] == [H.ids for H in self.omega_in_sylow]:
                return self.transporter_omega
            return cats.build_transporter(self.G, objs, self.cfg.budget)
        return self._get("transporter_omega_centric", build)

    @property
    def transporter_centric(self):
        def build():
            T = cats.build_transporter(self.G, self.centric_in_sylow, self.cfg.budget)
            if self.cfg.skeletal:
                T, _ = cats.skeleton(T)
            return T
        return self._get("transporter_centric", build)

    @property
    def linking_projection(self):
        return self._get(
            "linking_projection",
            lambda: cats.quotient_projection(self.transporter_centric, self.p, self.cfg.budget),
        )

    @property
    def quotient_verdict(self) -> cats.QuotientFunctorVerdict:
        return self._get(
            "quotient_verdict",
            lambda: cats.verify_quotient_functor(self.linking_projection, self.p),
        )

    @property
    def linking_centric(self):
        return self.linking_projection.target

    @property
    def skeletons(self) -> OrbitSkeletons:
        return self._get(
            "skeletons",
            lambda: build_orbit_skeletons(self.G, self.p, self.poset, self.cfg.budget),
        )

    @property
    def cohomology_cache(self) -> CohomologyCache:
        return self._get(
            "cohomology_cache", lambda: CohomologyCache(self.G, self.p, self.cfg.budget)
        )

    def complex_of(self, cat: cats.FiniteCategory, dmax: int) -> FpComplex:
        """The nerve of ``cat`` through degree dmax, built once per category
        object: a smaller dmax is served as the prefix of the larger complex,
        whose boundaries it shares, so each boundary is ranked once."""
        cx = self._nerves.get(cat)
        if cx is None or cx.dmax < dmax:
            t0 = time.perf_counter()
            cx = self._nerves[cat] = nerve_complex(cat, self.p, dmax, self.cfg.budget)
            key = f"cx:{cat.kind}:{cat.object_count}x{cat.morphism_count}:{dmax}"
            self.timings[key] = round(time.perf_counter() - t0, 6)
        return cx.prefix(dmax)

    @property
    def bar(self) -> FpComplex:
        return self._get(
            "bar", lambda: bar_complex(self.G, self.p, self.cfg.max_degree, self.cfg.budget)
        )

    # -- stages -------------------------------------------------------------

    def run(self) -> AnalysisReport:
        verdicts: dict[str, str] = {}
        detail: dict[str, dict] = {"categories": {}, "homology": {}, "limits": {}}
        for stage in STAGES:
            values = (None,) * len(stage.keys)
            if self.cfg.wants(stage.check):
                values = self._run_stage(stage, detail)
            verdicts.update(zip(stage.keys, map(verdict_str, values), strict=True))
        return AnalysisReport(self._assemble(verdicts, detail))

    def _run_stage(self, stage: Stage, detail: dict) -> tuple:
        """The stage's verdict values: None for all of them when it overruns
        its budget or runs out of memory, False for all of them on any other
        toolkit error."""
        t0 = time.perf_counter()
        try:
            out = stage.run(self, detail)
            values = out if len(stage.keys) > 1 else (out,)
        except BudgetExceeded as e:
            self.notes.append(f"{stage.check}: {e}")
            values = (None,) * len(stage.keys)
        except MemoryError:
            self.notes.append(f"{stage.check}: out of memory")
            values = (None,) * len(stage.keys)
        except PLocalError as e:
            self.notes.append(f"{stage.check}: {e}")
            values = (False,) * len(stage.keys)
        self.timings[f"stage:{stage.check}"] = round(time.perf_counter() - t0, 6)
        return values

    def _stage_closure(self, detail):
        v = verify_closure_properties(
            self.G, self.p, self.poset, self.sylow_subgroup_list
        )
        detail["limits"]["closure_pairs_checked"] = v.pairs_checked
        return (v.extends_and_monotone, v.idempotent, v.transporter_monotone,
                v.transporter_equality)

    def _stage_categories(self, detail):
        built = {
            "transporter_poset": self.transporter_omega,
            "transporter_poset_centric": self.transporter_omega_centric,
            "transporter_centric": self.transporter_centric,
            "linking_centric": self.linking_centric,
            "orbit_poset_skeleton": self.skeletons.omega_cat,
            "orbit_full_skeleton": self.skeletons.p_cat,
        }
        ok, laws = True, {}  # one verdict per category object: entries may share one
        for name, cat in built.items():
            if cat not in laws:
                laws[cat] = cats.verify_category(cat)
            ok = ok and laws[cat].passed
            detail["categories"][name] = {
                "objects": cat.object_count,
                "morphisms": cat.morphism_count,
                "laws": verdict_str(laws[cat].passed),
            }
        # orbit morphism-count identity |Mor(1, Q)| = |G| / |Q|
        pcat = self.skeletons.p_cat
        triv = next(
            (k for k, R in enumerate(self.skeletons.p_reps) if R.order == 1), None
        )
        if triv is not None:
            for j, R in enumerate(self.skeletons.p_reps):
                if len(pcat.mor(triv, j)) != self.G.order // R.order:
                    ok = False
                    self.notes.append(f"orbit coset count wrong at {R.label()}")
        return ok

    def _stage_quotient(self, detail):
        v = self.quotient_verdict
        detail["categories"]["quotient_kernel_orders"] = v.kernel_orders
        return v.passed

    def _stage_adjunction(self, detail):
        v = cats.verify_closure_adjunction(
            self.G, self.p, self.poset, self.sylow_subgroup_list, self.cfg.budget
        )
        detail["limits"]["adjunction_pairs_checked"] = v.pairs_checked
        return v.passed

    def _stage_nerve_vs_group(self, detail):
        dmax = self.cfg.max_degree
        bar = self.bar
        t_omega_cx = self.complex_of(self.transporter_omega, dmax)
        bar_h = bar.homology()
        t_h = t_omega_cx.homology()
        detail["homology"]["classifying_space"] = {
            "dims": bar_h.dims, "exact_through": dmax - 1}
        detail["homology"]["transporter_poset_nerve"] = {
            "dims": t_h.dims, "exact_through": dmax - 1}

        cosets = cats.coset_category(self.G, self.omega_in_sylow)
        coset_h = nerve_complex(cosets, self.p, dmax, self.cfg.budget).homology()
        point = [1] + [0] * (dmax - 1)
        detail["homology"]["coset_category_nerve"] = {
            "dims": coset_h.dims, "expected": point}

        T = self.transporter_omega
        min_idx = next(
            i for i, P in enumerate(T.objects)
            if P.ids == self.poset.members[self.poset.minimum].ids
        )
        bg_cat = cats.group_category(self.G, self.G.full_subgroup())
        tokens = T.tokens_of(min_idx, min_idx, bg_cat.witness)
        if (tokens < 0).any():
            raise PLocalError("an element of G has no token at the poset minimum")
        functor = cats.Functor(bg_cat, T, [min_idx], tokens.tolist())
        ok = functor.is_functor
        cm = induced_chain_map(functor, bar, t_omega_cx)
        iso = homology_iso_verdict(cm)
        dims_equal = bar_h.dims[: dmax - 1] == t_h.dims[: dmax - 1]
        detail["homology"]["group_into_transporter_iso"] = {
            "certified_through": iso.certified_through,
            "iso": iso.iso_by_degree,
        }
        return ok and iso.passed and dims_equal and coset_h.dims == point

    def _stage_centric_restriction(self, detail):
        dmax = self.cfg.max_degree
        T = self.transporter_omega
        sub_idx = [
            i for i, P in enumerate(T.objects)
            if self.centricity.record_for(P).is_centric
        ]
        sub, incl = cats.full_subcategory(T, sub_idx)
        src = nerve_complex(sub, self.p, max(dmax - 1, 1), self.cfg.budget)
        tgt = self.complex_of(T, dmax)
        cm = induced_chain_map(incl, src, tgt)
        iso = homology_iso_verdict(cm)
        detail["homology"]["centric_restriction_iso"] = {
            "certified_through": iso.certified_through,
            "iso": iso.iso_by_degree,
        }
        return iso.passed

    def _stage_centric_agreement(self, detail):
        dmax = max(self.cfg.max_degree - 1, 1)
        cx_omega_c = self.complex_of(self.transporter_omega_centric, dmax)
        cx_centric = self.complex_of(self.transporter_centric, dmax)
        a = cx_omega_c.homology().dims
        b = cx_centric.homology().dims
        detail["homology"]["transporter_centric_nerve"] = {
            "dims": b, "exact_through": dmax - 1}
        detail["homology"]["transporter_poset_centric_nerve"] = {
            "dims": a, "exact_through": dmax - 1}
        return a == b

    def _stage_t_vs_l(self, detail):
        dmax = self.cfg.max_degree
        quotient_ok = self.quotient_verdict.passed
        src = self.complex_of(self.transporter_centric, max(dmax - 1, 1))
        tgt = self.complex_of(self.linking_centric, dmax)
        tgt_h = tgt.homology()  # before the cone, which then reuses its echelons
        cm = induced_chain_map(self.linking_projection, src, tgt)
        iso = homology_iso_verdict(cm)
        detail["homology"]["linking_nerve"] = {
            "dims": tgt_h.dims, "exact_through": dmax - 1}
        detail["homology"]["transporter_into_linking_iso"] = {
            "certified_through": iso.certified_through,
            "iso": iso.iso_by_degree,
        }
        return quotient_ok and iso.passed

    def _stage_punctured(self, detail):
        skel = self.skeletons
        nmax = self.cfg.max_limit_degree
        records = []
        ok = True
        for k, R in enumerate(skel.p_reps):
            if skel.p_centric[k]:
                continue
            for i in range(self.cfg.cohomology_index_max + 1):
                v = punctured_class_vanishing(
                    skel, R, i, nmax, self.cfg.budget, self.cohomology_cache
                )
                ok = ok and v.passed and v.sides_agree
                records.append({
                    "class": v.class_label,
                    "index": i,
                    "full_dims": v.full_dims,
                    "poset_dims": v.omega_dims,
                })
        detail["limits"]["punctured"] = records
        return ok

    def _stage_reduction(self, detail):
        skel = self.skeletons
        nmax = self.cfg.max_limit_degree
        records = []
        ok = True
        for R in skel.p_reps:
            for i in range(self.cfg.cohomology_index_max + 1):
                v = normalizer_reduction_check(
                    skel, R, i, nmax, self.cfg.budget, self.cohomology_cache
                )
                ok = ok and v.passed
                records.append({
                    "class": v.class_label,
                    "index": i,
                    "left": v.left_dims,
                    "right": v.right_dims,
                    "quotient_order": v.quotient_order,
                })
        detail["limits"]["normalizer_reduction"] = records
        return ok

    def _stage_atomic(self, detail):
        nmax = self.cfg.max_limit_degree
        module = ModuleData(1, [np.eye(1, dtype=np.int64) for _ in self.G.generators])
        profile = atomic_functor_limits(
            self.G, self.p, module, nmax, self.cfg.budget, self.skeletons,
            self.cohomology_cache.limits,
        )
        has_p_element = any(o == self.p for o in self.G.element_orders)
        detail["limits"]["atomic_trivial_module"] = {
            "dims": profile.dims,
            "group_has_order_p_element": has_p_element,
        }
        return profile.vanishes or not has_p_element

    def _stage_restriction(self, detail):
        skel = self.skeletons
        nmax = self.cfg.max_limit_degree
        records = []
        ok = True
        for i in range(self.cfg.cohomology_index_max + 1):
            v = support_restriction_check(
                skel, i, nmax, self.cfg.budget, self.cohomology_cache
            )
            ok = ok and v.passed
            records.append({
                "index": i,
                "ambient": v.ambient_dims,
                "restricted": v.restricted_dims,
            })
        detail["limits"]["support_restriction"] = records
        return ok

    def _stage_filtration(self, detail):
        skel = self.skeletons
        nmax = self.cfg.max_limit_degree
        records = []
        ok = True
        for i in range(self.cfg.cohomology_index_max + 1):
            v = class_filtration_check(
                skel, i, nmax, self.cfg.budget, self.cohomology_cache
            )
            ok = ok and v.passed
            records.append({
                "index": i,
                "stages": [
                    {
                        "added": s.added_label,
                        "order": s.added_order,
                        "punctured_dims": s.punctured_dims,
                        "lim_full": s.lim_full,
                        "lim_previous": s.lim_previous,
                        "passed": s.passed,
                    }
                    for s in v.stages
                ],
                "centric_dims": v.centric_dims,
                "full_dims": v.full_dims,
            })
        detail["limits"]["class_filtration"] = records
        return ok

    def _stage_main(self, detail):
        dmax = self.cfg.max_degree
        through = min(2, dmax - 1)
        if through < 2:
            self.notes.append("main comparison needs max degree >= 3")
            return None
        bar_h = self.bar.homology().dims
        link_h = self.complex_of(self.linking_centric, dmax).homology().dims
        equal = bar_h[: through + 1] == link_h[: through + 1]
        detail["homology"]["main_comparison"] = {
            "classifying_dims": bar_h[: through + 1],
            "linking_dims": link_h[: through + 1],
            "through_degree": through,
        }
        return equal

    # -- assembly ------------------------------------------------------------

    def _assemble(self, verdicts, detail) -> dict:
        G, p = self.G, self.p
        poset = self.poset
        table = self.centricity
        members = []
        for idx, M in enumerate(poset.members):
            members.append({
                "label": M.label(),
                "order": M.order,
                "class": poset.class_of[idx],
                "centric": table.record_for(M).is_centric,
            })
        centric_sylow = [H.label() for H in self.centric_in_sylow]
        data = {
            "schema_version": 1,
            "tool": "plocal",
            "semantics": (
                "exact mod-p homology and higher limits at the stated "
                "truncations; no completion functor is computed"
            ),
            "group": {
                "source": self.source,
                "degree": G.degree,
                "order": G.order,
                "generators": [g.cycle_string() for g in G.generators],
            },
            "prime": p,
            "flags": {
                "max_degree": self.cfg.max_degree,
                "max_limit_degree": self.cfg.max_limit_degree,
                "cohomology_index_max": self.cfg.cohomology_index_max,
                "budget": self.cfg.budget,
                "skeletal": self.cfg.skeletal,
                "checks": sorted(self.cfg.checks) if self.cfg.checks else "all",
            },
            "sylow": {
                "order": self.sylow.order,
                "count": len(poset.sylows),
                "p_part": p_part(G.order, p),
                "label": self.sylow.label(),
            },
            "poset": {
                "member_count": len(poset.members),
                "class_count": len(poset.classes),
                "class_sizes": [len(cls) for cls in poset.classes],
                "chain_length": longest_chain_length(poset, self.sylow),
                "minimum_order": poset.members[poset.minimum].order,
                "centric_member_count": sum(
                    1 for M in poset.members if table.record_for(M).is_centric
                ),
                "members": members,
                "hasse_edges": poset.hasse_edges(),
            },
            "centric_in_sylow": centric_sylow,
            **detail,
            "verdicts": verdicts,
            "notes": self.notes,
            "overall": "",
        }
        data["overall"] = finalize_overall(data["verdicts"])
        if self.cfg.include_timings:
            data["timings"] = dict(sorted(self.timings.items()))
        return data


class Stage(NamedTuple):
    check: str
    keys: tuple[str, ...]  # verdict keys, in report order
    run: Callable[[PipelineRun, dict], object]  # a value per key; a bare value for one key


STAGES = (
    Stage("closure", (
        "closure_extends_and_monotone",
        "closure_idempotent",
        "closure_preserves_transporters",
        "closure_transporter_equality",
    ), PipelineRun._stage_closure),
    Stage("categories", ("category_laws",), PipelineRun._stage_categories),
    Stage("quotient", ("quotient_functor_conditions",), PipelineRun._stage_quotient),
    Stage("adjunction", ("closure_inclusion_adjunction",), PipelineRun._stage_adjunction),
    Stage("nerve-vs-group", ("transporter_nerve_vs_classifying_space",),
          PipelineRun._stage_nerve_vs_group),
    Stage("centric-restriction", ("centric_restriction_homology",),
          PipelineRun._stage_centric_restriction),
    Stage("centric-agreement", ("centric_collections_agree",),
          PipelineRun._stage_centric_agreement),
    Stage("linking-vs-transporter", ("transporter_vs_linking_homology",),
          PipelineRun._stage_t_vs_l),
    Stage("punctured", ("punctured_limits_vanish",), PipelineRun._stage_punctured),
    Stage("normalizer-reduction", ("normalizer_reduction",), PipelineRun._stage_reduction),
    Stage("atomic-vanishing", ("atomic_vanishing_with_p_kernel",), PipelineRun._stage_atomic),
    Stage("restriction", ("support_restriction_limits",), PipelineRun._stage_restriction),
    Stage("filtration", ("class_filtration_limits",), PipelineRun._stage_filtration),
    Stage("main", ("main_comparison",), PipelineRun._stage_main),
)

ALL_CHECKS = tuple(stage.check for stage in STAGES)


def run_pipeline(spec_source: str, config: PipelineConfig) -> AnalysisReport:
    """Build the group from a spec string and run the full analysis."""
    G = build_group(spec_source, config.order_bound)
    return PipelineRun(G, config, spec_source).run()


def analyze(spec: GroupSpec, **flag_overrides) -> AnalysisReport:
    """Run the pipeline for a GroupSpec; keyword arguments override flags."""
    config = PipelineConfig(prime=spec.prime, **flag_overrides)
    return run_pipeline(spec.source, config)
