"""End-to-end analysis pipeline and report assembly.

The pipeline wires the whole verification chain for one (group, prime):
Sylow data, the intersection poset and its closure operator, the three
categories and their laws, the quotient-functor conditions, the adjunction,
nerve-homology comparisons (transporter vs classifying space, centric
restriction, transporter vs linking), higher-limit checks (punctured
vanishing, normalizer reduction, restriction, filtration), and the final
comparison of the linking-system nerve against the classifying space.

Every nerve a run ranks, the bar complex of G too (the nerve of
``group_category``), comes from ``complex_of`` at the degree its stage
reads, once per composition table (``FiniteCategory.table_key``, which
keys the limits store too): main compares through degree 2, so it reads 3.

``STAGES`` is the one list of checks: each row names a check, its verdict
keys in report order, the stage method and the least max degree its
verdicts need, and ``run`` walks it in order.
A stage method writes its ``detail`` sections and returns one value (True,
False or None) per verdict key; the runner turns them into verdict strings.
The limit checks and ``homology_iso_verdict`` return ``(passed, record)``,
and a stage stores the record as the report prints it.  The four limit
stages (punctured, normalizer-reduction, restriction, filtration) share
``_limit_stage``: it runs its check at every cohomology index, for each
class first where the check takes one, keeps the records in that order
under ``detail["limits"]`` and passes when every check passes.
Below that degree (a mapping cone certifies through max_degree - 2) the
stage reads not-certified, with the note "<check>: needs max degree >= n".
Budget overruns in one stage mark it not-certified and the run continues;
earlier verdicts are kept.  So does a ``MemoryError``: the stage's
verdicts read not-certified, with the note "<check>: out of memory".  Any
other toolkit error in a stage (a broken internal invariant such as a
nonzero boundary squared) marks that stage's verdicts fail with a note, and
the run likewise continues; any other exception is noted as
"<check>: internal error: <type>: <message>".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import categories as cats
from .catalog import build_group
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
from .homology import FpComplex, homology_iso_verdict, nerve_complex
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
        if config.checks == ():
            raise PLocalError("no checks requested")
        unknown = [c for c in config.checks or () if c not in ALL_CHECKS]
        if unknown:
            raise PLocalError(f"unknown checks: {', '.join(unknown)}")
        for flag, least in (("max_degree", 1), ("max_limit_degree", 1),
                            ("cohomology_index_max", 0), ("budget", 1)):
            if getattr(config, flag) < least:
                raise PLocalError(f"{flag} must be at least {least}")
        self.G = G
        self.cfg = config
        self.source = source
        self.p = config.prime
        self.timings: dict[str, float] = {}
        self.notes: list[str] = []
        self._cache: dict[str, object] = {}
        self._nerves: dict[tuple, FpComplex] = {}  # by table_key

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
    def centricity(self) -> dict[tuple[int, ...], bool]:
        """Whether each subgroup of the Sylow and each poset member is
        p-centric, by its ids."""
        return self._get("centricity", lambda: classify_centric(
            self.G, self.p, [*self.sylow_subgroup_list, *self.poset.members]))

    @property
    def centric_in_sylow(self):
        return self._get("centric_in_sylow", lambda: [
            H for H in self.sylow_subgroup_list if self.centricity[H.ids]])

    @property
    def omega_in_sylow(self):
        return self._get(
            "omega_in_sylow",
            lambda: [self.poset.members[i] for i in self.poset.members_in(self.sylow)],
        )

    @property
    def transporter_omega(self):
        return self._get(
            "transporter_omega",
            lambda: cats.build_transporter(self.G, self.omega_in_sylow, self.cfg.budget),
        )

    @property
    def group_category(self):
        return self._get(
            "group_category",
            lambda: cats.group_category(self.G, self.G.full_subgroup(), self.cfg.budget),
        )

    @property
    def coset_category(self):
        return self._get(
            "coset_category",
            lambda: cats.coset_category(self.G, self.omega_in_sylow, self.cfg.budget),
        )

    @property
    def centric_inclusion(self) -> cats.Functor:
        """The inclusion into ``transporter_omega`` of its full subcategory
        on the centric poset members: the identity functor when every member
        is centric, so that the subcategory is ``transporter_omega`` itself."""
        def build():
            T = self.transporter_omega
            keep = [i for i, P in enumerate(T.objects) if self.centricity[P.ids]]
            if len(keep) == T.object_count:
                return cats.Functor(T, T, keep, list(range(T.morphism_count)))
            return cats.full_subcategory(T, keep)[1]
        return self._get("centric_inclusion", build)

    @property
    def transporter_omega_centric(self):
        return self.centric_inclusion.source

    @property
    def transporter_centric(self):
        return self._get(
            "transporter_centric",
            lambda: cats.skeleton(
                cats.build_transporter(self.G, self.centric_in_sylow, self.cfg.budget))[0],
        )

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
            lambda: build_orbit_skeletons(self.G, self.p, self.poset, self.cfg.budget,
                                          self.sylow_subgroup_list),
        )

    @property
    def cohomology_cache(self) -> CohomologyCache:
        return self._get(
            "cohomology_cache", lambda: CohomologyCache(self.G, self.p, self.cfg.budget)
        )

    def complex_of(self, cat: cats.FiniteCategory, dmax: int) -> FpComplex:
        """The nerve of ``cat`` through degree dmax, built once per composition
        table: a smaller dmax is served as the prefix of the larger complex,
        whose boundaries it shares, so each boundary is ranked once."""
        table = cat.table_key()
        cx = self._nerves.get(table)
        if cx is None or cx.dmax < dmax:
            t0 = time.perf_counter()
            cx = self._nerves[table] = nerve_complex(cat, self.p, dmax, self.cfg.budget)
            key = f"cx:{cat.kind}:{cat.object_count}x{cat.morphism_count}:{dmax}"
            self.timings[key] = round(time.perf_counter() - t0, 6)
        return cx.prefix(dmax)

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
        """The stage's verdict values: None for all of them when max_degree
        is below the stage's least, or it overruns its budget or runs out of
        memory, False for all of them on any other exception."""
        if self.cfg.max_degree < stage.min_degree:
            self.notes.append(f"{stage.check}: needs max degree >= {stage.min_degree}")
            return (None,) * len(stage.keys)
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
        except Exception as e:
            self.notes.append(f"{stage.check}: internal error: {type(e).__name__}: {e}")
            values = (False,) * len(stage.keys)
        self.timings[f"stage:{stage.check}"] = round(time.perf_counter() - t0, 6)
        return values

    def _stage_closure(self, detail):
        v = verify_closure_properties(self.poset, self.sylow_subgroup_list)
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
                if laws[cat].failures:
                    self.notes.append(f"categories: {name}: {laws[cat].failures[0]}")
            ok = ok and laws[cat].passed
            detail["categories"][name] = {
                "objects": cat.object_count,
                "morphisms": cat.morphism_count,
                "laws": verdict_str(laws[cat].passed),
            }
        # orbit morphism-count identity |Mor(1, Q)| = |G| / |Q|
        pcat = self.skeletons.p_cat
        triv = next(k for k, R in enumerate(self.skeletons.p_reps) if R.order == 1)
        for j, R in enumerate(self.skeletons.p_reps):
            if len(pcat.mor(triv, j)) != self.G.order // R.order:
                ok = False
                self.notes.append(f"categories: orbit coset count wrong at {R.label()}")
        return ok

    def _stage_quotient(self, detail):
        v = self.quotient_verdict
        detail["categories"]["quotient_kernel_orders"] = v.kernel_orders
        self.notes += [f"quotient: {f}" for f in v.failures[:1]]
        return v.passed

    def _stage_adjunction(self, detail):
        v = cats.verify_closure_adjunction(
            self.poset, self.sylow_subgroup_list, self.cfg.budget
        )
        detail["limits"]["adjunction_pairs_checked"] = v.pairs_checked
        self.notes += [f"adjunction: {f}" for f in v.failures[:1]]
        return v.passed

    def _stage_nerve_vs_group(self, detail):
        dmax = self.cfg.max_degree
        bg_cat = self.group_category
        bar = self.complex_of(bg_cat, dmax)
        t_omega_cx = self.complex_of(self.transporter_omega, dmax)
        bar_h = bar.homology()
        t_h = t_omega_cx.homology()
        detail["homology"]["classifying_space"] = {
            "dims": bar_h, "exact_through": dmax - 1}
        detail["homology"]["transporter_poset_nerve"] = {
            "dims": t_h, "exact_through": dmax - 1}

        coset_h = self.complex_of(self.coset_category, dmax).homology()
        point = [1] + [0] * (dmax - 1)
        detail["homology"]["coset_category_nerve"] = {
            "dims": coset_h, "expected": point}

        T = self.transporter_omega
        min_idx = next(
            i for i, P in enumerate(T.objects)
            if P.ids == self.poset.members[self.poset.minimum].ids
        )
        tokens = T.tokens_of(min_idx, min_idx, bg_cat.witness)
        if (tokens < 0).any():
            raise PLocalError("an element of G has no token at the poset minimum")
        functor = cats.Functor(bg_cat, T, [min_idx], tokens.tolist())
        violations = functor.violations()
        if violations:
            self.notes.append(f"nerve-vs-group: G into the transporter poset: {violations[0]}")
        iso, detail["homology"]["group_into_transporter_iso"] = homology_iso_verdict(
            functor, bar, t_omega_cx)
        dims_equal = bar_h[: dmax - 1] == t_h[: dmax - 1]
        return not violations and iso and dims_equal and coset_h == point

    def _stage_centric_restriction(self, detail):
        dmax = self.cfg.max_degree
        incl = self.centric_inclusion
        # the target first, so that a source with its table is served as its prefix
        tgt = self.complex_of(incl.target, dmax)
        src = self.complex_of(incl.source, dmax - 1)
        iso, detail["homology"]["centric_restriction_iso"] = homology_iso_verdict(incl, src, tgt)
        return iso

    def _stage_centric_agreement(self, detail):
        dmax = max(self.cfg.max_degree - 1, 1)
        cx_omega_c = self.complex_of(self.transporter_omega_centric, dmax)
        cx_centric = self.complex_of(self.transporter_centric, dmax)
        a = cx_omega_c.homology()
        b = cx_centric.homology()
        detail["homology"]["transporter_centric_nerve"] = {
            "dims": b, "exact_through": dmax - 1}
        detail["homology"]["transporter_poset_centric_nerve"] = {
            "dims": a, "exact_through": dmax - 1}
        return a == b

    def _stage_t_vs_l(self, detail):
        dmax = self.cfg.max_degree
        quotient_ok = self.quotient_verdict.passed
        src = self.complex_of(self.transporter_centric, dmax - 1)
        tgt = self.complex_of(self.linking_centric, dmax)
        tgt_h = tgt.homology()  # before the cone, which then seeds from what it keeps
        iso, record = homology_iso_verdict(self.linking_projection, src, tgt)
        detail["homology"]["linking_nerve"] = {
            "dims": tgt_h, "exact_through": dmax - 1}
        detail["homology"]["transporter_into_linking_iso"] = record
        return quotient_ok and iso

    def _limit_stage(self, detail, key: str, check, classes=None) -> bool:
        """Run a limit check at every cohomology index, for each of the
        classes in turn when it takes one, keep its records in order under
        ``detail["limits"][key]``, and pass when every check passes."""
        skel, cache = self.skeletons, self.cohomology_cache
        nmax = self.cfg.max_limit_degree
        indices = range(self.cfg.cohomology_index_max + 1)
        if classes is None:
            runs = [check(skel, i, nmax, cache) for i in indices]
        else:
            runs = [check(skel, R, i, nmax, cache) for R in classes for i in indices]
        detail["limits"][key] = [record for _, record in runs]
        return all(passed for passed, _ in runs)

    def _stage_punctured(self, detail):
        skel = self.skeletons
        noncentric = [R for R, centric in zip(skel.p_reps, skel.p_centric) if not centric]
        return self._limit_stage(detail, "punctured", punctured_class_vanishing, noncentric)

    def _stage_reduction(self, detail):
        return self._limit_stage(detail, "normalizer_reduction", normalizer_reduction_check,
                                 self.skeletons.p_reps)

    def _stage_atomic(self, detail):
        nmax = self.cfg.max_limit_degree
        module = ModuleData(1, [np.eye(1, dtype=np.int64) for _ in self.G.generators])
        dims = atomic_functor_limits(self.skeletons, module, nmax, self.cohomology_cache)
        has_p_element = any(o == self.p for o in self.G.element_orders)
        detail["limits"]["atomic_trivial_module"] = {
            "dims": dims,
            "group_has_order_p_element": has_p_element,
        }
        return not any(dims) or not has_p_element

    def _stage_restriction(self, detail):
        return self._limit_stage(detail, "support_restriction", support_restriction_check)

    def _stage_filtration(self, detail):
        return self._limit_stage(detail, "class_filtration", class_filtration_check)

    def _stage_main(self, detail):
        # homology through degree 2, exact from complexes through degree 3
        bar_h = self.complex_of(self.group_category, 3).homology()
        link_h = self.complex_of(self.linking_centric, 3).homology()
        detail["homology"]["main_comparison"] = {
            "classifying_dims": bar_h, "linking_dims": link_h, "through_degree": 2}
        return bar_h == link_h

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
                "centric": table[M.ids],
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
                "skeletal": True,  # the centric transporter category is a skeleton
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
                "centric_member_count": sum(table[M.ids] for M in poset.members),
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
    # the least max_degree its verdicts need: 2 for a mapping cone, certified
    # through max_degree - 2; 3 for main, which compares through degree 2
    min_degree: int = 1


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
          PipelineRun._stage_nerve_vs_group, 2),
    Stage("centric-restriction", ("centric_restriction_homology",),
          PipelineRun._stage_centric_restriction, 2),
    Stage("centric-agreement", ("centric_collections_agree",),
          PipelineRun._stage_centric_agreement),
    Stage("linking-vs-transporter", ("transporter_vs_linking_homology",),
          PipelineRun._stage_t_vs_l, 2),
    Stage("punctured", ("punctured_limits_vanish",), PipelineRun._stage_punctured),
    Stage("normalizer-reduction", ("normalizer_reduction",), PipelineRun._stage_reduction),
    Stage("atomic-vanishing", ("atomic_vanishing_with_p_kernel",), PipelineRun._stage_atomic),
    Stage("restriction", ("support_restriction_limits",), PipelineRun._stage_restriction),
    Stage("filtration", ("class_filtration_limits",), PipelineRun._stage_filtration),
    Stage("main", ("main_comparison",), PipelineRun._stage_main, 3),
)

ALL_CHECKS = tuple(stage.check for stage in STAGES)


def run_pipeline(spec_source: str, config: PipelineConfig) -> AnalysisReport:
    """Build the group from a spec string and run the full analysis."""
    G = build_group(spec_source, config.order_bound)
    return PipelineRun(G, config, spec_source).run()
