"""Verification passes over orbit-category higher limits.

All checks run on skeletal orbit categories (one object per conjugacy class)
and compute both sides of each claimed identity independently:

* vanishing of the limits of a functor concentrated on a non-centric class,
  over both the intersection-poset skeleton and the full p-subgroup skeleton;
* reduction of class-supported limits to the normalizer quotient N_G(Q)/Q;
* invariance of limits under restriction to an upward-closed subcollection
  the functor is supported on;
* the one-class-at-a-time filtration from the centric subcategory up to the
  whole intersection poset.

Limits go through the run's ``CohomologyCache.limits`` store, so a functor
whose content recurs (the same functor restricted to every object, or
built again by a later check) is limited once per run.  The two sides of an
identity are different functors and are still computed separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .categories import FiniteCategory, build_orbit, full_subcategory
from .cohomology import (
    CohomologyCache,
    classifying_cohomology_functor,
    supported_cohomology_functor,
    zeroed_at,
)
from .errors import DEFAULT_BUDGET, PLocalError, UpwardClosureViolated
from .groups import (
    PermutationGroup,
    Subgroup,
    all_subgroups,
    conjugates,
    normalizer,
    quotient_realization,
)
from .limits import (
    LimitsProfile,
    LinearFunctor,
    ModuleData,
    element_action_matrices,
    limits_profile,
)
from .omega import IntersectionPoset, build_intersection_poset, is_centric


def p_class_representatives(G: PermutationGroup, p: int, sylow: Subgroup) -> list[Subgroup]:
    """One canonical representative per conjugacy class of p-subgroups: the
    least conjugate."""
    reps: dict[tuple[int, ...], Subgroup] = {}
    for H in all_subgroups(sylow):
        least = conjugates(G, H)[0]
        reps.setdefault(least.ids, least)
    return [reps[k] for k in sorted(reps, key=lambda ids: (len(ids), ids))]


@dataclass
class OrbitSkeletons:
    """Shared skeletal orbit categories for one (G, p)."""

    G: PermutationGroup
    p: int
    poset: IntersectionPoset
    sylow: Subgroup
    p_reps: list[Subgroup]
    p_cat: FiniteCategory
    omega_reps: list[Subgroup]
    omega_cat: FiniteCategory
    omega_centric: list[bool]
    p_centric: list[bool]
    member_class: list[int]   # omega skeleton object of each poset member

    def p_object_of(self, H: Subgroup) -> int:
        """Skeleton object index of the class of H: the class whose
        representative is H's least conjugate."""
        least = conjugates(self.G, H)[0].ids
        for i, R in enumerate(self.p_reps):
            if R.ids == least:
                return i
        raise PLocalError(f"{H.label()} is not a p-subgroup of the catalogued classes")

    def omega_object_of(self, H: Subgroup) -> int | None:
        ids = self.p_reps[self.p_object_of(H)].ids
        return next((i for i, M in enumerate(self.omega_reps) if M.ids == ids), None)


def build_orbit_skeletons(
    G: PermutationGroup,
    p: int,
    poset: IntersectionPoset | None = None,
    table_budget: int = DEFAULT_BUDGET,
) -> OrbitSkeletons:
    poset = poset or build_intersection_poset(G, p)
    # any Sylow works; the minimal-key conjugate keeps output reproducible
    S = min(poset.sylows, key=lambda T: T.key)
    p_reps = p_class_representatives(G, p, S)
    p_cat = build_orbit(G, p_reps, table_budget)
    # a poset class is a whole conjugacy class, so its least member is its
    # representative in p_reps
    class_rep = [min((poset.members[i] for i in cls), key=lambda m: m.key).ids
                 for cls in poset.classes]
    omega_rep_ids = sorted(set(class_rep), key=lambda ids: (len(ids), ids))
    by_ids = {R.ids: R for R in p_reps}
    omega_reps = [by_ids[ids] for ids in omega_rep_ids]
    omega_index = {ids: i for i, ids in enumerate(omega_rep_ids)}
    omega_cat = build_orbit(G, omega_reps, table_budget)
    return OrbitSkeletons(
        G=G,
        p=p,
        poset=poset,
        sylow=S,
        p_reps=p_reps,
        p_cat=p_cat,
        omega_reps=omega_reps,
        omega_cat=omega_cat,
        omega_centric=[is_centric(G, p, R) for R in omega_reps],
        p_centric=[is_centric(G, p, R) for R in p_reps],
        member_class=[omega_index[class_rep[c]] for c in poset.class_of],
    )


def atomic_functor_limits(
    G: PermutationGroup,
    p: int,
    module: ModuleData,
    nmax: int,
    budget: int = DEFAULT_BUDGET,
    skeletons: OrbitSkeletons | None = None,
    memo: dict | None = None,
) -> LimitsProfile:
    """Higher limits of the functor with value M at the trivial subgroup and
    zero elsewhere, over the skeletal orbit category of all p-subgroups;
    ``memo`` is passed on to ``limits_profile``."""
    skel = skeletons or build_orbit_skeletons(G, p)
    cat = skel.p_cat
    triv = next(i for i, R in enumerate(skel.p_reps) if R.order == 1)
    rho = element_action_matrices(G, module, p)
    dims = [module.dim if k == triv else 0 for k in range(cat.object_count)]
    loops = (cat.src == triv) & (cat.tgt == triv)
    F = LinearFunctor(cat, p, dims, rho[cat.witness[loops]].ravel())
    return limits_profile(F, nmax, budget, memo)


@dataclass
class VanishingVerdict:
    applicable: bool
    class_label: str
    index: int
    full_dims: list[int] | None = None
    omega_dims: list[int] | None = None

    @property
    def passed(self) -> bool:
        if not self.applicable:
            return True
        if self.full_dims is None or any(self.full_dims):
            return False
        if self.omega_dims is not None and any(self.omega_dims):
            return False
        return True

    @property
    def sides_agree(self) -> bool:
        return self.omega_dims is None or self.omega_dims == self.full_dims


def punctured_class_vanishing(
    skel: OrbitSkeletons,
    Q: Subgroup,
    i: int,
    nmax: int,
    budget: int = DEFAULT_BUDGET,
    cache: CohomologyCache | None = None,
) -> VanishingVerdict:
    """Limits of the functor concentrated on the class of a non-centric Q
    vanish, over both skeleta; flags NOT-APPLICABLE for centric input."""
    G, p = skel.G, skel.p
    cache = cache or CohomologyCache(G, p)
    k = skel.p_object_of(Q)
    label = skel.p_reps[k].label()
    if skel.p_centric[k]:
        return VanishingVerdict(False, label, i)
    F_full = supported_cohomology_functor(G, p, skel.p_cat, [k], i, cache)
    full = limits_profile(F_full, nmax, budget, cache.limits).dims
    om = skel.omega_object_of(Q)
    omega_dims = None
    if om is not None:
        F_om = supported_cohomology_functor(G, p, skel.omega_cat, [om], i, cache)
        omega_dims = limits_profile(F_om, nmax, budget, cache.limits).dims
    return VanishingVerdict(True, label, i, full, omega_dims)


@dataclass
class ReductionVerdict:
    class_label: str
    index: int
    left_dims: list[int]
    right_dims: list[int]
    quotient_order: int

    @property
    def passed(self) -> bool:
        return self.left_dims == self.right_dims


def normalizer_reduction_check(
    skel: OrbitSkeletons,
    Q: Subgroup,
    i: int,
    nmax: int,
    budget: int = DEFAULT_BUDGET,
    cache: CohomologyCache | None = None,
) -> ReductionVerdict:
    """Limits of a class-supported functor equal the atomic limits of the
    normalizer quotient acting on the value; both sides computed independently.
    N_G(R), the quotient and its orbit skeletons depend only on the class
    representative R, so they are built once per class and kept in
    ``cache.quotients``."""
    G, p = skel.G, skel.p
    cache = cache or CohomologyCache(G, p)
    k = skel.p_object_of(Q)
    R = skel.p_reps[k]
    F = supported_cohomology_functor(G, p, skel.p_cat, [k], i, cache)
    left = limits_profile(F, nmax, budget, cache.limits).dims

    kept = cache.quotients.get(R.ids)
    if kept is None:
        N = normalizer(G, R)
        W = quotient_realization(G, N, R).group
        kept = cache.quotients[R.ids] = (N, W, build_orbit_skeletons(W, p))
    N, W, quotient_skel = kept
    basis = cache.basis(R, i)
    gen_mats = [basis.pullback_matrix(basis, g) for g in N.generating_ids]
    module = ModuleData(dim=basis.dim, generator_matrices=gen_mats)
    right = atomic_functor_limits(W, p, module, nmax, budget, quotient_skel,
                                  cache.limits).dims
    return ReductionVerdict(R.label(), i, left, right, W.order)


@dataclass
class RestrictionVerdict:
    index: int
    ambient_dims: list[int]
    restricted_dims: list[int]
    support_size: int

    @property
    def passed(self) -> bool:
        return self.ambient_dims == self.restricted_dims


def support_restriction_check(
    skel: OrbitSkeletons,
    i: int,
    nmax: int,
    budget: int = DEFAULT_BUDGET,
    cache: CohomologyCache | None = None,
    support_classes: list[int] | None = None,
) -> RestrictionVerdict:
    """Limits over the intersection-poset skeleton of a functor supported on
    an upward-closed subcollection equal limits over that subcategory alone.

    The support defaults to the centric classes.  A support that is not
    closed under overgroups within the poset raises UpwardClosureViolated.
    """
    G, p = skel.G, skel.p
    cache = cache or CohomologyCache(G, p)
    poset = skel.poset
    if support_classes is None:
        support_classes = [c for c, flag in enumerate(skel.omega_centric) if flag]
    wanted = set(support_classes)
    member_class = skel.member_class
    for a in range(len(poset.members)):
        if member_class[a] not in wanted:
            continue
        for b in poset.leq[a]:
            if member_class[b] not in wanted:
                raise UpwardClosureViolated(
                    f"{poset.members[b].label()} lies above a supported member "
                    f"but is outside the support"
                )
    support = sorted(wanted)
    F = supported_cohomology_functor(G, p, skel.omega_cat, support, i, cache)
    ambient = limits_profile(F, nmax, budget, cache.limits).dims
    sub, incl = full_subcategory(skel.omega_cat, support)
    Fsub = F.restrict(sub, incl)
    restricted = limits_profile(Fsub, nmax, budget, cache.limits).dims
    return RestrictionVerdict(i, ambient, restricted, len(support))


@dataclass
class FiltrationStage:
    added_label: str
    added_order: int
    upward_closed: bool
    surjection_natural: bool
    kernel_matches_punctured: bool
    punctured_dims: list[int]
    lim_full: list[int]
    lim_zeroed: list[int]
    lim_previous: list[int]

    @property
    def passed(self) -> bool:
        return (
            self.upward_closed
            and self.surjection_natural
            and self.kernel_matches_punctured
            and not any(self.punctured_dims)
            and self.lim_full == self.lim_zeroed == self.lim_previous
        )


@dataclass
class FiltrationVerdict:
    index: int
    stages: list[FiltrationStage] = field(default_factory=list)
    centric_dims: list[int] | None = None
    full_dims: list[int] | None = None

    @property
    def passed(self) -> bool:
        return (
            all(s.passed for s in self.stages)
            and self.centric_dims is not None
            and self.centric_dims == self.full_dims
        )


def _natural_surjection_ok(F1: LinearFunctor, dead: int) -> bool:
    """The objectwise projection (identity on live objects, zero on the dead
    one) commutes with every morphism map iff no morphism from a live
    object into the dead one carries a nonzero map."""
    C = F1.category
    return not F1.blocks(np.flatnonzero((C.src != dead) & (C.tgt == dead))).any()


def class_filtration_check(
    skel: OrbitSkeletons,
    i: int,
    nmax: int,
    budget: int = DEFAULT_BUDGET,
    cache: CohomologyCache | None = None,
) -> FiltrationVerdict:
    """Add non-centric classes to the centric subcategory one at a time, by
    decreasing subgroup order, checking at every stage that the kernel of the
    zero-extension surjection is the punctured functor, that its limits
    vanish, and that the limit profile is unchanged; finish with the direct
    comparison of the centric and full profiles."""
    G, p = skel.G, skel.p
    cache = cache or CohomologyCache(G, p)
    cat = skel.omega_cat
    poset = skel.poset

    centric_objs = sorted(c for c, f in enumerate(skel.omega_centric) if f)
    noncentric = sorted(
        (c for c, f in enumerate(skel.omega_centric) if not f),
        key=lambda c: (-skel.omega_reps[c].order, skel.omega_reps[c].key),
    )

    F_all = classifying_cohomology_functor(G, p, cat, i, cache)

    def lim_on(objs: list[int], functor: LinearFunctor) -> list[int]:
        sub, incl = full_subcategory(cat, objs)
        restricted = functor.restrict(sub, incl)
        return limits_profile(restricted, nmax, budget, cache.limits).dims

    verdict = FiltrationVerdict(index=i)
    verdict.centric_dims = lim_on(centric_objs, F_all)
    verdict.full_dims = limits_profile(F_all, nmax, budget, cache.limits).dims

    member_class = skel.member_class
    in_sylow = set(poset.members_in(skel.sylow))

    current = list(centric_objs)
    prev_dims = verdict.centric_dims
    for new in noncentric:
        objs = sorted(current + [new])
        present = set(objs)
        upward = True
        for a in in_sylow:
            if member_class[a] not in present:
                continue
            for b in poset.leq[a]:
                if b in in_sylow and member_class[b] not in present:
                    upward = False

        sub, incl = full_subcategory(cat, objs)
        new_sub = objs.index(new)
        F_full = F_all.restrict(sub, incl)
        F_zero = zeroed_at(F_full, [new_sub])
        punct = supported_cohomology_functor(G, p, sub, [new_sub], i, cache)

        natural = _natural_surjection_ok(F_full, new_sub)
        loops = sub.mor(new_sub, new_sub)
        kernel_ok = punct.dims[new_sub] == F_full.dims[new_sub] and all(
            punct.dims[k] == 0 for k in range(sub.object_count) if k != new_sub
        ) and np.array_equal(punct.blocks(loops), F_full.blocks(loops))

        stage = FiltrationStage(
            added_label=skel.omega_reps[new].label(),
            added_order=skel.omega_reps[new].order,
            upward_closed=upward,
            surjection_natural=natural,
            kernel_matches_punctured=kernel_ok,
            punctured_dims=limits_profile(punct, nmax, budget, cache.limits).dims,
            lim_full=limits_profile(F_full, nmax, budget, cache.limits).dims,
            lim_zeroed=limits_profile(F_zero, nmax, budget, cache.limits).dims,
            lim_previous=prev_dims,
        )
        verdict.stages.append(stage)
        prev_dims = stage.lim_full
        current = objs
    return verdict
