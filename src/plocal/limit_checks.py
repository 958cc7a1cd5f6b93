"""Verification passes over orbit-category higher limits.

All checks run on skeletal orbit categories (one object per conjugacy class)
and compute both sides of each claimed identity independently.  One orbit
category is built per group: the intersection-poset skeleton is the full
subcategory of the p-subgroup skeleton on the poset's classes.  The checks
are:

* vanishing of the limits of a functor concentrated on a non-centric class,
  over both the intersection-poset skeleton and the full p-subgroup skeleton;
* reduction of class-supported limits to the normalizer quotient N_G(Q)/Q;
* invariance of limits under restriction to an upward-closed subcollection
  the functor is supported on;
* the one-class-at-a-time filtration from the centric subcategory up to the
  whole intersection poset.

The restriction and filtration checks share one upward-closure rule,
``_first_outside_above``.

Each check returns ``(passed, record)``, where ``record`` is the dict the
report prints for it: the dimensions of both sides, never a verdict object
for the pipeline to copy.

Every check takes the run's ``CohomologyCache``, which carries the budget,
and reads G and p from the skeletons; a cache of another group or prime is
rejected.  Limits go through the cache's ``limits`` store, so a functor
whose content recurs (the same functor restricted to every object, or
built again by a later check) is limited once per run.  The two sides of an
identity are different functors and are still computed separately.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    conjugacy_classes,
    normalizer,
    quotient_realization,
)
from .limits import (
    LinearFunctor,
    ModuleData,
    element_action_matrices,
    limits_profile,
)
from .omega import IntersectionPoset, build_intersection_poset, is_centric


def p_class_representatives(
    G: PermutationGroup, subgroups
) -> tuple[list[Subgroup], dict[tuple[int, ...], int]]:
    """One canonical representative per conjugacy class of p-subgroups, the
    least conjugate, canonically sorted, and the class of the ids of every
    conjugate, from the subgroups of any one Sylow p-subgroup: every class
    meets every Sylow."""
    orbits = sorted(conjugacy_classes(G, subgroups), key=lambda orbit: orbit[0].key)
    class_of = {C.ids: k for k, orbit in enumerate(orbits) for C in orbit}
    return [orbit[0] for orbit in orbits], class_of


@dataclass
class OrbitSkeletons:
    """Shared skeletal orbit categories for one (G, p)."""

    G: PermutationGroup
    p: int
    poset: IntersectionPoset
    sylow: Subgroup
    p_reps: list[Subgroup]
    p_class: dict[tuple[int, ...], int]   # p skeleton object of every p-subgroup's ids
    p_cat: FiniteCategory
    omega_reps: list[Subgroup]
    omega_cat: FiniteCategory
    omega_centric: list[bool]
    p_centric: list[bool]
    omega_of: dict[int, int]   # omega skeleton object of each p object in the poset
    member_class: list[int]   # omega skeleton object of each poset member

    def p_object_of(self, H: Subgroup) -> int:
        """Skeleton object index of the class of H."""
        k = self.p_class.get(H.ids)
        if k is None:
            raise PLocalError(f"{H.label()} is not a p-subgroup of the catalogued classes")
        return k

    def omega_object_of(self, H: Subgroup) -> int | None:
        return self.omega_of.get(self.p_object_of(H))


def build_orbit_skeletons(
    G: PermutationGroup,
    p: int,
    poset: IntersectionPoset | None = None,
    table_budget: int = DEFAULT_BUDGET,
    sylow_subgroups: list[Subgroup] | None = None,
) -> OrbitSkeletons:
    """The orbit category on the least member of each class of p-subgroups,
    its composition store within ``table_budget``, and its full subcategory
    on the classes of the intersection poset."""
    poset = poset or build_intersection_poset(G, p)
    # any Sylow works, for ``sylow_subgroups`` (every subgroup of one) too;
    # the minimal-key conjugate keeps output reproducible
    S = min(poset.sylows, key=lambda T: T.key)
    p_reps, p_class = p_class_representatives(G, sylow_subgroups or all_subgroups(S))
    p_cat = build_orbit(G, p_reps, table_budget)
    p_centric = [is_centric(G, p, R) for R in p_reps]
    # a poset class is a whole conjugacy class, so all its members share a
    # class of p_reps; the poset skeleton is the full subcategory of p_cat
    # on those classes, in p_reps order, so its tokens keep their order in
    # p_cat
    class_rep = [p_class[poset.members[cls[0]].ids] for cls in poset.classes]
    keep = sorted(set(class_rep))
    omega_of = {k: i for i, k in enumerate(keep)}
    return OrbitSkeletons(
        G=G,
        p=p,
        poset=poset,
        sylow=S,
        p_reps=p_reps,
        p_class=p_class,
        p_cat=p_cat,
        omega_reps=[p_reps[k] for k in keep],
        omega_cat=full_subcategory(p_cat, keep)[0],
        omega_centric=[p_centric[k] for k in keep],
        p_centric=p_centric,
        omega_of=omega_of,
        member_class=[omega_of[class_rep[c]] for c in poset.class_of],
    )


def atomic_functor_limits(
    skel: OrbitSkeletons,
    module: ModuleData,
    nmax: int,
    cache: CohomologyCache,
) -> list[int]:
    """dim lim^n, n < nmax, of the functor with value M at the trivial
    subgroup and zero elsewhere, over the skeletal orbit category of all
    p-subgroups of ``skel.G``.  Only the cache's budget and its store of
    limit profiles are read, so the cache may be a larger group's: the
    normalizer reduction passes a quotient's skeletons with the run's cache."""
    G, p, cat = skel.G, skel.p, skel.p_cat
    triv = next(i for i, R in enumerate(skel.p_reps) if R.order == 1)
    rho = element_action_matrices(G, module, p)
    dims = [module.dim if k == triv else 0 for k in range(cat.object_count)]
    loops = (cat.src == triv) & (cat.tgt == triv)
    F = LinearFunctor(cat, p, dims, rho[cat.witness[loops]].ravel())
    return _lim(F, nmax, cache)


def _lim(F: LinearFunctor, nmax: int, cache: CohomologyCache) -> list[int]:
    """dim lim^n F for n < nmax, within the run's budget, through its store."""
    return limits_profile(F, nmax, cache.budget, cache.limits)


def _check_context(skel: OrbitSkeletons, cache: CohomologyCache) -> None:
    if cache.G is not skel.G or cache.p != skel.p:
        raise PLocalError(f"a cohomology cache at p={cache.p} for a group of order "
                          f"{cache.G.order} is not the cache of these skeletons")


def punctured_class_vanishing(
    skel: OrbitSkeletons,
    Q: Subgroup,
    i: int,
    nmax: int,
    cache: CohomologyCache,
) -> tuple[bool, dict]:
    """Limits of the functor concentrated on the class of a non-centric Q
    vanish, over both skeleta, and agree; raises PLocalError for centric
    input.  The poset side is None when the class is not in the poset."""
    _check_context(skel, cache)
    k = skel.p_object_of(Q)
    label = skel.p_reps[k].label()
    if skel.p_centric[k]:
        raise PLocalError(f"{label} is centric: punctured vanishing needs a non-centric class")
    F_full = supported_cohomology_functor(skel.p_cat, [k], i, cache)
    full = _lim(F_full, nmax, cache)
    om = skel.omega_object_of(Q)
    omega_dims = None
    if om is not None:
        F_om = supported_cohomology_functor(skel.omega_cat, [om], i, cache)
        omega_dims = _lim(F_om, nmax, cache)
    passed = not any(full) and (omega_dims is None or omega_dims == full)
    return passed, {"class": label, "index": i, "full_dims": full, "poset_dims": omega_dims}


def normalizer_reduction_check(
    skel: OrbitSkeletons,
    Q: Subgroup,
    i: int,
    nmax: int,
    cache: CohomologyCache,
) -> tuple[bool, dict]:
    """Limits of a class-supported functor equal the atomic limits of the
    normalizer quotient W = N_G(R)/R acting on the value through the
    pullbacks along N_G(R)'s generating ids (W's generators, in order); both
    sides computed independently.  N_G(R), W and W's orbit skeletons depend
    only on the class representative R, so they are built once per class and
    kept in ``cache.quotients``."""
    _check_context(skel, cache)
    k = skel.p_object_of(Q)
    R = skel.p_reps[k]
    F = supported_cohomology_functor(skel.p_cat, [k], i, cache)
    left = _lim(F, nmax, cache)

    kept = cache.quotients.get(R.ids)
    if kept is None:
        N = normalizer(skel.G, R)
        W = quotient_realization(skel.G, N, R)
        kept = cache.quotients[R.ids] = (
            N, W, build_orbit_skeletons(W, skel.p, table_budget=cache.budget))
    N, W, quotient_skel = kept
    basis = cache.basis(R, i)
    gen_mats = [cache.pullback(R, R, i, g) for g in N.generating_ids]
    module = ModuleData(dim=basis.dim, generator_matrices=gen_mats)
    right = atomic_functor_limits(quotient_skel, module, nmax, cache)
    return left == right, {"class": R.label(), "index": i, "left": left, "right": right,
                           "quotient_order": W.order}


def _first_outside_above(skel: OrbitSkeletons, classes: list[int]) -> int | None:
    """A poset member that lies above a member of the listed skeleton
    classes without being in one itself, the first found scanning members
    in order; None when the classes are closed under overgroups within the
    poset.  The poset is closed under conjugation, so a pair a <= b
    conjugates into one Sylow together: the rule over all members is the
    rule within any one Sylow."""
    present = set(classes)
    member_class, poset = skel.member_class, skel.poset
    for a in range(len(poset.members)):
        if member_class[a] in present:
            for b in poset.leq[a]:
                if member_class[b] not in present:
                    return b
    return None


def support_restriction_check(
    skel: OrbitSkeletons,
    i: int,
    nmax: int,
    cache: CohomologyCache,
    support_classes: list[int] | None = None,
) -> tuple[bool, dict]:
    """Limits over the intersection-poset skeleton of a functor supported on
    an upward-closed subcollection equal limits over that subcategory alone.

    The support defaults to the centric classes.  A support that is not
    closed under overgroups within the poset raises UpwardClosureViolated.
    """
    _check_context(skel, cache)
    if support_classes is None:
        support_classes = [c for c, flag in enumerate(skel.omega_centric) if flag]
    support = sorted(set(support_classes))
    outside = _first_outside_above(skel, support)
    if outside is not None:
        raise UpwardClosureViolated(
            f"{skel.poset.members[outside].label()} lies above a supported member "
            f"but is outside the support"
        )
    F = supported_cohomology_functor(skel.omega_cat, support, i, cache)
    ambient = _lim(F, nmax, cache)
    sub, incl = full_subcategory(skel.omega_cat, support)
    restricted = _lim(F.restrict(sub, incl), nmax, cache)
    return ambient == restricted, {"index": i, "ambient": ambient, "restricted": restricted}


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
    cache: CohomologyCache,
) -> tuple[bool, dict]:
    """Add non-centric classes to the centric subcategory one at a time, by
    decreasing subgroup order, checking at every stage that the kernel of the
    zero-extension surjection is the punctured functor, that its limits
    vanish, and that the limit profile is unchanged; finish with the direct
    comparison of the centric and full profiles.  Every limit of a stage is
    computed before its checks are combined, so a failing stage costs what
    a passing one does."""
    _check_context(skel, cache)
    cat = skel.omega_cat

    centric_objs = sorted(c for c, f in enumerate(skel.omega_centric) if f)
    noncentric = sorted(
        (c for c, f in enumerate(skel.omega_centric) if not f),
        key=lambda c: (-skel.omega_reps[c].order, skel.omega_reps[c].key),
    )

    F_all = classifying_cohomology_functor(cat, i, cache)

    def lim_on(objs: list[int], functor: LinearFunctor) -> list[int]:
        sub, incl = full_subcategory(cat, objs)
        return _lim(functor.restrict(sub, incl), nmax, cache)

    centric_dims = lim_on(centric_objs, F_all)
    full_dims = _lim(F_all, nmax, cache)

    stages = []
    current = list(centric_objs)
    prev_dims = centric_dims
    for new in noncentric:
        objs = sorted(current + [new])
        sub, incl = full_subcategory(cat, objs)
        new_sub = objs.index(new)
        F_full = F_all.restrict(sub, incl)
        F_zero = zeroed_at(F_full, [new_sub])
        punct = supported_cohomology_functor(sub, [new_sub], i, cache)

        natural = _natural_surjection_ok(F_full, new_sub)
        loops = sub.mor(new_sub, new_sub)
        kernel_ok = punct.dims[new_sub] == F_full.dims[new_sub] and all(
            punct.dims[k] == 0 for k in range(sub.object_count) if k != new_sub
        ) and np.array_equal(punct.blocks(loops), F_full.blocks(loops))
        upward_closed = _first_outside_above(skel, objs) is None
        punctured_dims = _lim(punct, nmax, cache)
        lim_full = _lim(F_full, nmax, cache)
        lim_zeroed = _lim(F_zero, nmax, cache)
        stages.append({
            "added": skel.omega_reps[new].label(),
            "order": skel.omega_reps[new].order,
            "punctured_dims": punctured_dims,
            "lim_full": lim_full,
            "lim_previous": prev_dims,
            "passed": (upward_closed and natural and kernel_ok and not any(punctured_dims)
                       and lim_full == lim_zeroed == prev_dims),
        })
        prev_dims = lim_full
        current = objs
    passed = all(s["passed"] for s in stages) and centric_dims == full_dims
    return passed, {"index": i, "stages": stages, "centric_dims": centric_dims,
                    "full_dims": full_dims}
