import random
import sys

import numpy as np
import pytest

from plocal import (
    BudgetExceeded,
    Functor,
    NotCentric,
    PLocalError,
    PipelineConfig,
    all_subgroups,
    build_intersection_poset,
    build_linking,
    build_orbit,
    build_orbit_skeletons,
    build_transporter,
    coset_category,
    full_subcategory,
    nerve_complex,
    normalizer,
    quotient_projection,
    run_pipeline,
    skeleton,
    sylow_conjugates,
    sylow_subgroup,
    verify_category,
    verify_closure_adjunction,
    verify_quotient_functor,
)
from plocal import categories, omega
from plocal.catalog import build_group
from plocal.categories import AdjunctionVerdict, iso_classes
from plocal.chains import chain_counts
from plocal.errors import DEFAULT_BUDGET
from plocal.groups import transporters
import reference_categories
from reference_categories import (
    reference_coset_category,
    reference_coset_tokens,
    reference_coset_well_definedness,
    reference_cosets,
    reference_least,
    reference_verify_category,
    reference_verify_closure_adjunction,
    reference_verify_quotient_functor,
)
from reference_chains import reference_by_witness, reference_compose_table, reference_mor
from reference_omega import centric_subgroups

CATALOG = ["sym:3", "sym:4", "alt:4", "dih:8", "dih:12", "cyc:6", "sym:3 x cyc:3"]


def centric_in_sylow(G, p):
    return centric_subgroups(G, p, all_subgroups(sylow_subgroup(G, p)))


# the failure prefixes of each category law and each quotient condition,
# which the checks share with their references
CATEGORY_LAWS = {
    "identities": ("object ", "left identity fails", "right identity fails"),
    "closed": ("composite ",),
    "associative": ("associativity fails",),
    "well_defined": ("witness of token", "representative shift"),
}
QUOTIENT_CONDITIONS = {
    "iso_class_bijective": ("isomorphic objects", "not bijective"),
    "morphism_surjective": ("morphism map not surjective",),
    "kernels_prime_to_p": ("kernel element",),
    "fibers_are_kernel_orbits": ("fiber of token",),
}


def broken(v, prefixes=CATEGORY_LAWS) -> set[str]:
    """The laws, or conditions, a verdict's failures name; every failure
    must name one."""
    heads = tuple(h for hs in prefixes.values() for h in hs)
    assert all(f.startswith(heads) for f in v.failures), v.failures
    return {law for law, hs in prefixes.items() if any(f.startswith(hs) for f in v.failures)}


def test_transporter_counts_s3():
    G = build_group("sym:3")
    S = sylow_subgroup(G, 2)
    T = build_transporter(G, [S])
    assert T.object_count == 1
    assert T.morphism_count == 2
    one = build_transporter(G, [G.trivial_subgroup()])
    assert one.morphism_count == G.order
    poset = build_intersection_poset(G, 2)
    T4 = build_transporter(G, poset.members)
    triv = next(i for i, P in enumerate(T4.objects) if P.order == 1)
    for j, P in enumerate(T4.objects):
        if P.order == 2:
            assert len(T4.mor(triv, j)) == 6


def test_linking_counts():
    G = build_group("sym:3")
    S2 = sylow_subgroup(G, 2)
    L = build_linking(G, 2, [S2])
    assert L.morphism_count == 2
    S3 = sylow_subgroup(G, 3)
    L3 = build_linking(G, 3, [S3])
    assert L3.morphism_count == 6
    D8 = build_group("dih:8")
    LD = build_linking(D8, 2, [D8.full_subgroup()])
    assert LD.morphism_count == 8


def test_linking_rejects_non_centric():
    G = build_group("sym:3")
    with pytest.raises(NotCentric):
        build_linking(G, 2, [G.trivial_subgroup()])


def test_build_linking_computes_each_centralizer_once(monkeypatch):
    """C_G(P) serves both the centricity test and O^p(C_G(P))."""
    G = build_group("sym:3 x cyc:3")
    objs = sylow_conjugates(G, sylow_subgroup(G, 2))
    calls, real = [], categories.centralizer
    spy = lambda G, P: calls.append(P.ids) or real(G, P)  # noqa: E731
    for module in (categories, omega):
        monkeypatch.setattr(module, "centralizer", spy)
    L = build_linking(G, 2, objs)
    assert calls == [P.ids for P in objs]
    assert [K.order for K in L.left] == [3, 3, 3]


def test_orbit_counts_s3():
    G = build_group("sym:3")
    S = sylow_subgroup(G, 2)
    O = build_orbit(G, [G.trivial_subgroup(), S])
    assert len(O.mor(0, 0)) == 6
    assert len(O.mor(0, 1)) == 3
    assert len(O.mor(1, 1)) == 1
    assert len(O.mor(1, 0)) == 0
    whole = build_orbit(G, [G.full_subgroup()])
    assert whole.morphism_count == 1


def test_orbit_coset_count_identity():
    for spec, p in [("sym:4", 2), ("dih:12", 2)]:
        G = build_group(spec)
        subs = all_subgroups(sylow_subgroup(G, p))
        O = build_orbit(G, [G.trivial_subgroup()] + [H for H in subs if H.order > 1])
        for j, H in enumerate(O.objects):
            assert len(O.mor(0, j)) == G.order // H.order


def test_category_laws_everywhere():
    for spec, p in [("sym:3", 2), ("sym:4", 2), ("sym:3 x cyc:3", 2), ("dih:12", 3)]:
        G = build_group(spec)
        poset = build_intersection_poset(G, p)
        for cat in (
            build_transporter(G, poset.members),
            build_orbit(G, poset.members),
        ):
            assert verify_category(cat).passed, (spec, p, cat.kind)
        cents = centric_in_sylow(G, p)
        if cents:
            assert verify_category(build_linking(G, p, cents)).passed


def _corrupt_one_composite(C):
    """Point one composite at another token of the same morphism set."""
    for k, t3 in enumerate(C.composite.tolist()):
        others = [t for t in C.mor(C.src[t3], C.tgt[t3]) if t != t3]
        if others:
            C.composite[k] = others[0]
            return
    raise AssertionError("every morphism set has one token")


@pytest.mark.parametrize("kind", ["transporter", "linking", "orbit"])
def test_coset_check_catches_a_wrong_composite(kind):
    G = build_group("sym:3 x cyc:3")
    if kind == "linking":
        C = build_linking(G, 2, centric_in_sylow(G, 2))
        assert [K.order for K in C.left] == [3]
    else:
        builder = build_transporter if kind == "transporter" else build_orbit
        C = builder(G, build_intersection_poset(G, 2).members)
    assert "well_defined" not in broken(verify_category(C))
    _corrupt_one_composite(C)
    v = verify_category(C)
    assert "well_defined" in broken(v)
    assert any("representative shift breaks composite" in f for f in v.failures)


def test_coset_check_catches_a_witness_that_is_not_least():
    G = build_group("sym:3")
    C = build_orbit(G, [G.trivial_subgroup(), sylow_subgroup(G, 2)])
    t = C.mor(0, 1)[0]
    C.witness[t] = reference_cosets(C, C.src[t], C.tgt[t], C.witness[t])[0].max()
    v = verify_category(C)
    assert "well_defined" in broken(v)
    assert f"witness of token {t} is not the least of its coset" in v.failures


def coset_check(C):
    """The coset rule's failures, in order: the rule holds when there are none."""
    failures = []
    categories._verify_coset_well_definedness(C, failures, *C.pairs())
    return failures


def reference_coset_check(C):
    failures = []
    reference_coset_well_definedness(C, failures)
    return failures


def s3c3_category(kind):
    """A category on sym:3 x cyc:3 at p=2; the linking one on the three
    Sylow subgroups, each with K(P) of order 3 on the left."""
    G = build_group("sym:3 x cyc:3")
    if kind == "linking":
        return build_linking(G, 2, sylow_conjugates(G, sylow_subgroup(G, 2)))
    builder = build_transporter if kind == "transporter" else build_orbit
    return builder(G, build_intersection_poset(G, 2).members)


@pytest.mark.parametrize("kind", ["transporter", "linking", "orbit"])
def test_coset_check_matches_the_exhaustive_reference_under_a_wrong_composite(kind):
    C = s3c3_category(kind)
    _corrupt_one_composite(C)
    got = coset_check(C)
    assert got
    assert got == reference_coset_check(C)


@pytest.mark.parametrize("kind", ["transporter", "linking", "orbit"])
def test_coset_check_matches_the_exhaustive_reference_outside_mor_sets(kind):
    """40 seeded trials, each pointing one composite at a token outside its
    morphism set, so every product of the pair is looked up in the
    composite's own coset: the verdict and failures equal the reference's."""
    C = s3c3_category(kind)
    rng = np.random.default_rng(15)
    good, (t1, t2) = C.composite.copy(), C.pairs()
    verdicts = []
    for _ in range(40):
        k = int(rng.integers(len(good)))
        a, c = C.src[t1[k]], C.tgt[t2[k]]
        outside = np.flatnonzero((C.src != a) | (C.tgt != c))
        C.composite[:] = good
        C.composite[k] = outside[int(rng.integers(len(outside)))]
        got = coset_check(C)
        assert got == reference_coset_check(C), (kind, k)
        verdicts.append(not got)
    assert not all(verdicts)


def misplace_a_composite(C):
    """Point one composite, of t1: i -> j with witness a and t2: j -> k with
    witness b, at a token outside Mor(i, k) whose coset holds every a r l b
    (r in right[j], l in left[j]) but not every product of representatives;
    the pair's failure message."""
    t1, t2 = C.pairs()
    mul, m = C.group.mul, C.object_count
    s, e = (x.ravel() for x in np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))

    def within(t3, z):
        """Whether every element of z lies in the coset of each token t3."""
        least = reference_least(C, s[:, None], e[:, None], z[None, :]).reshape(len(s), -1)
        return (least == C.witness[t3][:, None]).all(axis=1)

    for q in range(len(t1)):
        a, b, j = C.witness[t1[q]], C.witness[t2[q]], C.tgt[t1[q]]
        middle = mul[mul[a, C.right[j].ids][:, None], mul[C.left[j].ids, b]].ravel()
        x, y = (reference_cosets(C, C.src[t], C.tgt[t], C.witness[t])[0] for t in (t1[q], t2[q]))
        t3 = C.tokens_of(s, e, reference_least(C, s, e, mul[a, b]))
        hit = (t3 >= 0) & (t3 != C.composite[q]) & within(t3, middle)
        hit &= ~within(t3, mul[x[:, None], y].ravel())
        if hit.any():
            C.composite[q] = t3[np.flatnonzero(hit)[0]]
            return f"representative shift breaks composite ({t1[q]},{t2[q]})"
    raise AssertionError("no composite to misplace")


def test_coset_check_judges_every_product_of_a_composite_outside_its_mor_set():
    """The products through the middle object lie in the misplaced
    composite's coset, so only those through the outer sides, right(R) on the
    orbit category and left(P) on a category with varying left sides, show
    the fault."""
    G = build_group("sym:4")
    members = build_intersection_poset(G, 2).members
    three = G.generated_subgroup([G.element_orders.index(3)])
    trivial = G.trivial_subgroup()
    lefts = [trivial if k % 2 else three for k in range(len(members))]
    for C in (s3c3_category("orbit"), both_sided(G, members, lefts, [trivial] * len(members))):
        message = misplace_a_composite(C)
        got = coset_check(C)
        assert got == reference_coset_check(C)
        assert message in got


def test_quotient_projection_fibers():
    G = build_group("sym:3 x cyc:3")
    cents = centric_in_sylow(G, 2)
    T = build_transporter(G, cents)
    psi = quotient_projection(T, 2)
    assert not psi.violations()
    v = verify_quotient_functor(psi, 2)
    assert v.passed
    assert v.kernel_orders == [3]
    # every fiber of the automorphism map has exactly kernel-many elements
    L = psi.target
    assert T.morphism_count == 3 * L.morphism_count


def test_quotient_projection_p_group_bijective():
    G = build_group("dih:8")
    T = build_transporter(G, [G.full_subgroup()])
    psi = quotient_projection(T, 2)
    assert verify_quotient_functor(psi, 2).passed
    assert psi.target.morphism_count == T.morphism_count


def test_kernel_conditions_fail_on_collapse():
    G = build_group("sym:3")
    poset = build_intersection_poset(G, 2)
    S = sylow_subgroup(G, 2)
    T = build_transporter(G, [poset.members[poset.minimum], S])
    terminal = build_orbit(G, [G.full_subgroup()])
    collapse = Functor(
        T, terminal, [0] * T.object_count, [0] * T.morphism_count
    )
    assert not collapse.violations()
    v = verify_quotient_functor(collapse, 2)
    assert "iso_class_bijective" in broken(v, QUOTIENT_CONDITIONS)
    assert not v.passed


def test_identity_functor_passes_kernel_conditions():
    G = build_group("sym:3")
    T = build_transporter(G, [sylow_subgroup(G, 2)])
    ident = Functor(T, T, [0], list(range(T.morphism_count)))
    v = verify_quotient_functor(ident, 2)
    assert v.passed
    assert v.kernel_orders == [1]


def quotient_agrees(psi, p):
    """The array check's verdict, after requiring the scalar reference's
    failed conditions, kernel orders and failures from it."""
    v, r = verify_quotient_functor(psi, p), reference_verify_quotient_functor(psi, p)
    assert broken(v, QUOTIENT_CONDITIONS) == broken(r, QUOTIENT_CONDITIONS)
    assert v.kernel_orders == r.kernel_orders
    assert sorted(v.failures) == sorted(r.failures)
    return v


@pytest.mark.parametrize("spec", CATALOG)
@pytest.mark.parametrize("p", [2, 3])
def test_quotient_check_matches_the_scalar_reference(spec, p):
    from plocal.pipeline import PipelineRun
    cfg = PipelineConfig(prime=p, include_timings=False)
    psi = PipelineRun(build_group(spec), cfg, "").linking_projection
    assert quotient_agrees(psi, p).passed


def test_quotient_check_matches_the_scalar_reference_under_faults():
    G = build_group("sym:3 x cyc:3")
    T = build_transporter(G, centric_in_sylow(G, 2))
    psi = quotient_projection(T, 2)
    D, fmap = psi.target, psi.morphism_map

    def remapped(change):
        return Functor(T, D, psi.object_map, [change.get(x, x) for x in fmap])

    # one token remapped within its Mor set
    t = next(t for t in range(T.morphism_count) if not T.is_id[t]
             and len(D.mor(D.src[fmap[t]], D.tgt[fmap[t]])) > 1)
    u = other_in_mor(D, fmap[t])
    one = Functor(T, D, psi.object_map, fmap[:t] + [u] + fmap[t + 1:])
    assert "fibers_are_kernel_orbits" in broken(quotient_agrees(one, 2), QUOTIENT_CONDITIONS)
    # a target token left unhit: every token over fmap[t] sent to u
    v = quotient_agrees(remapped({fmap[t]: u}), 2)
    assert "morphism_surjective" in broken(v, QUOTIENT_CONDITIONS) and not v.passed
    # the collapse functor
    S3 = build_group("sym:3")
    poset = build_intersection_poset(S3, 2)
    T3 = build_transporter(S3, [poset.members[poset.minimum], sylow_subgroup(S3, 2)])
    terminal = build_orbit(S3, [S3.full_subgroup()])
    collapse = Functor(T3, terminal, [0] * T3.object_count, [0] * T3.morphism_count)
    v = quotient_agrees(collapse, 2)
    assert {"iso_class_bijective", "kernels_prime_to_p"} <= broken(v, QUOTIENT_CONDITIONS)
    # a kernel automorphism whose square is made itself never cycles
    k = next(k for k in range(T.morphism_count) if not T.is_id[k] and D.is_id[fmap[k]])
    T.composite[slot(T, k, k)] = k
    for check in (verify_quotient_functor, reference_verify_quotient_functor):
        with pytest.raises(PLocalError, match=f"endomorphism token {k} is not invertible"):
            check(psi, 2)


def test_skeleton_of_conjugate_objects():
    G = build_group("sym:3")
    cents = [H for H in all_subgroups(G.full_subgroup()) if H.order == 2]
    L = build_linking(G, 2, cents)
    assert L.object_count == 3
    skel, incl = skeleton(L)
    assert skel.object_count == 1
    assert len(skel.mor(0, 0)) == 2
    assert not incl.violations()
    # skeleton of a skeletal category is itself
    again, _ = skeleton(skel)
    assert again.object_count == skel.object_count


def test_iso_classes_in_orbit_category():
    G = build_group("sym:3")
    poset = build_intersection_poset(G, 2)
    O = build_orbit(G, poset.members)
    _, classes = iso_classes(O)
    assert len(classes) == 2


def test_full_subcategory_inclusion():
    G = build_group("sym:4")
    poset = build_intersection_poset(G, 2)
    T = build_transporter(G, poset.members)
    keep = [i for i, P in enumerate(T.objects) if P.order == 8][:2]
    sub, incl = full_subcategory(T, keep)
    assert sub.object_count == 2
    assert not incl.violations()
    assert verify_category(sub).passed


def test_closure_adjunction():
    for spec, p in [("sym:3", 2), ("sym:4", 2), ("cyc:6", 3)]:
        G = build_group(spec)
        poset = build_intersection_poset(G, p)
        subs = all_subgroups(sylow_subgroup(G, p))
        v = verify_closure_adjunction(poset, subs)
        assert v.passed, (spec, p, v.failures[:3])


def test_adjunction_composes_without_the_larger_orbit_table():
    """On sym:4 x cyc:2 at p=2 the adjunction keeps no composition store:
    its budget bounds each test subgroup's two families of squares, counted
    before any is composed.  Over the 35 test subgroups the largest
    precomposition family has 1,440 pairs and the largest postcomposition
    family 117 (15,645 and 2,043 in all), so a budget of 2,000 passes and
    one of 1,439 leaves the verdict not certified.  With the Sylow the one
    test subgroup, its postcomposition family (9 pairs) is the larger of
    its two (3) and overruns alone."""
    G = build_group("sym:4 x cyc:2")
    poset = build_intersection_poset(G, 2)
    S = sylow_subgroup(G, 2)
    subs = all_subgroups(S)
    budget = 2000
    assert verify_closure_adjunction(poset, subs, table_budget=budget).passed
    with pytest.raises(BudgetExceeded, match="^1440 precomposition pairs exceed budget 1439$"):
        verify_closure_adjunction(poset, subs, table_budget=1439)
    assert verify_closure_adjunction(poset, [S], table_budget=9).passed
    with pytest.raises(BudgetExceeded, match="^9 postcomposition pairs exceed budget 8$"):
        verify_closure_adjunction(poset, [S], table_budget=8)
    for b, verdict in ((budget, "pass"), (1439, "not-certified")):
        rep = run_pipeline("sym:4 x cyc:2", PipelineConfig(
            prime=2, max_degree=2, checks=("adjunction",), budget=b, include_timings=False))
        assert rep.verdicts["closure_inclusion_adjunction"] == verdict


def assert_adjunction_matches_reference(poset, subs):
    v = verify_closure_adjunction(poset, subs)
    want = reference_verify_closure_adjunction(poset, subs)
    assert (v.pairs_checked, v.failures) == (want.pairs_checked, want.failures)
    return v


@pytest.mark.parametrize("spec,p", [(s, p) for s in CATALOG for p in (2, 3)]
                         + [("sym:4 x cyc:2", 2), ("sym:4 x cyc:2", 3), ("sym:5", 2), ("sym:5", 3)])
def test_adjunction_matches_the_two_category_reference(spec, p):
    """The same pairs checked and failures as the check that built the
    members' orbit category Ω with its store."""
    G = build_group(spec)
    poset = build_intersection_poset(G, p)
    v = assert_adjunction_matches_reference(poset, all_subgroups(sylow_subgroup(G, p)))
    assert v.passed, v.failures[:3]


def test_adjunction_matches_the_reference_under_a_wrong_closure(monkeypatch):
    """On sym:4 x cyc:2 at p=2, each test subgroup in turn given a wrong
    member as its closure: both checks report the same failures, in the
    same order, and every such closure fails."""
    G = build_group("sym:4 x cyc:2")
    poset = build_intersection_poset(G, 2)
    subs = all_subgroups(sylow_subgroup(G, 2))
    for bad in subs:
        def wrong(poset, P, bad=bad):
            right = omega.closure_in_poset(poset, P)
            if P.ids != bad.ids:
                return right
            return poset.members[0] if right.ids == poset.members[-1].ids else poset.members[-1]

        monkeypatch.setattr(categories, "closure_in_poset", wrong)
        monkeypatch.setattr(reference_categories, "closure_in_poset", wrong)
        assert not assert_adjunction_matches_reference(poset, subs).passed, bad.label()


@pytest.mark.parametrize("seed,least", [(7, False), (3, True)])
def test_adjunction_matches_the_reference_on_a_corrupted_coset_table(seed, least):
    """On sym:4 at p=2, one entry of one least-element table the group
    keeps, chosen by the seed, set to a random element, so that a composite
    may be no token, or to the least element of another coset, so that two
    composites may both be tokens and differ: both checks read the same
    tables and report the same failures, in the same order."""
    G = build_group("sym:4")
    poset = build_intersection_poset(G, 2)
    subs = all_subgroups(sylow_subgroup(G, 2))
    assert_adjunction_matches_reference(poset, subs)  # builds the tables
    rng = random.Random(seed)
    table = G._coset_minima[rng.choice(sorted(G._coset_minima))]
    x = rng.randrange(G.order)
    table[x] = table[rng.randrange(G.order)] if least else rng.randrange(G.order)
    assert not assert_adjunction_matches_reference(poset, subs).passed


def adjunction_passes(monkeypatch, poset, subs, budget) -> tuple[int, AdjunctionVerdict]:
    """The verdict at the budget, and how many passes composed its squares:
    each composes twice by the coset rule."""
    calls = []
    real = categories.FiniteCategory.coset_composites

    def coset_composites(self, *args):
        if sys._getframe(1).f_code.co_name == "verify_closure_adjunction":
            calls.append(args)
        return real(self, *args)

    with monkeypatch.context() as mp:
        mp.setattr(categories.FiniteCategory, "coset_composites", coset_composites)
        v = verify_closure_adjunction(poset, subs, table_budget=budget)
    assert len(calls) % 2 == 0
    return len(calls) // 2, v


def test_adjunction_squares_agree_across_passes(monkeypatch):
    """On sym:4 x cyc:2 at p=2, with one test subgroup given a wrong closure
    so that squares fail: the pairs checked and the failures are the
    reference's whether the budget composes every family in one pass, in
    11 passes, or in 17 at the largest family's size.  With the Sylow as
    the test subgroup three times over (families of 3 and 9 pairs), the
    budget sets one pass, two, one per test subgroup or one per family."""
    G = build_group("sym:4 x cyc:2")
    poset = build_intersection_poset(G, 2)
    S = sylow_subgroup(G, 2)
    subs = all_subgroups(S)
    bad = subs[5]

    def wrong(poset, P):
        right = omega.closure_in_poset(poset, P)
        if P.ids != bad.ids:
            return right
        return poset.members[0] if right.ids == poset.members[-1].ids else poset.members[-1]

    with monkeypatch.context() as mp:
        mp.setattr(categories, "closure_in_poset", wrong)
        mp.setattr(reference_categories, "closure_in_poset", wrong)
        want = reference_verify_closure_adjunction(poset, subs)
        assert want.failures
        for budget, passes in ((DEFAULT_BUDGET, 1), (2000, 11), (1440, 17)):
            got = adjunction_passes(monkeypatch, poset, subs, budget)
            assert got == (passes, want), budget
    want = reference_verify_closure_adjunction(poset, [S] * 3)
    for budget, passes in ((36, 1), (24, 2), (12, 3), (9, 6)):
        assert adjunction_passes(monkeypatch, poset, [S] * 3, budget) == (passes, want)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_adjunction_matches_the_reference_under_a_corrupted_orbit_witness(monkeypatch, seed):
    """On sym:4 x cyc:2 at p=2, one token from a test subgroup to a member
    in the orbit category on both, chosen by the seed, given another
    element as its witness: the check and the reference, which builds that
    category too, report the same failures, in one pass and in many."""
    G = build_group("sym:4 x cyc:2")
    poset = build_intersection_poset(G, 2)
    subs = all_subgroups(sylow_subgroup(G, 2))
    tests, members = {P.ids for P in subs}, {Q.ids for Q in poset.members}
    rng = np.random.default_rng(seed)
    real = categories._fill_cosets

    def corrupted(C):
        real(C)
        if C.object_count > len(members):  # not the members' own category
            ends = [(C.objects[i].ids in tests, C.objects[j].ids in members)
                    for i, j in zip(C.src.tolist(), C.tgt.tolist())]
            t = rng.choice(np.flatnonzero(np.all(ends, axis=1)))
            C.witness[t] = (C.witness[t] + 1 + rng.integers(G.order - 1)) % G.order
        return C

    monkeypatch.setattr(categories, "_fill_cosets", corrupted)
    monkeypatch.setattr(reference_categories, "_fill_cosets", corrupted)
    outcomes = set()
    for budget in (DEFAULT_BUDGET, 1440):
        seed_state = rng.bit_generator.state
        want = reference_verify_closure_adjunction(poset, subs)
        rng.bit_generator.state = seed_state
        got = verify_closure_adjunction(poset, subs, table_budget=budget)
        assert (got.pairs_checked, got.failures) == (want.pairs_checked, want.failures)
        outcomes.add(got.passed)
    assert outcomes == {False}


def test_adjunction_builds_one_category_and_no_store(monkeypatch):
    """The check builds one ``FiniteCategory`` and composes nothing into a
    store: ``build_orbit`` would add a second category and fill its store."""
    G = build_group("sym:4 x cyc:2")
    poset = build_intersection_poset(G, 2)
    subs = all_subgroups(sylow_subgroup(G, 2))
    built, filled = [], []
    C = categories.FiniteCategory
    real_init, real_fill = C.__init__, C.fill_composition

    def init(self, *args):
        built.append(args[0])
        real_init(self, *args)

    def fill(self, *args):
        filled.append(self.kind)
        real_fill(self, *args)

    monkeypatch.setattr(C, "__init__", init)
    monkeypatch.setattr(C, "fill_composition", fill)
    assert verify_closure_adjunction(poset, subs).passed
    assert (built, filled) == (["orbit"], [])


def test_group_category_store_is_checked_against_the_budget():
    """sym:4's one-object category composes 24 * 24 = 576 pairs: its store
    is budgeted like every other builder's."""
    G = build_group("sym:4")
    with pytest.raises(BudgetExceeded, match="576 composable pairs exceed budget 575"):
        categories.group_category(G, G.full_subgroup(), table_budget=575)
    C = categories.group_category(G, G.full_subgroup(), table_budget=576)
    assert C.pair_start[-1] == 576


def test_coset_category_contractible():
    G = build_group("sym:4")
    poset = build_intersection_poset(G, 2)
    S = sylow_subgroup(G, 2)
    members = [poset.members[i] for i in poset.members_in(S)]
    cat = coset_category(G, members)
    assert verify_category(cat).passed
    # one initial object: the normal minimum, whose cosets the skeleton merges
    initials = [
        a for a in range(cat.object_count)
        if all(len(cat.mor(a, b)) == 1 for b in range(cat.object_count))
    ]
    assert [cat.objects[a] for a in initials] == [poset.members[poset.minimum]]


@pytest.mark.parametrize("spec", CATALOG)
@pytest.mark.parametrize("p", [2, 3])
def test_coset_category_is_the_skeleton_of_every_coset(spec, p):
    """``coset_category`` equals ``skeleton`` of the category of every coset
    (``reference_coset_category``), objects matched through their conjugates
    P^g, and wherever the full nerve fits the default budget through degree
    4, the two nerves have the same homology."""
    from plocal.pipeline import PipelineRun
    G = build_group(spec)
    members = PipelineRun(G, PipelineConfig(prime=p), "").omega_in_sylow
    C = coset_category(G, members)
    full = reference_coset_category(G, members)
    skel, _ = skeleton(full)
    assert [H.ids for H in C.objects] == [H.ids for H in skel.objects]
    for a in ("src", "tgt", "identity_ids", "composite"):
        assert np.array_equal(getattr(C, a), getattr(skel, a)), a
    assert verify_category(C).passed
    if max(chain_counts(full, 4)) <= DEFAULT_BUDGET:
        dims = nerve_complex(full, p, 4).homology()
        assert nerve_complex(C, p, 4).homology() == dims == [1, 0, 0, 0]


def test_coset_nerve_of_sym4_at_3_fits_the_budget():
    """Every coset of sym:4 at p=3 gives 9,158,432 chains at degree 4; the
    skeleton has five objects."""
    from plocal.pipeline import PipelineRun
    G = build_group("sym:4")
    members = PipelineRun(G, PipelineConfig(prime=3), "").omega_in_sylow
    assert chain_counts(coset_category(G, members), 4) == [5, 4, 0, 0, 0]
    assert chain_counts(reference_coset_category(G, members), 4)[4] == 9158432


def store_table(C):
    t1, t2 = C.pairs()
    return dict(zip(zip(t1.tolist(), t2.tolist()), C.composite.tolist()))


BUILDERS = {"build_transporter", "build_linking", "build_orbit",
            "group_category", "coset_category", "full_subcategory",
            "verify_closure_adjunction"}


def pipeline_categories(monkeypatch):
    """(spec, p, builder, category) for every category the pipeline builds
    for the catalog at p in {2, 3}, skeleta and the thin coset category
    included, with the name of the function that built it.  A category the
    pipeline left without a composition store (the adjunction's larger
    orbit category) is given one after the run."""
    built = []
    real_init = categories.FiniteCategory.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append((sys._getframe(1).f_code.co_name, self))

    monkeypatch.setattr(categories.FiniteCategory, "__init__", init)
    for spec in CATALOG:
        for p in (2, 3):
            rep = run_pipeline(spec, PipelineConfig(
                prime=p, max_degree=2, max_limit_degree=2,
                cohomology_index_max=1, include_timings=False,
            ))
            assert rep.overall != "fail", (spec, p)
            batch = built[:]
            built.clear()
            for builder, C in batch:
                if C.composite is None:
                    C.fill_composition(int(C.pair_start[-1]))
                yield spec, p, builder, C


def test_store_matches_reference_table_on_every_pipeline_category(monkeypatch):
    """Every category the pipeline builds holds exactly the composites of
    the dict-filling reference, with no extra pairs."""
    builders = set()
    for spec, p, builder, C in pipeline_categories(monkeypatch):
        assert store_table(C) == reference_compose_table(C), (spec, p, builder)
        builders.add(builder)
    assert builders >= BUILDERS


def test_coset_tokens_match_the_sorting_reference_on_every_pipeline_category(monkeypatch):
    """Every category the pipeline builds on transporter sets, its full
    subcategories and skeleta included, has the tokens of the ``np.unique``
    form: one per coset, witnessed by its least element, in (source,
    target, witness) order."""
    builders = set()
    for spec, p, builder, C in pipeline_categories(monkeypatch):
        if builder in ("group_category", "coset_category"):
            continue
        src, tgt, witness = reference_coset_tokens(C)
        assert np.array_equal(C.src, src), (spec, p, builder)
        assert np.array_equal(C.tgt, tgt), (spec, p, builder)
        assert np.array_equal(C.witness, witness), (spec, p, builder)
        builders.add(builder)
    assert builders >= BUILDERS - {"group_category", "coset_category"}


def check_least_tables(C):
    """``canonicals`` against the least element of the expanded coset, for
    every object pair and every element of G."""
    m, n = C.object_count, C.group.order
    i, j, g = (a.ravel() for a in np.meshgrid(np.arange(m), np.arange(m), np.arange(n),
                                               indexing="ij"))
    assert C.canonicals(i, j, g).tolist() == reference_least(C, i, j, g).tolist()


def test_least_tables_match_expanded_cosets_on_every_pipeline_category(monkeypatch):
    builders = set()
    for spec, p, builder, C in pipeline_categories(monkeypatch):
        if C.left is not None:
            check_least_tables(C)
            builders.add(builder)
    assert builders >= BUILDERS - {"coset_category"}


def test_coset_check_matches_the_exhaustive_reference_on_every_pipeline_category(
        monkeypatch):
    """The table check gives the reference's verdict and failure list, in
    order."""
    for spec, p, builder, C in pipeline_categories(monkeypatch):
        assert coset_check(C) == reference_coset_check(C), (spec, p, builder)


def both_sided(G, objects, left, right):
    """A category built by the coset rule with the given sides."""
    C = categories.FiniteCategory("both-sided", objects, G)
    C.left, C.right = left, right
    categories._fill_cosets(C).fill_composition(10 ** 6)
    return C


def sym4_both_sided():
    """Two categories on the sym:4, p=2 poset members built by the coset rule
    with both sides nontrivial: the normal Klein four group V on both sides,
    and sides that do not absorb each other."""
    G = build_group("sym:4")
    members = build_intersection_poset(G, 2).members
    V = next(H for H in all_subgroups(sylow_subgroup(G, 2))
             if H.order == 4 and normalizer(G, H).order == G.order)
    three = G.generated_subgroup([G.element_orders.index(3)])
    two = G.generated_subgroup([G.element_orders.index(2)])
    sides = [three, V, two]
    return (both_sided(G, members, [V] * len(members), [V] * len(members)),
            both_sided(G, members, [sides[k % 3] for k in range(len(members))],
                       [sides[(k + 1) % 3] for k in range(len(members))]))


def test_least_tables_on_cosets_with_both_sides_nontrivial():
    """Double cosets L x R: with the normal Klein four group V on both sides
    the rule composes (V g V)(V h V) = V g h V and every law holds; with
    sides that do not absorb each other the check still reports exactly the
    reference's failures."""
    C, mixed = sym4_both_sided()
    check_least_tables(C)
    v = verify_category(C)
    assert v.passed and laws(v) == laws(reference_verify_category(C))
    assert coset_check(C) == reference_coset_check(C)

    C = mixed
    assert all(C.left[k].order > 1 and C.right[k].order > 1 for k in range(C.object_count))
    check_least_tables(C)
    got = coset_check(C)
    assert got == reference_coset_check(C)
    assert got


def absorbing_flags(monkeypatch, C):
    """The left- and right-absorbing flags per token that the coset check
    computes for C, and the check's failures."""
    seen, real = [], categories._absorbing
    monkeypatch.setattr(categories, "_absorbing", lambda *args: seen.append(real(*args)) or seen[-1])
    failures = coset_check(C)
    monkeypatch.setattr(categories, "_absorbing", real)
    return seen[0], failures


def enumerated_pairs(C, left_abs, right_abs) -> np.ndarray:
    """The filled pairs the coset check judges by enumerating products: those
    whose composite leaves their morphism set or neither of whose tokens
    absorbs.  Every other filled pair takes the one lookup of its product."""
    t1, t2 = C.pairs()
    t3 = np.maximum(C.composite, 0)
    inside = (C.src[t3] == C.src[t1]) & (C.tgt[t3] == C.tgt[t2])
    return np.flatnonzero((C.composite >= 0) & ~(inside & (left_abs[t1] | right_abs[t2])))


def s4c2_orbit():
    """The 23-object orbit category on the classes of 2-subgroups of sym:4 x cyc:2."""
    C = build_orbit_skeletons(build_group("sym:4 x cyc:2"), 2).p_cat
    assert C.object_count == 23
    return C


def test_no_pipeline_category_enumerates_a_pair(monkeypatch):
    """Every category the pipeline builds, the 23-object orbit category and
    the linking category with K(P) of order 3 have a token that absorbs the
    middle object's sides in every composable pair, so each pair takes one
    lookup."""
    cats = list(pipeline_categories(monkeypatch))
    cats += [("sym:3 x cyc:3", 2, "linking", s3c3_category("linking")),
             ("sym:4 x cyc:2", 2, "orbit skeleton", s4c2_orbit())]
    assert [K.order for K in cats[-2][3].left] == [3, 3, 3]
    for spec, p, builder, C in cats:
        if C.left is not None:
            flags, failures = absorbing_flags(monkeypatch, C)
            assert not failures, (spec, p, builder)
            assert len(enumerated_pairs(C, *flags)) == 0, (spec, p, builder)


CORRUPTIONS = ("non-least witness", "non-transporting witness",
               "composite inside its Mor set", "composite outside its Mor set")


def corrupt(C, rng, kind) -> int:
    """Make one corruption of the given kind, chosen by ``rng``; the token,
    or the pair's slot, it changed."""
    G, (t1, t2), n = C.group, C.pairs(), C.morphism_count
    move = transporters(G, C.objects, C.objects)
    while True:
        if kind.endswith("witness"):
            t = int(rng.integers(n))
            if kind == "non-least witness":
                coset = np.unique(reference_cosets(C, C.src[t], C.tgt[t], C.witness[t])[0])
            else:
                coset = np.flatnonzero(~move[C.src[t], C.tgt[t]])
            coset = coset[coset != C.canonicals(C.src[t], C.tgt[t], C.witness[t])]
            if len(coset):
                C.witness[t] = coset[int(rng.integers(len(coset)))]
                return t
        else:
            k = int(rng.integers(len(t1)))
            i, j, t3 = C.src[t1[k]], C.tgt[t2[k]], C.composite[k]
            into = (C.src == i) & (C.tgt == j)
            others = np.flatnonzero((into if kind.startswith("composite inside") else ~into)
                                    & (np.arange(n) != t3))
            if len(others):
                C.composite[k] = others[int(rng.integers(len(others)))]
                return k


def test_coset_check_matches_the_reference_under_single_corruptions(monkeypatch):
    """Seeded single corruptions of the 23-object orbit category and the
    both-sided categories: the check's failures equal the reference's, in
    order.  On the orbit category a witness that does not transport its
    source into its target absorbs neither side, so its pairs are
    enumerated."""
    rng = np.random.default_rng(42)
    for C in (s4c2_orbit(), *sym4_both_sided()):
        witness, composite = C.witness.copy(), C.composite.copy()
        for kind in CORRUPTIONS:
            caught = 0
            for _ in range(20):
                C.witness[:], C.composite[:] = witness, composite
                hit = corrupt(C, rng, kind)
                (left_abs, right_abs), got = absorbing_flags(monkeypatch, C)
                assert got == reference_coset_check(C), (C.kind, kind, hit)
                caught += bool(got)
                if C.kind == "orbit" and kind == "non-transporting witness":
                    assert not left_abs[hit] and not right_abs[hit]
                    assert len(enumerated_pairs(C, left_abs, right_abs))
            assert caught, (C.kind, kind)
        C.witness[:], C.composite[:] = witness, composite


def generated_by(C, S) -> np.ndarray:
    """Which tokens the stored composites reach from S, by rounds of
    composing every pair of tokens reached so far."""
    t1, t2 = C.pairs()
    reached = np.zeros(C.morphism_count, dtype=bool)
    reached[S] = True
    while True:
        new = C.composite[reached[t1] & reached[t2]]
        new = new[new >= 0]
        if reached[new].all():
            return reached
        reached[new] = True


def laws(v):
    return v.passed, broken(v)


def test_verify_category_matches_the_exhaustive_reference_on_every_pipeline_category(
        monkeypatch):
    """Light's test over the generating set gives the exhaustive check's
    verdicts and failures, and the generating set reaches every token."""
    builders = set()
    for spec, p, builder, C in pipeline_categories(monkeypatch):
        v, ref = verify_category(C), reference_verify_category(C)
        assert laws(v) == laws(ref), (spec, p, builder)
        assert set(v.failures) == set(ref.failures), (spec, p, builder)
        assert v.triples_checked <= ref.triples_checked
        assert generated_by(C, categories.generating_set(C)).all(), (spec, p, builder)
        builders.add(builder)
    assert builders >= BUILDERS


@pytest.mark.parametrize("spec", ["sym:3 x cyc:3", "sym:4", "dih:12"])
def test_generating_set_check_agrees_with_the_exhaustive_one_under_faults(spec):
    """50 seeded trials per category, each pointing one composite at another
    token of its morphism set with the coset rule dropped: the associativity
    verdict equals the exhaustive reference's every time."""
    G = build_group(spec)
    rng = np.random.default_rng(14)
    members = build_intersection_poset(G, 2).members
    for builder in (build_transporter, build_orbit):
        C = builder(G, members)
        C.left = C.right = None
        good, (t1, t2) = C.composite.copy(), C.pairs()
        outcomes = []
        while len(outcomes) < 50:
            k = int(rng.integers(len(good)))
            others = [t for t in C.mor(C.src[t1[k]], C.tgt[t2[k]]) if t != good[k]]
            if not others:
                continue
            C.composite[:] = good
            C.composite[k] = others[int(rng.integers(len(others)))]
            v, ref = verify_category(C), reference_verify_category(C)
            associative = "associative" not in broken(v)
            assert associative == ("associative" not in broken(ref)), (builder, k)
            outcomes.append(associative)
        assert not all(outcomes), (spec, builder)


def test_triples_checked_on_the_structure_workload(monkeypatch):
    """The categories stage of sym:4 x cyc:2 at p=2 checks five distinct
    categories; the triples with a middle in each one's generating set are
    pinned."""
    real, seen = categories.verify_category, []
    monkeypatch.setattr(categories, "verify_category", lambda C: seen.append(real(C)) or seen[-1])
    rep = run_pipeline("sym:4 x cyc:2", PipelineConfig(
        prime=2, max_degree=3, checks=("categories",), include_timings=False))
    assert rep.verdicts["category_laws"] == "pass"
    assert [v.triples_checked for v in seen] == [28928, 37120, 37120, 172, 159291]


@pytest.mark.parametrize("fault", ["unfilled", "inside"])
def test_associativity_blocks_split_on_both_axes(monkeypatch, fault):
    """Two composites b1 c1 and b2 c2 of the sym:3 x cyc:3 transporter poset
    broken, with b1 and b2 leaving one object s: made unfilled, so that
    every triple is checked, or pointed at another token of their morphism
    sets with the coset rule dropped, so that only the generating set's
    middles are.  With ``_BLOCK`` so small that the pairs leaving s and the
    tokens into s both split into blocks, the failures are those at the
    default ``_BLOCK``, in order, and those of the exhaustive reference:
    equal to them when every triple is checked, among them otherwise."""
    C = transporter_s3c3()
    t1, t2 = C.pairs()
    plain = ~C.is_id[t1] & ~C.is_id[t2]
    s = int(np.bincount(C.src[t1[plain]]).argmax())
    k1 = np.flatnonzero(plain & (C.src[t1] == s))[0]
    k2 = np.flatnonzero(plain & (C.src[t1] == s) & (t1 != t1[k1]))[-1]
    for k in (k1, k2):
        C.composite[k] = -1 if fault == "unfilled" else other_in_mor(C, C.composite[k])
    if fault == "inside":
        C.left = C.right = None
    want = verify_category(C)
    monkeypatch.setattr(categories, "_BLOCK", 8)
    assert (t1[plain] == t1[k1]).sum() > 8 and (C.tgt == s).sum() > 1
    got, ref = verify_category(C), reference_verify_category(C)
    assert (got.triples_checked, got.failures) == (want.triples_checked, want.failures)
    middles = {int(f[1:-1].split(",")[1]) for f in got.failures if f.startswith("associativity")}
    if fault == "unfilled":
        assert {t1[k1], t1[k2]} <= middles
        assert (got.triples_checked, got.failures) == (ref.triples_checked, ref.failures)
    else:
        assert middles and set(got.failures) <= set(ref.failures)


def test_category_laws_pass_on_sym6_at_p3():
    """1,875,317,376 composable triples; about 16 million with a middle in
    the generating sets."""
    rep = run_pipeline("sym:6", PipelineConfig(
        prime=3, max_degree=2, checks=("categories",), include_timings=False))
    assert rep.verdicts["category_laws"] == "pass"


@pytest.mark.parametrize("value", [10**6, -5])
def test_a_composite_that_is_no_token_fails_the_category_laws(monkeypatch, value):
    """One transporter-poset composite of sym:4 at p = 2 set past the last
    token, or below 0: the run returns a report whose category laws read
    ``fail``, with the slot listed as a closure failure."""
    real, seen = categories.verify_category, []

    def corrupted(C):
        if not seen:  # the transporter poset is verified first
            t1, t2 = C.pairs()
            k = len(t1) // 2
            C.composite[k] = value
            seen.append((f"({t1[k]},{t2[k]})", real(C)))
            return seen[-1][1]
        return real(C)

    monkeypatch.setattr(categories, "verify_category", corrupted)
    rep = run_pipeline("sym:4", PipelineConfig(
        prime=2, max_degree=3, checks=("categories",), include_timings=False))
    assert rep.verdicts["category_laws"] == "fail"
    where, v = seen[0]
    assert "closed" in broken(v)
    assert any(f.startswith(f"composite {where} ") for f in v.failures), v.failures


def test_structure_checks_on_sym6_at_p2():
    """The closure and quotient verdicts pass; in the adjunction, the first
    test subgroup with a family of squares over the default budget has
    17,528,400 precomposition pairs, and the check raises before it
    composes anything."""
    checks = ("closure", "quotient", "adjunction")
    composed = []
    real = categories.FiniteCategory.coset_composites

    def coset_composites(self, *args):
        if sys._getframe(1).f_code.co_name == "verify_closure_adjunction":
            composed.append(args)
        return real(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(categories.FiniteCategory, "coset_composites", coset_composites)
        rep = run_pipeline("sym:6", PipelineConfig(
            prime=2, max_degree=2, checks=checks, include_timings=False))
    v = rep.verdicts
    assert [v[k] for k in ("closure_extends_and_monotone", "closure_idempotent",
                           "closure_preserves_transporters", "closure_transporter_equality",
                           "quotient_functor_conditions")] == ["pass"] * 5
    assert v["closure_inclusion_adjunction"] == "not-certified"
    assert rep.data["notes"] == ["adjunction: 17528400 precomposition pairs exceed budget 2000000"]
    assert composed == []


def transporter_s3c3():
    G = build_group("sym:3 x cyc:3")
    return build_transporter(G, build_intersection_poset(G, 2).members)


def test_compose_reads_the_store_and_rejects_bad_pairs():
    C = transporter_s3c3()
    t1, t2 = C.pairs()
    k = len(t1) // 2
    assert C.composites(t1[k:k + 1], t2[k:k + 1]) == [C.composite[k]]
    a = next(t for t in range(C.morphism_count) if C.tgt[t] != C.src[0])
    assert C.composites(np.array([a]), np.array([0])) == [-1]  # they do not compose
    with pytest.raises(PLocalError, match="fixed once"):
        C.set_tokens(C.src, C.tgt, C.witness, C.identity_ids)
    k = next(k for k in range(len(t1)) if not C.is_id[t1[k]] and not C.is_id[t2[k]])
    C.composite[k] = -1
    assert C.composites(t1[k:k + 1], t2[k:k + 1]) == [-1]  # the slot is not filled
    with pytest.raises(PLocalError, match="misses a composable pair"):
        nerve_complex(C, 2, 2)


def slot(C, t1, t2):
    """The index of the composable pair (t1, t2) in ``C.composite``."""
    return C.pair_start[t1] + t2 - C.first[C.src[t2]]


def nonidentity_with_sibling(C):
    """A non-identity token with another token in its morphism set."""
    return next(t for t in range(C.morphism_count) if not C.is_id[t]
                and len(C.mor(C.src[t], C.tgt[t])) > 1)


def other_in_mor(C, t):
    return next(x for x in C.mor(C.src[t], C.tgt[t]) if x != t)


@pytest.mark.parametrize("side", ["left", "right"])
def test_verify_category_catches_a_broken_identity(side):
    C = transporter_s3c3()
    t = nonidentity_with_sibling(C)
    if side == "left":
        k = slot(C, C.identity_ids[C.src[t]], t)
    else:
        k = slot(C, t, C.identity_ids[C.tgt[t]])
    C.composite[k] = other_in_mor(C, t)
    v = verify_category(C)
    assert "identities" in broken(v) and "closed" not in broken(v)
    assert f"{side} identity fails at token {t}" in v.failures


def test_verify_category_catches_a_composite_outside_its_mor_set():
    C = transporter_s3c3()
    t1, t2 = C.pairs()
    k = next(k for k in range(len(t1)) if C.src[t1[k]] != C.tgt[t2[k]])
    a, c = int(C.src[t1[k]]), int(C.tgt[t2[k]])
    C.composite[k] = C.identity_ids[c]
    v = verify_category(C)
    assert "closed" in broken(v) and not v.passed
    assert f"composite ({t1[k]},{t2[k]}) lands outside Mor({a},{c})" in v.failures


def test_verify_category_reads_an_unfilled_slot_as_not_closed():
    """An unfilled slot also makes associativity fall back to every
    composable triple."""
    C = transporter_s3c3()
    t1, t2 = C.pairs()
    k = len(t1) // 3
    C.composite[k] = -1
    v = verify_category(C)
    assert "closed" in broken(v) and not v.passed
    assert f"composite ({t1[k]},{t2[k]}) is not filled" in v.failures
    assert v.triples_checked == reference_verify_category(C).triples_checked


def test_verify_category_catches_non_associativity_without_a_coset_rule():
    # the smallest coset skeleton with a composable pair of non-identities
    G = build_group("sym:5")
    poset = build_intersection_poset(G, 2)
    S = sylow_subgroup(G, 2)
    C = coset_category(G, [poset.members[i] for i in poset.members_in(S)])
    C.left = C.right = None
    assert verify_category(C).passed
    t1, t2 = C.pairs()
    k = next(k for k in range(len(t1)) if not C.is_id[t1[k]] and not C.is_id[t2[k]])
    c = int(C.tgt[t2[k]])
    C.composite[k] = next(x for x in range(C.morphism_count)
                          if C.tgt[x] == c and x != C.composite[k])
    v = verify_category(C)
    assert "associative" in broken(v) and "well_defined" not in broken(v)
    assert any(f.startswith("associativity fails at") for f in v.failures)


def test_verify_category_catches_non_associativity_inside_mor_sets():
    """A wrong composite inside its morphism set keeps identities and
    closure; with the coset rule dropped, only associativity sees it."""
    C = transporter_s3c3()
    C.left = C.right = None
    t1, t2 = C.pairs()
    k = next(k for k in range(len(t1)) if not C.is_id[t1[k]] and not C.is_id[t2[k]]
             and len(C.mor(C.src[t1[k]], C.tgt[t2[k]])) > 1)
    C.composite[k] = other_in_mor(C, C.composite[k])
    v = verify_category(C)
    assert broken(v) == {"associative"}


def test_functor_violations_catch_a_composite_not_preserved():
    C, D = transporter_s3c3(), transporter_s3c3()
    t = nonidentity_with_sibling(C)
    k = slot(C, t, C.identity_ids[C.tgt[t]])
    D.composite[k] = other_in_mor(D, t)
    ident = Functor(C, D, list(range(C.object_count)), list(range(C.morphism_count)))
    assert ident.violations() == [
        f"composition of tokens ({t},{C.identity_ids[C.tgt[t]]}) not preserved"
    ]
    assert ident.violations()


@pytest.mark.parametrize("image", ["past the last token", "-1"])
def test_functor_violations_report_a_token_mapped_to_no_token(image):
    """A token mapped past the target's tokens, or to -1, is reported once
    and kept out of the identity, composition and object comparisons."""
    G = build_group("sym:3")
    T = build_transporter(G, build_intersection_poset(G, 2).members)
    t1, t2 = T.pairs()
    assert (t1 == 3).any() and (t2 == 3).any() and (T.composite == 3).any()
    ident = Functor(T, T, list(range(T.object_count)), list(range(T.morphism_count)))
    ident.morphism_map[3] = T.morphism_count + 5 if image == "past the last token" else -1
    assert ident.violations() == ["token 3 maps to no token of the target"]


@pytest.mark.parametrize("image", ["past the last object", "-1"])
def test_functor_violations_report_an_object_mapped_to_no_object(image):
    """An object mapped past the target's objects, or to -1, is reported once,
    as ``verify_quotient_functor`` reports it, and it and its tokens are kept
    out of the identity, composition and object comparisons: past the end
    raised ``IndexError``, and -1 read the last object's identity."""
    G = build_group("sym:3")
    T = build_transporter(G, build_intersection_poset(G, 2).members)
    assert ((T.src == 0) & ~T.is_id).any() and ((T.tgt == 0) & ~T.is_id).any()
    ident = Functor(T, T, list(range(T.object_count)), list(range(T.morphism_count)))
    ident.object_map[0] = T.object_count + 2 if image == "past the last object" else -1
    assert ident.violations() == ["object 0 maps to no object of the target"]


def check_store_lookups(C):
    """``mor`` and ``tokens_of`` against the dicts rebuilt from the token
    arrays, over every object pair and every witness from -2 to |G| + 1, so
    missing tokens, and witnesses that are no element of G, read [] and
    -1."""
    mor, by_witness = reference_mor(C), reference_by_witness(C)
    m = C.object_count
    for i in range(m):
        for j in range(m):
            assert C.mor(i, j) == mor.get((i, j), []), (i, j)
    i, j, w = np.meshgrid(np.arange(m), np.arange(m), np.arange(-2, C.group.order + 2),
                          indexing="ij")
    want = [by_witness.get(key, -1) for key in zip(i.ravel().tolist(), j.ravel().tolist(),
                                                   w.ravel().tolist())]
    assert C.tokens_of(i.ravel(), j.ravel(), w.ravel()).tolist() == want


def test_store_lookups_match_reference_dicts_on_every_pipeline_category(monkeypatch):
    builders = set()
    for spec, p, builder, C in pipeline_categories(monkeypatch):
        check_store_lookups(C)
        builders.add(builder)
        if builder == "coset_category":
            assert (C.witness == 0).all()
            assert all(len(C.mor(i, j)) <= 1 for i in range(C.object_count)
                       for j in range(C.object_count))
    assert builders >= BUILDERS


def test_tokens_of_finds_no_token_for_a_witness_outside_the_group():
    """On sym:3 at p=2 token 6 of the transporter poset is 0 -> 1 with
    witness 0, next to the place of witness |G| + 1 from 0 to 0 in a key
    that takes a place for every witness: no witness outside G reaches a
    token.  A category whose store overruns the budget builds no token
    table."""
    G = build_group("sym:3")
    members = build_intersection_poset(G, 2).members
    T = build_transporter(G, members)
    assert (T.src[6], T.tgt[6], T.witness[6]) == (0, 1, 0)
    assert T.tokens_of(0, 0, [7, 6, -1, -2]).tolist() == [-1] * 4
    assert T.tokens_of(0, 1, 0) == 6
    C = categories.FiniteCategory("transporter", members, G)
    C.left = C.right = T.left
    with pytest.raises(BudgetExceeded):
        categories._fill_cosets(C).fill_composition(10)
    assert C._token_table is None


@pytest.mark.parametrize("spec,p", [("sym:4", 2), ("sym:3 x cyc:3", 3), ("dih:12", 2)])
def test_skeleta_and_unsorted_full_subcategories_keep_the_store(spec, p):
    G = build_group(spec)
    T = build_transporter(G, build_intersection_poset(G, p).members)
    keep = list(range(T.object_count))[::-2]
    sub, incl = full_subcategory(T, keep)
    skel, skel_incl = skeleton(T)
    for C, F in ((sub, incl), (skel, skel_incl)):
        assert (np.diff(C.src) >= 0).all()
        assert C.witness.tolist() == T.witness[F.morphism_map].tolist()
        check_store_lookups(C)
        assert store_table(C) == reference_compose_table(C)
        assert not F.violations() and verify_category(C).passed


def test_set_tokens_rejects_ungrouped_sources_and_a_second_call():
    G = build_group("sym:3")
    C = categories.FiniteCategory("transporter", [G.trivial_subgroup()] * 2, G)
    with pytest.raises(PLocalError, match="grouped by source"):
        C.set_tokens([0, 1, 0], [0, 1, 1], [0, 0, 1], [0, 1])
    assert C.src is None
    # a repeated (source, target, witness), then targets out of order, also
    # behind a witness past |G| that a key with a place per witness in G
    # would carry into the next target's places
    for tgt, witness in (([0, 1, 1], [0, 1, 1]), ([1, 0], [0, 0]), ([1, 0], [0, 12])):
        with pytest.raises(PLocalError, match="distinct and sorted"):
            C.set_tokens([0] * len(tgt) + [1], tgt + [1], witness + [0], [0, len(tgt)])
        assert C.src is None
    C.set_tokens([0, 0, 1], [0, 1, 1], [0, 1, 0], [0, 2])
    assert C.mor(0, 1) == [1] and C.is_id.tolist() == [True, False, True]
    with pytest.raises(PLocalError, match="fixed once"):
        C.set_tokens([0, 0, 1], [0, 1, 1], [0, 1, 0], [0, 2])


def test_table_key_is_the_composition_table():
    """A full subcategory on every object, and sym:4's centric transporter
    and linking categories at p=2, have one table key; one changed
    composite or identity token gives another."""
    from plocal.pipeline import PipelineRun
    run = PipelineRun(build_group("sym:4"), PipelineConfig(prime=2), "sym:4")
    T = run.transporter_omega
    key = T.table_key()
    assert full_subcategory(T, list(range(T.object_count)))[0].table_key() == key
    assert run.transporter_centric.table_key() == run.linking_centric.table_key()
    assert run.transporter_centric is not run.linking_centric
    for array, at in ((T.composite, 7), (T.identity_ids, 1)):
        old = array[at]
        array[at] = (old + 1) % T.morphism_count
        assert T.table_key() != key
        array[at] = old
    assert T.table_key() == key
