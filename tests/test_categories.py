import sys

import numpy as np
import pytest

from plocal import (
    Functor,
    NotCentric,
    PLocalError,
    PipelineConfig,
    all_subgroups,
    build_intersection_poset,
    build_linking,
    build_orbit,
    build_transporter,
    coset_category,
    full_subcategory,
    nerve_complex,
    quotient_projection,
    run_pipeline,
    skeleton,
    sylow_subgroup,
    verify_category,
    verify_closure_adjunction,
    verify_quotient_functor,
)
from plocal import categories
from plocal.catalog import build_group
from plocal.categories import iso_classes
from reference_categories import reference_verify_category
from reference_chains import reference_by_witness, reference_compose_table, reference_mor
from reference_omega import centric_subgroups

CATALOG = ["sym:3", "sym:4", "alt:4", "dih:8", "dih:12", "cyc:6", "sym:3 x cyc:3"]


def centric_in_sylow(G, p):
    from plocal import classify_centric
    subs = all_subgroups(sylow_subgroup(G, p))
    table = classify_centric(G, p, subs)
    return centric_subgroups(table)


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
    assert verify_category(C).well_defined
    _corrupt_one_composite(C)
    v = verify_category(C)
    assert not v.well_defined
    assert any("representative shift breaks composite" in f for f in v.failures)


def test_coset_check_catches_a_witness_that_is_not_least():
    G = build_group("sym:3")
    C = build_orbit(G, [G.trivial_subgroup(), sylow_subgroup(G, 2)])
    t = C.mor(0, 1)[0]
    C.witness[t] = C.cosets(C.src[t], C.tgt[t], C.witness[t])[0].max()
    v = verify_category(C)
    assert not v.well_defined
    assert f"witness of token {t} is not the least of its coset" in v.failures


def test_quotient_projection_fibers():
    G = build_group("sym:3 x cyc:3")
    cents = centric_in_sylow(G, 2)
    T = build_transporter(G, cents)
    psi = quotient_projection(T, 2)
    assert psi.is_functor
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
    assert collapse.is_functor
    v = verify_quotient_functor(collapse, 2)
    assert not v.iso_class_bijective
    assert not v.passed


def test_identity_functor_passes_kernel_conditions():
    G = build_group("sym:3")
    T = build_transporter(G, [sylow_subgroup(G, 2)])
    ident = Functor(T, T, [0], list(range(T.morphism_count)))
    v = verify_quotient_functor(ident, 2)
    assert v.passed
    assert v.kernel_orders == [1]


def test_skeleton_of_conjugate_objects():
    G = build_group("sym:3")
    cents = [H for H in all_subgroups(G.full_subgroup()) if H.order == 2]
    L = build_linking(G, 2, cents)
    assert L.object_count == 3
    skel, incl = skeleton(L)
    assert skel.object_count == 1
    assert len(skel.mor(0, 0)) == 2
    assert incl.is_functor
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
    assert incl.is_functor
    assert verify_category(sub).passed


def test_closure_adjunction():
    for spec, p in [("sym:3", 2), ("sym:4", 2), ("cyc:6", 3)]:
        G = build_group(spec)
        poset = build_intersection_poset(G, p)
        subs = all_subgroups(sylow_subgroup(G, p))
        v = verify_closure_adjunction(G, p, poset, subs)
        assert v.passed, (spec, p, v.failures[:3])


def test_coset_category_contractible():
    G = build_group("sym:4")
    poset = build_intersection_poset(G, 2)
    S = sylow_subgroup(G, 2)
    members = [poset.members[i] for i in poset.members_in(S)]
    cat = coset_category(G, members)
    assert verify_category(cat).passed
    # initial objects: every coset of the minimum receives... emits one arrow
    n_min = G.order // poset.members[poset.minimum].order
    initials = [
        a for a in range(cat.object_count)
        if all(len(cat.mor(a, b)) == 1 for b in range(cat.object_count))
    ]
    assert len(initials) == n_min


def store_table(C):
    t1, t2 = C.pairs()
    return dict(zip(zip(t1.tolist(), t2.tolist()), C.composite.tolist()))


BUILDERS = {"build_transporter", "build_linking", "build_orbit",
            "group_category", "coset_category", "full_subcategory"}


def pipeline_categories(monkeypatch):
    """(spec, p, builder, category) for every category the pipeline builds
    for the catalog at p in {2, 3}, skeleta and the thin coset category
    included, with the name of the function that built it."""
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
                yield spec, p, builder, C


def test_store_matches_reference_table_on_every_pipeline_category(monkeypatch):
    """Every category the pipeline builds holds exactly the composites of
    the dict-filling reference, with no extra pairs."""
    builders = set()
    for spec, p, builder, C in pipeline_categories(monkeypatch):
        assert store_table(C) == reference_compose_table(C), (spec, p, builder)
        builders.add(builder)
    assert builders >= BUILDERS


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
    return (v.passed, v.associative, v.identities, v.composition_closed, v.well_defined)


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
            v = verify_category(C)
            assert v.associative == reference_verify_category(C).associative, (builder, k)
            outcomes.append(v.associative)
        assert not all(outcomes), (spec, builder)


def test_category_laws_pass_on_sym6_at_p3():
    """1,875,317,376 composable triples; about 16 million with a middle in
    the generating sets."""
    rep = run_pipeline("sym:6", PipelineConfig(
        prime=3, max_degree=2, checks=("categories",), include_timings=False))
    assert rep.verdicts["category_laws"] == "pass"


def transporter_s3c3():
    G = build_group("sym:3 x cyc:3")
    return build_transporter(G, build_intersection_poset(G, 2).members)


def test_compose_reads_the_store_and_rejects_bad_pairs():
    C = transporter_s3c3()
    t1, t2 = C.pairs()
    k = len(t1) // 2
    assert C.compose(int(t1[k]), int(t2[k])) == C.composite[k]
    a = next(t for t in range(C.morphism_count) if C.tgt[t] != C.src[0])
    with pytest.raises(PLocalError, match="do not compose"):
        C.compose(a, 0)
    with pytest.raises(PLocalError, match="fixed once"):
        C.set_tokens(C.src, C.tgt, C.witness, C.identity_ids)
    k = next(k for k in range(len(t1)) if not C.is_id[t1[k]] and not C.is_id[t2[k]])
    C.composite[k] = -1
    with pytest.raises(PLocalError, match="is not filled"):
        C.compose(int(t1[k]), int(t2[k]))
    with pytest.raises(PLocalError, match="misses a composable pair"):
        nerve_complex(C, 2, 2)


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
        k = C.slot(C.identity_ids[C.src[t]], t)
    else:
        k = C.slot(t, C.identity_ids[C.tgt[t]])
    C.composite[k] = other_in_mor(C, t)
    v = verify_category(C)
    assert not v.identities and v.composition_closed
    assert f"{side} identity fails at token {t}" in v.failures


def test_verify_category_catches_a_composite_outside_its_mor_set():
    C = transporter_s3c3()
    t1, t2 = C.pairs()
    k = next(k for k in range(len(t1)) if C.src[t1[k]] != C.tgt[t2[k]])
    a, c = int(C.src[t1[k]]), int(C.tgt[t2[k]])
    C.composite[k] = C.identity_ids[c]
    v = verify_category(C)
    assert not v.composition_closed and not v.passed
    assert f"composite ({t1[k]},{t2[k]}) lands outside Mor({a},{c})" in v.failures


def test_verify_category_reads_an_unfilled_slot_as_not_closed():
    """An unfilled slot also makes associativity fall back to every
    composable triple."""
    C = transporter_s3c3()
    t1, t2 = C.pairs()
    k = len(t1) // 3
    C.composite[k] = -1
    v = verify_category(C)
    assert not v.composition_closed and not v.passed
    assert f"composite ({t1[k]},{t2[k]}) is not filled" in v.failures
    assert v.triples_checked == reference_verify_category(C).triples_checked


def test_verify_category_catches_non_associativity_without_a_coset_rule():
    G = build_group("sym:4")
    poset = build_intersection_poset(G, 2)
    S = sylow_subgroup(G, 2)
    C = coset_category(G, [poset.members[i] for i in poset.members_in(S)])
    assert C.left is None
    assert verify_category(C).passed
    t1, t2 = C.pairs()
    k = next(k for k in range(len(t1)) if not C.is_id[t1[k]] and not C.is_id[t2[k]])
    c = int(C.tgt[t2[k]])
    C.composite[k] = next(x for x in range(C.morphism_count)
                          if C.tgt[x] == c and x != C.composite[k])
    v = verify_category(C)
    assert not v.associative and v.well_defined
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
    assert v.identities and v.composition_closed and v.well_defined
    assert not v.associative


def test_functor_violations_catch_a_composite_not_preserved():
    C, D = transporter_s3c3(), transporter_s3c3()
    t = nonidentity_with_sibling(C)
    k = C.slot(t, C.identity_ids[C.tgt[t]])
    D.composite[k] = other_in_mor(D, t)
    ident = Functor(C, D, list(range(C.object_count)), list(range(C.morphism_count)))
    assert ident.violations() == [
        f"composition of tokens ({t},{C.identity_ids[C.tgt[t]]}) not preserved"
    ]
    assert not ident.is_functor


def check_store_lookups(C):
    """``mor`` and ``tokens_of`` against the dicts rebuilt from the token
    arrays, over every object pair and every witness (-1 included), so
    missing tokens read [] and -1."""
    mor, by_witness = reference_mor(C), reference_by_witness(C)
    m = C.object_count
    for i in range(m):
        for j in range(m):
            assert C.mor(i, j) == mor.get((i, j), []), (i, j)
    i, j, w = np.meshgrid(np.arange(m), np.arange(m), np.arange(-1, C.group.order), indexing="ij")
    want = [by_witness.get(key, -1) for key in zip(i.ravel().tolist(), j.ravel().tolist(),
                                                   w.ravel().tolist())]
    assert C.tokens_of(i.ravel(), j.ravel(), w.ravel()).tolist() == want


def test_store_lookups_match_reference_dicts_on_every_pipeline_category(monkeypatch):
    builders = set()
    for spec, p, builder, C in pipeline_categories(monkeypatch):
        check_store_lookups(C)
        builders.add(builder)
        if builder == "coset_category":
            assert (C.witness == -1).all()
            assert all(len(C.mor(i, j)) <= 1 for i in range(C.object_count)
                       for j in range(C.object_count))
    assert builders >= BUILDERS


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
        assert F.is_functor and verify_category(C).passed


def test_set_tokens_rejects_ungrouped_sources_and_a_second_call():
    G = build_group("sym:3")
    C = categories.FiniteCategory("transporter", [G.trivial_subgroup()] * 2, G)
    with pytest.raises(PLocalError, match="grouped by source"):
        C.set_tokens([0, 1, 0], [0, 1, 1], [0, 0, 1], [0, 1])
    assert C.src is None
    C.set_tokens([0, 0, 1], [0, 1, 1], [0, 1, 0], [0, 2])
    assert C.mor(0, 1) == [1] and C.is_id.tolist() == [True, False, True]
    with pytest.raises(PLocalError, match="fixed once"):
        C.set_tokens([0, 0, 1], [0, 1, 1], [0, 1, 0], [0, 2])
