import pytest

from plocal import (
    Functor,
    NotCentric,
    all_subgroups,
    build_intersection_poset,
    build_linking,
    build_orbit,
    build_transporter,
    coset_category,
    full_subcategory,
    quotient_projection,
    skeleton,
    sylow_subgroup,
    verify_category,
    verify_closure_adjunction,
    verify_quotient_functor,
)
from plocal.catalog import build_group
from plocal.categories import Morphism, iso_classes


def centric_in_sylow(G, p):
    from plocal import classify_centric
    subs = all_subgroups(sylow_subgroup(G, p))
    table = classify_centric(G, p, subs)
    return table.centric_subgroups()


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
    for (t1, t2), t3 in C.compose_table.items():
        m3 = C.morphisms[t3]
        others = [t for t in C.mor(m3.src, m3.tgt) if t != t3]
        if others:
            C.compose_table[(t1, t2)] = others[0]
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
    m = C.morphisms[t]
    C.morphisms[t] = Morphism(m.src, m.tgt, max(C.coset(m.src, m.tgt, m.witness)))
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
