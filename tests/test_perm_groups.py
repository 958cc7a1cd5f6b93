import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import reference_groups as ref
from plocal import (
    InvalidPermutation,
    OrderBoundExceeded,
    Permutation,
    PermutationGroup,
    PLocalError,
    all_subgroups,
    center,
    centralizer,
    direct_product,
    normalizer,
    p_part,
    p_residual,
    quotient_realization,
    sylow_conjugates,
    sylow_subgroup,
    transporter_set,
)
from plocal.catalog import build_group, parse_cycles
from plocal.categories import build_linking, build_orbit, build_transporter, quotient_projection
from plocal.groups import Subgroup, conjugates, transporters
from plocal.limit_checks import build_orbit_skeletons, p_class_representatives
from plocal.omega import build_intersection_poset, classify_centric, is_centric

CATALOG = ["sym:3", "sym:4", "alt:4", "dih:8", "dih:12", "cyc:6", "sym:3 x cyc:3"]

perms = st.integers(3, 6).flatmap(
    lambda n: st.permutations(list(range(n))).map(tuple)
)


def elem(G, text):
    return ref.element_id(G, parse_cycles(text, degree=G.degree))


def test_permutation_rejects_non_bijection():
    with pytest.raises(InvalidPermutation):
        Permutation((0, 0, 1))


def test_left_to_right_composition():
    a = parse_cycles("(1 2)", degree=3)
    b = parse_cycles("(2 3)", degree=3)
    assert (a * b).cycle_string() == "(1 3 2)"


@given(perms, perms, perms)
def test_associativity_and_inverse(ai, bi, ci):
    n = max(len(ai), len(bi), len(ci))
    def pad(im):
        return Permutation(tuple(im) + tuple(range(len(im), n)))
    a, b, c = pad(ai), pad(bi), pad(ci)
    assert (a * b) * c == a * (b * c)
    assert a * ref.inverse(a) == Permutation.identity(n)
    assert ref.inverse(a) * a == Permutation.identity(n)


@given(perms)
def test_cycle_string_roundtrip(im):
    p = Permutation(im)
    assert parse_cycles(p.cycle_string(), degree=p.degree) == p


def test_enumerate_s3():
    G = PermutationGroup(3, [parse_cycles("(1 2 3)"), parse_cycles("(1 2)", degree=3)])
    assert G.order == 6
    assert G.elements[0] == Permutation.identity(3)


def test_enumerate_trivial():
    G = PermutationGroup(1, [])
    assert G.order == 1


def test_enumerate_dihedral():
    G = PermutationGroup(4, [parse_cycles("(1 2 3 4)"), parse_cycles("(1 3)", degree=4)])
    assert G.order == 8


def test_order_bound():
    with pytest.raises(OrderBoundExceeded):
        build_group("sym:4", order_bound=10)


def test_conjugate_subgroup():
    G = build_group("sym:3")
    P = G.generated_subgroup([elem(G, "(1 2)")])
    g = elem(G, "(1 2 3)")
    Pg = ref.conjugate(P, g)
    assert Pg.ids == G.generated_subgroup([elem(G, "(2 3)")]).ids
    assert ref.conjugate(P, 0).ids == P.ids


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_conjugation_composes(data):
    G = build_group("sym:4")
    g = data.draw(st.integers(0, G.order - 1))
    h = data.draw(st.integers(0, G.order - 1))
    seed = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=2))
    P = G.generated_subgroup(seed)
    assert ref.conjugate(ref.conjugate(P, g), h).ids == ref.conjugate(P, G.mult(g, h)).ids


def test_centralizer_normalizer_s3():
    G = build_group("sym:3")
    P = G.generated_subgroup([elem(G, "(1 2)")])
    assert centralizer(G, P).ids == P.ids
    assert normalizer(G, P).ids == P.ids


def test_center():
    D8 = build_group("dih:8")
    assert center(D8.full_subgroup()).order == 2
    S3 = build_group("sym:3")
    assert center(S3.full_subgroup()).order == 1
    V = build_group("dih:4")
    assert center(V.full_subgroup()).order == 4


def test_centralizer_abelian():
    G = build_group("cyc:6")
    for seed in range(G.order):
        P = G.generated_subgroup([seed])
        assert centralizer(G, P).order == G.order


def test_centralizer_normal_v4():
    G = build_group("sym:4")
    V = G.generated_subgroup(
        [elem(G, "(1 2)(3 4)"), elem(G, "(1 3)(2 4)")]
    )
    assert centralizer(G, V).ids == V.ids
    assert normalizer(G, V).order == 24


def test_centralizer_matches_oracle():
    G = build_group("sym:4")
    raw = [e.images for e in G.elements]
    P = G.generated_subgroup([elem(G, "(1 2 3)")])
    got = sorted(G.elements[i].images for i in centralizer(G, P).ids)
    want = sorted(oracle.centralizer_naive(raw, [G.elements[i].images for i in P.ids]))
    assert got == want


def test_transporter_s3():
    G = build_group("sym:3")
    P = G.generated_subgroup([elem(G, "(1 2)")])
    Q = G.generated_subgroup([elem(G, "(1 3)")])
    T = transporter_set(G, P, Q)
    assert len(T) == 2
    S = sylow_subgroup(G, 2)
    assert transporter_set(G, S, G.trivial_subgroup()) == ()
    full = G.full_subgroup()
    assert len(transporter_set(G, full, full)) == G.order


def test_transporter_sets_are_kept_per_group():
    G, H = build_group("sym:4"), build_group("sym:4")
    subs = all_subgroups(sylow_subgroup(G, 2))
    P, Q = subs[1], subs[-1]
    first = transporter_set(G, P, Q)
    assert first == ref.transporter_set(G, P, Q)
    P2, Q2 = (H.generated_subgroup(list(K.ids)) for K in (P, Q))
    other = transporter_set(H, P2, Q2)
    assert other == first
    for A, B in ((Q, P), (P, P), (Q, Q)):
        assert transporter_set(G, A, B) == ref.transporter_set(G, A, B)


def test_transporter_composable():
    G = build_group("sym:3")
    subs = all_subgroups(sylow_subgroup(G, 2)) + [G.full_subgroup()]
    for P in subs:
        for Q in subs:
            for R in subs:
                tpq = transporter_set(G, P, Q)
                tqr = transporter_set(G, Q, R)
                tpr = set(transporter_set(G, P, R))
                for g in tpq:
                    for h in tqr:
                        assert G.mult(g, h) in tpr


def test_p_residual():
    S3 = build_group("sym:3")
    A3 = p_residual(S3.full_subgroup(), 2)
    assert A3.order == 3
    Z6 = build_group("cyc:6")
    assert p_residual(Z6.full_subgroup(), 2).order == 3
    D8 = build_group("dih:8")
    assert p_residual(D8.full_subgroup(), 2).order == 1


def test_p_residual_normal():
    for spec, p in [("sym:3", 2), ("sym:4", 2), ("dih:12", 3), ("sym:3 x cyc:3", 2)]:
        G = build_group(spec)
        K = p_residual(G.full_subgroup(), p)
        for h in range(G.order):
            assert ref.conjugate(K, h).ids == K.ids


def test_sylow_subgroup():
    S4 = build_group("sym:4")
    assert sylow_subgroup(S4, 2).order == 8
    S3 = build_group("sym:3")
    assert sylow_subgroup(S3, 5).order == 1
    P3 = sylow_subgroup(S3, 3)
    assert P3.is_p_group(3) and P3.order == p_part(S3.order, 3) == 3


def test_sylow_conjugates_counts():
    S3 = build_group("sym:3")
    assert len(sylow_conjugates(S3, sylow_subgroup(S3, 2))) == 3
    S4 = build_group("sym:4")
    assert len(sylow_conjugates(S4, sylow_subgroup(S4, 2))) == 3
    # normal Sylow: a single conjugate
    A4 = build_group("alt:4")
    assert len(sylow_conjugates(A4, sylow_subgroup(A4, 2))) == 1


def test_sylow_conjugacy_exhaustive():
    for spec, p in [("sym:3", 2), ("sym:4", 2), ("dih:12", 2), ("alt:4", 3)]:
        G = build_group(spec)
        syl = sylow_conjugates(G, sylow_subgroup(G, p))
        for S in syl:
            for T in syl:
                assert any(ref.conjugate(S, g).ids == T.ids for g in range(G.order))


def test_sylow_maximality_exhaustive():
    """No p-element outside S extends S to a strictly larger p-group."""
    for spec, p in [("sym:4", 2), ("sym:3", 3), ("dih:12", 2)]:
        G = build_group(spec)
        S = sylow_subgroup(G, p)
        for g in range(G.order):
            if g in S.idset:
                continue
            n = G.element_orders[g]
            while n % p == 0:
                n //= p
            if n != 1:
                continue
            E = G.generated_subgroup(S.ids + (g,))
            assert not E.is_p_group(p) or E.order <= S.order


def test_lagrange_over_generated_subgroups():
    G = build_group("sym:4")
    for seed in range(0, G.order, 3):
        H = G.generated_subgroup([seed, (seed * 7 + 1) % G.order])
        assert G.order % H.order == 0


def test_all_subgroups_of_d8():
    G = build_group("dih:8")
    subs = all_subgroups(G.full_subgroup())
    assert len(subs) == 10
    orders = sorted(H.order for H in subs)
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]


def test_direct_product_orders():
    G = build_group("sym:3 x cyc:3")
    assert G.order == 18
    assert G.degree == 6


def test_quotient_realization():
    G = build_group("sym:4")
    V = G.generated_subgroup(
        [elem(G, "(1 2)(3 4)"), elem(G, "(1 3)(2 4)")]
    )
    N = G.full_subgroup()
    W = quotient_realization(G, N, V)
    # S4/V is S3, acting regularly on the six cosets of V, one generator for
    # each generating id of N
    assert W.order == 6 and W.degree == 6
    assert len(W.generators) == len(N.generating_ids)
    assert any(W.mult(a, b) != W.mult(b, a) for a in range(6) for b in range(6))


def test_quotient_realization_rejects_a_non_normal_subgroup():
    G = build_group("sym:4")
    Q = G.generated_subgroup([elem(G, "(1 2)")])
    with pytest.raises(InvalidPermutation, match="quotient is not faithful"):
        quotient_realization(G, G.full_subgroup(), Q)


def test_quotient_realization_rejects_non_subgroup():
    G = build_group("sym:4")
    V = G.generated_subgroup([elem(G, "(1 2)(3 4)"), elem(G, "(1 3)(2 4)")])
    N = G.generated_subgroup([elem(G, "(1 2 3)")])
    with pytest.raises(PLocalError):
        quotient_realization(G, N, V)


def test_p_part():
    assert p_part(24, 2) == 8
    assert p_part(24, 3) == 3
    assert p_part(7, 2) == 1


@pytest.mark.parametrize("spec", ["sym:6", "sym:4 x cyc:2"])
def test_multiplication_table_matches_permutation_products(spec):
    G = build_group(spec)
    e = G.elements
    expected = np.array([[ref.element_id(G, a * b) for b in e] for a in e])
    assert G.mul.dtype == (np.uint16 if G.order > 255 else np.uint8)
    assert np.array_equal(G.mul, expected)
    assert np.array_equal(G.mul[:, 0], np.arange(G.order))
    assert not G.mul[np.arange(G.order), G.inverse_ids].any()


@pytest.mark.parametrize("spec", CATALOG + ["sym:4 x cyc:2"])
@pytest.mark.parametrize("p", [2, 3])
def test_element_filters_match_the_permutation_references(spec, p):
    """Every subgroup of a Sylow subgroup, against the scalar loops over
    Permutation products in ``reference_groups``: the centricity of each and
    the p-residuals of each, its centralizer, its normalizer and the whole
    group; and the transporter kernel's rows for every pair of those
    subgroups and the poset members, empty transporters included where the
    Sylow is nontrivial; and the subgroup lattice of the Sylow, in order,
    against the bottom-up closure."""
    G = build_group(spec)
    S = sylow_subgroup(G, p)
    subs = all_subgroups(S)
    assert [H.ids for H in subs] == ref.all_subgroups(S)
    assert all(type(x) is int for H in subs for x in H.ids)
    for P in subs:
        assert centralizer(G, P).ids == ref.centralizer(G, P)
        assert normalizer(G, P).ids == ref.normalizer(G, P)
        assert is_centric(G, p, P) == ref.is_centric(G, p, P)
        for H in (P, centralizer(G, P), normalizer(G, P)):
            assert p_residual(H, p).ids == ref.p_residual(H, p), H
        assert center(P).ids == ref.center(P)
        assert [C.ids for C in conjugates(G, P)] == ref.conjugates(G, P)
    assert [T.ids for T in sylow_conjugates(G, S)] == ref.conjugates(G, S)
    assert p_residual(G.full_subgroup(), p).ids == ref.p_residual(G.full_subgroup(), p)
    reps = {ref.conjugates(G, H)[0] for H in subs}
    reps = sorted(reps, key=lambda ids: (len(ids), ids))
    assert [R.ids for R in p_class_representatives(G, subs)[0]] == reps
    poset = build_intersection_poset(G, p)
    objs = subs + [M for M in poset.members if M.ids not in {H.ids for H in subs}]
    mask = transporters(G, objs, objs)
    rows = [[tuple(np.flatnonzero(row).tolist()) for row in block] for block in mask]
    assert rows == [[ref.transporter_set(G, P, Q) for Q in objs] for P in objs]
    assert () in sum(rows, []) or len(subs) == 1
    assert np.array_equal(transporters(G, objs[-2:], objs), mask[-2:])
    index = {M.ids: i for i, M in enumerate(poset.members)}
    for i, M in enumerate(poset.members):
        orbit = sorted(index[ids] for ids in ref.conjugates(G, M))
        assert poset.classes[poset.class_of[i]] == orbit
    skel = build_orbit_skeletons(G, p, poset)
    for H in subs:
        assert skel.p_reps[skel.p_object_of(H)].ids == ref.conjugates(G, H)[0]
    assert skel.member_class == [skel.omega_object_of(M) for M in poset.members]


@pytest.mark.parametrize("spec", ["dih:8", "sym:4"])
def test_full_group_lattices_match_the_reference(spec):
    """The lattice of a whole group, a p-group (dih:8) and not (sym:4),
    in order, against the bottom-up closure."""
    G = build_group(spec)
    subs = all_subgroups(G.full_subgroup())
    assert [H.ids for H in subs] == ref.all_subgroups(G.full_subgroup())
    assert all(type(x) is int for H in subs for x in H.ids)


@pytest.mark.parametrize("spec,p", [("sym:4", 2), ("sym:4 x cyc:2", 2), ("sym:3 x cyc:3", 2)])
def test_class_representatives_do_not_depend_on_their_input(spec, p):
    """The subgroups of one Sylow reversed, and those of two Sylows joined,
    give the least reference conjugate of each class, in canonical order,
    and the class of every conjugate."""
    G = build_group(spec)
    first, second = sylow_conjugates(G, sylow_subgroup(G, p))[:2]
    subs = all_subgroups(first)
    expected = sorted({ref.conjugates(G, H)[0] for H in subs}, key=lambda ids: (len(ids), ids))
    orbits = {ids: ref.conjugates(G, Subgroup(G, ids)) for ids in expected}
    for given in (subs[::-1], subs + all_subgroups(second)):
        reps, class_of = p_class_representatives(G, given)
        assert [R.ids for R in reps] == expected
        assert class_of == {C: k for k, ids in enumerate(expected) for C in orbits[ids]}


def test_the_lattice_and_its_classes_do_one_step_per_new_answer(monkeypatch):
    """On the order-16 Sylow of sym:4 x cyc:2 at p=2 (35 subgroups in 23
    classes), the lattice closes once per right coset Hx other than H of
    each subgroup H, sum |S:H| - 1 = 144 closures; every class finder
    conjugates once per class, counted where ``groups.conjugacy_classes``
    looks ``conjugates`` up: the representatives 23 times, the skeletons
    23 + 1 + 2 more times (their intersection poset conjugates the Sylow
    and each of its 2 classes once); and the skeletons find a subgroup's
    class without conjugating it."""
    from plocal import groups
    G = build_group("sym:4 x cyc:2")
    S = sylow_subgroup(G, 2)
    closures, conjugated = [], []
    real_closure, real_conjugates = PermutationGroup.subgroup_closure, groups.conjugates

    def closure(self, *args):
        closures.append(args)
        return real_closure(self, *args)

    def counted(G, H):
        conjugated.append(H.ids)
        return real_conjugates(G, H)

    monkeypatch.setattr(PermutationGroup, "subgroup_closure", closure)
    monkeypatch.setattr(groups, "conjugates", counted)
    subs = all_subgroups(S)
    assert len(closures) == sum(S.order // H.order - 1 for H in subs) == 144
    reps, _ = p_class_representatives(G, subs)
    assert len(conjugated) == len(reps) == 23
    skel = build_orbit_skeletons(G, 2, sylow_subgroups=subs)
    assert len(skel.poset.classes) == 2
    assert len(conjugated) == 2 * 23 + 1 + 2 == 49
    for H in subs:
        skel.omega_object_of(H)
    assert len(conjugated) == 49
    with pytest.raises(PLocalError, match="catalogued classes"):
        skel.p_object_of(G.full_subgroup())


def test_group_code_hands_out_python_ints():
    """No numpy scalar may reach a dict key or the JSON report."""
    G = build_group("sym:4 x cyc:2")
    S = sylow_subgroup(G, 2)
    subs = all_subgroups(S)
    assert all(type(g) is int for P in subs for g in transporter_set(G, P, S))
    table = classify_centric(G, 2, subs)
    cents = [H for H in subs if table[H.ids]]
    residuals = [p_residual(centralizer(G, H), 2) for H in subs]
    made = [centralizer(G, S), normalizer(G, S), center(S),
            *conjugates(G, S), *subs, *residuals]
    assert all(type(x) is int for H in made for x in H.ids + H.generating_ids)
    T = build_transporter(G, subs)
    psi = quotient_projection(build_transporter(G, cents), 2)
    for C in (T, build_orbit(G, subs), build_linking(G, 2, cents), psi.target):
        assert C.witness.dtype == np.int64
    assert all(type(t) is int for t in psi.morphism_map)
    assert type(G.mult(3, 4)) is int
