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
    PLocalError,
    all_subgroups,
    center,
    centralizer,
    conjugate_subgroup,
    direct_product,
    generate_group,
    is_sylow,
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
from plocal.groups import conjugates
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
    assert a * a.inverse() == Permutation.identity(n)
    assert a.inverse() * a == Permutation.identity(n)


@given(perms)
def test_cycle_string_roundtrip(im):
    p = Permutation(im)
    assert parse_cycles(p.cycle_string(), degree=p.degree) == p


def test_enumerate_s3():
    G = generate_group(3, [parse_cycles("(1 2 3)"), parse_cycles("(1 2)", degree=3)])
    assert G.order == 6
    assert G.elements[0] == Permutation.identity(3)


def test_enumerate_trivial():
    G = generate_group(1, [])
    assert G.order == 1


def test_enumerate_dihedral():
    G = generate_group(4, [parse_cycles("(1 2 3 4)"), parse_cycles("(1 3)", degree=4)])
    assert G.order == 8


def test_order_bound():
    with pytest.raises(OrderBoundExceeded):
        build_group("sym:4", order_bound=10)


def test_conjugate_subgroup():
    G = build_group("sym:3")
    P = G.generated_subgroup([elem(G, "(1 2)")])
    g = elem(G, "(1 2 3)")
    Pg = conjugate_subgroup(P, g)
    assert Pg.ids == G.generated_subgroup([elem(G, "(2 3)")]).ids
    assert conjugate_subgroup(P, 0).ids == P.ids


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_conjugation_composes(data):
    G = build_group("sym:4")
    g = data.draw(st.integers(0, G.order - 1))
    h = data.draw(st.integers(0, G.order - 1))
    seed = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=2))
    P = G.generated_subgroup(seed)
    assert P.conjugate(g).conjugate(h).ids == P.conjugate(G.mult(g, h)).ids


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
    assert transporter_set(G, P, Q) is first
    assert transporter_set(G, G.generated_subgroup(list(P.ids)), Q) is first
    P2, Q2 = (H.generated_subgroup(list(K.ids)) for K in (P, Q))
    other = transporter_set(H, P2, Q2)
    assert other == first and other is not first
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
            assert K.conjugate(h).ids == K.ids


def test_sylow_subgroup():
    S4 = build_group("sym:4")
    assert sylow_subgroup(S4, 2).order == 8
    S3 = build_group("sym:3")
    assert sylow_subgroup(S3, 5).order == 1
    assert is_sylow(S3, sylow_subgroup(S3, 5), 5)
    P3 = sylow_subgroup(S3, 3)
    assert P3.order == 3
    assert is_sylow(S3, P3, 3)
    assert not is_sylow(S3, S3.trivial_subgroup(), 3)


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
                assert any(S.conjugate(g).ids == T.ids for g in range(G.order))


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
    quo = quotient_realization(G, G.full_subgroup(), V)
    assert quo.group.order == 6
    # representatives multiply compatibly with the quotient
    W = quo.group
    for a in range(W.order):
        for b in range(W.order):
            ga, gb = quo.quotient_elem_rep(a), quo.quotient_elem_rep(b)
            prod_rep = quo.quotient_elem_rep(W.mult(a, b))
            assert quo.coset_of(G.mult(ga, gb)) == quo.coset_of(prod_rep)


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
    """Every pair of subgroups of a Sylow subgroup, against the scalar loops
    over Permutation products in ``reference_groups``; also the centricity of
    each and the p-residuals of each, its centralizer, its normalizer and
    the whole group."""
    G = build_group(spec)
    S = sylow_subgroup(G, p)
    subs = all_subgroups(S)
    for P in subs:
        assert centralizer(G, P).ids == ref.centralizer(G, P)
        assert normalizer(G, P).ids == ref.normalizer(G, P)
        assert is_centric(G, p, P) == ref.is_centric(G, p, P)
        for H in (P, centralizer(G, P), normalizer(G, P)):
            assert p_residual(H, p).ids == ref.p_residual(H, p), H
        assert center(P).ids == ref.center(P)
        assert [C.ids for C in conjugates(G, P)] == ref.conjugates(G, P)
        for Q in subs:
            assert transporter_set(G, P, Q) == ref.transporter_set(G, P, Q), (P, Q)
    assert [T.ids for T in sylow_conjugates(G, S)] == ref.conjugates(G, S)
    assert p_residual(G.full_subgroup(), p).ids == ref.p_residual(G.full_subgroup(), p)
    reps = {ref.conjugates(G, H)[0] for H in subs}
    reps = sorted(reps, key=lambda ids: (len(ids), ids))
    assert [R.ids for R in p_class_representatives(G, p, S)] == reps
    poset = build_intersection_poset(G, p)
    index = {M.ids: i for i, M in enumerate(poset.members)}
    for i, M in enumerate(poset.members):
        orbit = sorted(index[ids] for ids in ref.conjugates(G, M))
        assert poset.classes[poset.class_of[i]] == orbit
    skel = build_orbit_skeletons(G, p, poset)
    for H in subs:
        assert skel.p_reps[skel.p_object_of(H)].ids == ref.conjugates(G, H)[0]
    assert skel.member_class == [skel.omega_object_of(M) for M in poset.members]


def test_group_code_hands_out_python_ints():
    """No numpy scalar may reach a dict key or the JSON report."""
    G = build_group("sym:4 x cyc:2")
    S = sylow_subgroup(G, 2)
    subs = all_subgroups(S)
    assert all(type(g) is int for P in subs for g in transporter_set(G, P, S))
    residuals = [r.residual for r in classify_centric(G, 2, subs).records]
    made = [centralizer(G, S), normalizer(G, S), center(S), S.conjugate(5),
            *conjugates(G, S), *subs, *residuals]
    assert all(type(x) is int for H in made for x in H.ids + H.generating_ids)
    T = build_transporter(G, subs)
    cents = [H for H in subs if classify_centric(G, 2, [H]).records[0].is_centric]
    psi = quotient_projection(build_transporter(G, cents), 2)
    for C in (T, build_orbit(G, subs), build_linking(G, 2, cents), psi.target):
        assert C.witness.dtype == np.int64
    assert all(type(t) is int for t in psi.morphism_map)
    assert type(G.mult(3, 4)) is int and type(G.conj(3, 4)) is int and type(G.inv(3)) is int
