import pytest

from plocal import (
    NotPSubgroup,
    all_subgroups,
    build_intersection_poset,
    classify_centric,
    closure_in_poset,
    is_centric,
    longest_chain_length,
    sylow_subgroup,
    verify_closure_properties,
)
from plocal.catalog import build_group, parse_cycles
from reference_groups import element_id
from reference_omega import verify_centric_decomposition


def test_poset_s3_p2():
    G = build_group("sym:3")
    poset = build_intersection_poset(G, 2)
    assert len(poset.members) == 4
    assert sorted(m.order for m in poset.members) == [1, 2, 2, 2]
    assert len(poset.classes) == 2
    assert poset.members[poset.minimum].order == 1


def test_poset_normal_sylow():
    G = build_group("alt:4")
    poset = build_intersection_poset(G, 2)
    assert len(poset.members) == 1
    assert len(poset.classes) == 1
    assert longest_chain_length(poset) == 0


def test_poset_s4_p2():
    G = build_group("sym:4")
    poset = build_intersection_poset(G, 2)
    # three dihedral Sylows plus the common normal four-group
    assert sorted(m.order for m in poset.members) == [4, 8, 8, 8]
    assert poset.members[poset.minimum].order == 4
    V = poset.members[poset.minimum]
    for g in range(G.order):
        assert V.conjugate(g).ids == V.ids


def test_poset_closed_under_conjugation_and_intersection():
    for spec, p in [("sym:3", 2), ("sym:4", 2), ("dih:12", 2), ("sym:3 x cyc:3", 3)]:
        G = build_group(spec)
        poset = build_intersection_poset(G, p)
        ids = {m.ids for m in poset.members}
        for m in poset.members:
            for g in range(G.order):
                assert m.conjugate(g).ids in ids
            for n in poset.members:
                assert m.intersection(n).ids in ids


def test_closure_on_members_is_identity():
    G = build_group("sym:4")
    poset = build_intersection_poset(G, 2)
    for m in poset.members:
        assert closure_in_poset(poset, m).ids == m.ids


def test_closure_of_small_subgroup_s4():
    G = build_group("sym:4")
    poset = build_intersection_poset(G, 2)
    P = G.generated_subgroup([element_id(G, parse_cycles("(1 2)(3 4)"))])
    Pc = closure_in_poset(poset, P)
    assert Pc.order == 4
    assert Pc.ids == poset.members[poset.minimum].ids


def test_closure_rejects_non_p_group():
    G = build_group("sym:3")
    poset = build_intersection_poset(G, 2)
    with pytest.raises(NotPSubgroup):
        closure_in_poset(poset, G.full_subgroup())


def test_closure_properties_exhaustive():
    for spec, p in [("sym:3", 2), ("sym:4", 2), ("dih:8", 2), ("sym:3 x cyc:3", 3)]:
        G = build_group(spec)
        poset = build_intersection_poset(G, p)
        subs = all_subgroups(sylow_subgroup(G, p))
        v = verify_closure_properties(G, p, poset, subs)
        assert v.passed, (spec, p)


def test_classify_centric_rejects_non_p_group():
    G = build_group("sym:3")
    with pytest.raises(NotPSubgroup):
        classify_centric(G, 2, [G.full_subgroup()])


def test_minimum_is_intersection_of_all_sylows():
    for spec, p in [("sym:3", 2), ("sym:4", 2), ("dih:12", 2), ("alt:4", 3)]:
        G = build_group(spec)
        poset = build_intersection_poset(G, p)
        common = set(range(G.order))
        for S in poset.sylows:
            common &= S.idset
        assert poset.members[poset.minimum].idset == common


def test_centricity_s3():
    G = build_group("sym:3")
    S = sylow_subgroup(G, 2)
    assert is_centric(G, 2, S)
    assert not is_centric(G, 2, G.trivial_subgroup())


def test_centricity_p_group_all_of_it():
    G = build_group("dih:8")
    assert is_centric(G, 2, G.full_subgroup())


def test_centric_table_s4():
    G = build_group("sym:4")
    subs = all_subgroups(sylow_subgroup(G, 2))
    table = classify_centric(G, 2, subs)
    by_order = {}
    for r in table.records:
        by_order.setdefault(r.subgroup.order, []).append(r.is_centric)
    assert all(not f for f in by_order[1])
    assert all(not f for f in by_order[2])
    assert all(f for f in by_order[4])
    assert all(f for f in by_order[8])


def test_centric_decomposition():
    for spec, p in [("sym:3", 2), ("sym:4", 2), ("cyc:6", 2), ("sym:3 x cyc:3", 2)]:
        G = build_group(spec)
        subs = all_subgroups(sylow_subgroup(G, p))
        table = classify_centric(G, p, subs)
        for rec in table.records:
            assert verify_centric_decomposition(G, p, rec), (spec, p, rec.subgroup.label())
            if rec.is_centric:
                # the complement has order prime to p
                assert rec.residual.order % p != 0


def test_residual_index_is_p_power_for_centric_centralizers():
    for spec, p in [("sym:3 x cyc:3", 2), ("sym:4", 2), ("cyc:6", 2)]:
        G = build_group(spec)
        subs = all_subgroups(sylow_subgroup(G, p))
        table = classify_centric(G, p, subs)
        for rec in table.records:
            if not rec.is_centric:
                continue
            # the residual is normal in the centralizer with p-power index
            for h in rec.centralizer.generating_ids:
                assert rec.residual.conjugate(h).ids == rec.residual.ids
            q = rec.centralizer.order // rec.residual.order
            while q % p == 0:
                q //= p
            assert q == 1


def test_chain_length():
    G = build_group("sym:3")
    poset = build_intersection_poset(G, 2)
    S = sylow_subgroup(G, 2)
    assert longest_chain_length(poset, S) == 1
    G4 = build_group("sym:4")
    poset4 = build_intersection_poset(G4, 2)
    S4 = sylow_subgroup(G4, 2)
    # members inside one Sylow are the four-group and the Sylow itself
    assert longest_chain_length(poset4, S4) == 1
    assert longest_chain_length(poset4) == 1


def test_hasse_edges_s3():
    G = build_group("sym:3")
    poset = build_intersection_poset(G, 2)
    edges = poset.hasse_edges()
    assert len(edges) == 3
    for i, j in edges:
        assert poset.members[i].order == 1 and poset.members[j].order == 2
