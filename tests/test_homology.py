import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from reference_chains import from_row_entries, identity_functor
from reference_omega import centric_subgroups
from plocal import (
    BudgetExceeded,
    FpComplex,
    PLocalError,
    all_subgroups,
    bar_complex,
    build_intersection_poset,
    build_linking,
    build_orbit,
    build_transporter,
    classify_centric,
    homology_iso_verdict,
    induced_chain_map,
    mapping_cone,
    nerve_complex,
    quotient_projection,
    skeleton,
    sylow_subgroup,
)
from plocal.catalog import build_group
from plocal.fplinalg import FpMatrix
from plocal.limits import CochainComplex
from scipy import sparse


def test_point_complex():
    G = build_group("cyc:1")
    cx = bar_complex(G, 2, 4)
    assert cx.homology().dims == [1, 0, 0, 0]


def test_bar_z2():
    cx = bar_complex(build_group("cyc:2"), 2, 4)
    assert cx.dims == [1, 1, 1, 1, 1]
    assert cx.homology().dims == [1, 1, 1, 1]


def test_bar_z3_at_3():
    cx = bar_complex(build_group("cyc:3"), 3, 4)
    assert cx.homology().dims == [1, 1, 1, 1]


def test_bar_z3_at_2_acyclic():
    cx = bar_complex(build_group("cyc:3"), 2, 4)
    assert cx.homology().dims == [1, 0, 0, 0]


def test_bar_s3():
    assert bar_complex(build_group("sym:3"), 3, 5).homology().dims == [1, 0, 0, 1, 1]
    assert bar_complex(build_group("sym:3"), 2, 4).homology().dims == [1, 1, 1, 1]


def test_bar_matches_oracle_unnormalized():
    for spec, p in [("sym:3", 2), ("cyc:4", 2), ("sym:3", 3), ("cyc:6", 3)]:
        G = build_group(spec)
        got = bar_complex(G, p, 3).homology().dims
        raw = [e.images for e in G.elements]
        want = oracle.unnormalized_nerve_homology(
            oracle.one_object_group_category(raw), p, 3
        )
        assert got == want, (spec, p)


def test_budget_exceeded():
    G = build_group("sym:4")
    with pytest.raises(BudgetExceeded):
        bar_complex(G, 2, 4, budget=1000)


def test_zero_boundaries_profile():
    rows = [dict() for _ in range(3)]
    mat = from_row_entries(3, 2, 2, rows)
    cx = FpComplex(2, 1, [2, 3], [None, mat])
    assert cx.homology().dims == [2]


def test_nerve_of_transporter_on_sylow_is_group_bar():
    G = build_group("sym:3")
    S = sylow_subgroup(G, 2)
    T = build_transporter(G, [S])
    cx = nerve_complex(T, 2, 4)
    assert cx.homology().dims == [1, 1, 1, 1]


def test_identity_functor_chain_map():
    G = build_group("sym:3")
    T = build_transporter(G, [sylow_subgroup(G, 2)])
    cx = nerve_complex(T, 2, 3)
    cm = induced_chain_map(identity_functor(T), cx, cx)
    v = homology_iso_verdict(cm)
    assert v.passed
    assert v.cone_homology == [0] * len(v.cone_homology)


def test_point_into_bz2_not_iso():
    G2 = build_group("cyc:2")
    T2 = build_transporter(G2, [G2.full_subgroup()])
    triv = build_transporter(G2, [G2.trivial_subgroup()])
    # functor from the one-morphism category into B(Z/2)
    from plocal import Functor
    one = build_orbit(G2, [G2.full_subgroup()])
    F = Functor(one, T2, [0], [T2.identity_ids[0]])
    assert F.is_functor
    src = nerve_complex(one, 2, 3)
    tgt = nerve_complex(T2, 2, 3)
    cm = induced_chain_map(F, src, tgt)
    v = homology_iso_verdict(cm)
    assert not v.iso_by_degree[1]
    assert not v.passed
    # homology dimensions genuinely differ in degree 1
    assert src.homology().dims[1] != tgt.homology().dims[1]


def test_skeleton_inclusion_iso():
    G = build_group("sym:3")
    cents = [H for H in all_subgroups(G.full_subgroup()) if H.order == 2]
    L = build_linking(G, 2, cents)
    skel, incl = skeleton(L)
    src = nerve_complex(skel, 2, 3)
    tgt = nerve_complex(L, 2, 4)
    cm = induced_chain_map(incl, src, tgt)
    assert homology_iso_verdict(cm).passed


def test_quotient_projection_iso_with_fibers():
    G = build_group("sym:3 x cyc:3")
    subs = all_subgroups(sylow_subgroup(G, 2))
    cents = centric_subgroups(classify_centric(G, 2, subs))
    T = build_transporter(G, cents)
    psi = quotient_projection(T, 2)
    src = nerve_complex(T, 2, 3)
    tgt = nerve_complex(psi.target, 2, 4)
    cm = induced_chain_map(psi, src, tgt)
    v = homology_iso_verdict(cm)
    assert v.certified_through == 2
    assert v.passed


def test_transporter_poset_nerve_vs_classifying_space():
    for spec, p, dmax in [("sym:3", 2, 4), ("sym:3", 3, 4), ("sym:4", 2, 3)]:
        G = build_group(spec)
        poset = build_intersection_poset(G, p)
        S = sylow_subgroup(G, p)
        members = [poset.members[i] for i in poset.members_in(S)]
        T = build_transporter(G, members)
        got = nerve_complex(T, p, dmax).homology().dims
        want = bar_complex(G, p, dmax).homology().dims
        assert got[: dmax - 1] == want[: dmax - 1], (spec, p)


def test_h0_counts_connected_components():
    # the two Sylow subgroups of cyc:6 admit no morphisms between them
    G = build_group("cyc:6")
    T = build_transporter(G, [sylow_subgroup(G, 2), sylow_subgroup(G, 3)])
    assert len(T.mor(0, 1)) == 0 and len(T.mor(1, 0)) == 0
    assert nerve_complex(T, 2, 3).homology().dims[0] == 2


def test_group_of_order_prime_to_p_is_acyclic():
    G = build_group("cyc:5")
    for p in (2, 3):
        dims = bar_complex(G, p, 4).homology().dims
        assert dims[0] == 1
        assert all(d == 0 for d in dims[1:3])


def test_mapping_cone_shapes():
    G = build_group("cyc:2")
    T = build_transporter(G, [G.full_subgroup()])
    cx = nerve_complex(T, 2, 3)
    cm = induced_chain_map(identity_functor(T), cx, cx)
    cone = mapping_cone(cm)
    assert cone.dims[0] == cx.dims[0]
    for d in range(1, cone.dmax + 1):
        assert cone.dims[d] == cx.dims[d - 1] + cx.dims[d]


def test_mapping_cone_boundaries_are_integer():
    G = build_group("sym:3")
    T = build_transporter(G, [sylow_subgroup(G, 2)])
    cx = nerve_complex(T, 2, 3)
    cone = mapping_cone(induced_chain_map(identity_functor(T), cx, cx))
    for d in range(1, cone.dmax + 1):
        assert np.issubdtype(cone.boundaries[d].csr.dtype, np.integer), d


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_sparse_rank_matches_dense_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    nrows = data.draw(st.integers(0, 64))
    ncols = data.draw(st.integers(1, 64))
    entries = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, max(nrows - 1, 0)),
                st.integers(0, ncols - 1),
                st.integers(0, p - 1),
            ),
            max_size=4 * max(nrows, ncols),
        )
    )
    dense = np.zeros((nrows, ncols), dtype=np.int64)
    for r, c, v in entries:
        if nrows:
            dense[r, c] = (dense[r, c] + v) % p
    rows = [
        {c: int(dense[r, c]) for c in range(ncols) if dense[r, c]}
        for r in range(nrows)
    ]
    mat = from_row_entries(nrows, ncols, p, rows)
    assert mat.rank() == oracle.dense_rank_modp(dense, p)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_boundary_squared_zero_random_subgroup_bars(data):
    G = build_group("sym:4")
    seeds = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=2))
    H = G.generated_subgroup(seeds)
    if H.order > 8:
        return
    sub = build_transporter(G, [H])
    p = data.draw(st.sampled_from([2, 3]))
    cx = nerve_complex(sub, p, 3)  # construction checks it as well
    for d in range(2, cx.dmax + 1):
        product = cx.boundaries[d].csr @ cx.boundaries[d - 1].csr
        assert not (product.data % p).any()


def test_complexes_with_nonzero_boundary_squared_do_not_build():
    one = from_row_entries(1, 1, 2, [{0: 1}])
    with pytest.raises(PLocalError, match="boundary squared is nonzero in degree 2"):
        FpComplex(2, 2, [1, 1, 1], [None, one, one])
    with pytest.raises(PLocalError, match="differential squared is nonzero in degree 1"):
        CochainComplex(2, 2, [1, 1, 1], [one, one])
    # ranking relies on it: with ∂² = 0 the same shapes build and rank
    zero = from_row_entries(1, 1, 2, [{}])
    assert FpComplex(2, 2, [1, 1, 1], [None, zero, one]).homology().dims == [1, 0]
    assert CochainComplex(2, 2, [1, 1, 1], [zero, one]).limit_dims() == [1, 0]


def real_cone(p=3):
    """The cone of the transporter-to-linking projection on the centric
    subgroups of sym:3 x cyc:3, as in the linking-vs-transporter check."""
    G = build_group("sym:3 x cyc:3")
    cents = centric_subgroups(classify_centric(G, p, all_subgroups(sylow_subgroup(G, p))))
    psi = quotient_projection(build_transporter(G, cents), p)
    src = nerve_complex(psi.source, p, 2)
    tgt = nerve_complex(psi.target, p, 3)
    return mapping_cone(induced_chain_map(psi, src, tgt))


def test_cone_square_check_multiplies_only_the_leading_rows(monkeypatch):
    cone = real_cone()
    shapes = []
    real = FpMatrix.matmul

    def matmul(self, other):
        shapes.append((self.shape, other.shape))
        return real(self, other)

    monkeypatch.setattr(FpMatrix, "matmul", matmul)
    rebuilt = FpComplex(cone.prime, cone.dmax, cone.dims, cone.boundaries)
    assert rebuilt.homology().dims == cone.homology().dims
    want = [((b._check_tail(), b.shape[1]), below.shape)
            for b, below in zip(cone.boundaries[2:], cone.boundaries[1:])]
    assert shapes == want
    assert all(lead < b.shape[0] for ((lead, _), _), b in zip(shapes, cone.boundaries[2:]))


def test_cone_with_a_forged_tail_does_not_build():
    cone = real_cone()
    boundaries = list(cone.boundaries)
    m = boundaries[2]
    csr = m.csr.copy()
    csr.data[-1] = csr.data[-1] % 2 + 1  # a different nonzero entry mod 3
    boundaries[2] = FpMatrix(csr, 3, tail=m.tail)
    with pytest.raises(PLocalError, match="trailing rows differ from the declared block"):
        FpComplex(3, cone.dmax, cone.dims, boundaries)
    # a one-degree complex has no square to check, but its tail is checked
    m = boundaries[1]
    lil = m.csr.tolil()
    lil[-1, 0] = (lil[-1, 0] + 1) % 3
    with pytest.raises(PLocalError, match="trailing rows differ from the declared block"):
        FpComplex(3, 1, cone.dims[:2], [None, FpMatrix(lil.tocsr(), 3, tail=m.tail)])


def test_cone_with_a_corrupted_leading_row_does_not_build():
    cone = real_cone()
    boundaries = list(cone.boundaries)
    top, below = boundaries[2], boundaries[1]
    j = int(np.flatnonzero(below.csr.getnnz(axis=1))[0])
    lil = top.csr.tolil()
    lil[0, j] = (lil[0, j] + 1) % 3
    assert top._check_tail() > 0
    boundaries[2] = FpMatrix(lil.tocsr(), 3, tail=top.tail)
    with pytest.raises(PLocalError, match="boundary squared is nonzero in degree 2"):
        FpComplex(3, cone.dmax, cone.dims, boundaries)
