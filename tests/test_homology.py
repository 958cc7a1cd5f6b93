import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from reference_chains import from_row_entries, identity_functor, move_an_image
from reference_omega import centric_subgroups
from plocal import (
    BudgetExceeded,
    FpComplex,
    PipelineConfig,
    PLocalError,
    all_subgroups,
    bar_complex,
    build_intersection_poset,
    build_linking,
    build_orbit,
    build_transporter,
    homology_iso_verdict,
    induced_chain_map,
    mapping_cone,
    nerve_complex,
    quotient_projection,
    run_pipeline,
    skeleton,
    sylow_subgroup,
)
from plocal import fplinalg, homology
from plocal.catalog import build_group
from plocal.fplinalg import FpMatrix
from scipy import sparse


def test_point_complex():
    G = build_group("cyc:1")
    cx = bar_complex(G, 2, 4)
    assert cx.homology() == [1, 0, 0, 0]


def test_bar_z2():
    cx = bar_complex(build_group("cyc:2"), 2, 4)
    assert cx.dims == [1, 1, 1, 1, 1]
    assert cx.homology() == [1, 1, 1, 1]


def test_bar_z3_at_3():
    cx = bar_complex(build_group("cyc:3"), 3, 4)
    assert cx.homology() == [1, 1, 1, 1]


def test_bar_z3_at_2_acyclic():
    cx = bar_complex(build_group("cyc:3"), 2, 4)
    assert cx.homology() == [1, 0, 0, 0]


def test_bar_s3():
    assert bar_complex(build_group("sym:3"), 3, 5).homology() == [1, 0, 0, 1, 1]
    assert bar_complex(build_group("sym:3"), 2, 4).homology() == [1, 1, 1, 1]


def test_bar_matches_oracle_unnormalized():
    for spec, p in [("sym:3", 2), ("cyc:4", 2), ("sym:3", 3), ("cyc:6", 3)]:
        G = build_group(spec)
        got = bar_complex(G, p, 3).homology()
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
    assert cx.homology() == [2]


def test_nerve_of_transporter_on_sylow_is_group_bar():
    G = build_group("sym:3")
    S = sylow_subgroup(G, 2)
    T = build_transporter(G, [S])
    cx = nerve_complex(T, 2, 4)
    assert cx.homology() == [1, 1, 1, 1]


def test_identity_functor_chain_map():
    G = build_group("sym:3")
    T = build_transporter(G, [sylow_subgroup(G, 2)])
    cx = nerve_complex(T, 2, 3)
    F = identity_functor(T)
    iso, record = homology_iso_verdict(F, cx, cx)
    assert iso and record == {"certified_through": 1, "iso": [True, True]}
    images = induced_chain_map(F, cx, cx)
    assert [cols.tolist() for cols in images] == [list(range(n)) for n in cx.dims]
    cone_h = mapping_cone(cx, cx, images).homology()
    assert cone_h == [0] * len(cone_h)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("source_dmax", [2, 3])
def test_a_chain_map_that_does_not_commute_has_no_cone(p, source_dmax):
    """The identity of the transporter nerve on the poset members of sym:3
    in one Sylow, into the same nerve through degree 3, with the image of
    one degree-1 chain moved to a chain with a different boundary: its
    mapping cone fails its ∂² check, whether the source stops one degree
    below the target or at the same degree."""
    G = build_group("sym:3")
    S = sylow_subgroup(G, 2)
    poset = build_intersection_poset(G, 2)
    T = build_transporter(G, [poset.members[i] for i in poset.members_in(S)])
    tgt = nerve_complex(T, p, 3)
    src = tgt.prefix(source_dmax)
    F = identity_functor(T)
    assert homology_iso_verdict(F, src, tgt)[0]
    images = induced_chain_map(F, src, tgt)
    move_an_image(images, tgt, 1)
    with pytest.raises(PLocalError, match="boundary squared is nonzero in degree 2"):
        mapping_cone(src, tgt, images)


def test_point_into_bz2_not_iso():
    G2 = build_group("cyc:2")
    T2 = build_transporter(G2, [G2.full_subgroup()])
    triv = build_transporter(G2, [G2.trivial_subgroup()])
    # functor from the one-morphism category into B(Z/2)
    from plocal import Functor
    one = build_orbit(G2, [G2.full_subgroup()])
    F = Functor(one, T2, [0], [T2.identity_ids[0]])
    assert not F.violations()
    src = nerve_complex(one, 2, 3)
    tgt = nerve_complex(T2, 2, 3)
    iso, record = homology_iso_verdict(F, src, tgt)
    assert not record["iso"][1]
    assert not iso
    # homology dimensions genuinely differ in degree 1
    assert src.homology()[1] != tgt.homology()[1]


def test_skeleton_inclusion_iso():
    G = build_group("sym:3")
    cents = [H for H in all_subgroups(G.full_subgroup()) if H.order == 2]
    L = build_linking(G, 2, cents)
    skel, incl = skeleton(L)
    src = nerve_complex(skel, 2, 3)
    tgt = nerve_complex(L, 2, 4)
    assert homology_iso_verdict(incl, src, tgt)[0]


def test_quotient_projection_iso_with_fibers():
    G = build_group("sym:3 x cyc:3")
    subs = all_subgroups(sylow_subgroup(G, 2))
    cents = centric_subgroups(G, 2, subs)
    T = build_transporter(G, cents)
    psi = quotient_projection(T, 2)
    src = nerve_complex(T, 2, 3)
    tgt = nerve_complex(psi.target, 2, 4)
    iso, record = homology_iso_verdict(psi, src, tgt)
    assert record["certified_through"] == 2
    assert iso


def test_transporter_poset_nerve_vs_classifying_space():
    for spec, p, dmax in [("sym:3", 2, 4), ("sym:3", 3, 4), ("sym:4", 2, 3)]:
        G = build_group(spec)
        poset = build_intersection_poset(G, p)
        S = sylow_subgroup(G, p)
        members = [poset.members[i] for i in poset.members_in(S)]
        T = build_transporter(G, members)
        got = nerve_complex(T, p, dmax).homology()
        want = bar_complex(G, p, dmax).homology()
        assert got[: dmax - 1] == want[: dmax - 1], (spec, p)


def test_h0_counts_connected_components():
    # the two Sylow subgroups of cyc:6 admit no morphisms between them
    G = build_group("cyc:6")
    T = build_transporter(G, [sylow_subgroup(G, 2), sylow_subgroup(G, 3)])
    assert len(T.mor(0, 1)) == 0 and len(T.mor(1, 0)) == 0
    assert nerve_complex(T, 2, 3).homology()[0] == 2


def test_group_of_order_prime_to_p_is_acyclic():
    G = build_group("cyc:5")
    for p in (2, 3):
        dims = bar_complex(G, p, 4).homology()
        assert dims[0] == 1
        assert all(d == 0 for d in dims[1:3])


def test_mapping_cone_shapes():
    G = build_group("cyc:2")
    T = build_transporter(G, [G.full_subgroup()])
    cx = nerve_complex(T, 2, 3)
    cone = mapping_cone(cx, cx, induced_chain_map(identity_functor(T), cx, cx))
    assert cone.dims[0] == cx.dims[0]
    for d in range(1, cone.dmax + 1):
        assert cone.dims[d] == cx.dims[d - 1] + cx.dims[d]


def test_mapping_cone_boundaries_are_integer():
    G = build_group("sym:3")
    T = build_transporter(G, [sylow_subgroup(G, 2)])
    cx = nerve_complex(T, 2, 3)
    cone = mapping_cone(cx, cx, induced_chain_map(identity_functor(T), cx, cx))
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
    # ranking relies on it: with ∂² = 0 the same shapes build and rank
    zero = from_row_entries(1, 1, 2, [{}])
    assert FpComplex(2, 2, [1, 1, 1], [None, zero, one]).homology() == [1, 0]


HOMOLOGY_CHECKS = ("nerve-vs-group", "centric-restriction", "centric-agreement",
                   "linking-vs-transporter", "main")


def real_cone(p=3):
    """The cone of the transporter-to-linking projection on the centric
    subgroups of sym:3 x cyc:3, as in the linking-vs-transporter check."""
    G = build_group("sym:3 x cyc:3")
    cents = centric_subgroups(G, p, all_subgroups(sylow_subgroup(G, p)))
    psi = quotient_projection(build_transporter(G, cents), p)
    src = nerve_complex(psi.source, p, 2)
    tgt = nerve_complex(psi.target, p, 3)
    return mapping_cone(src, tgt, induced_chain_map(psi, src, tgt))


@pytest.mark.parametrize("spec,p", [("sym:4", 2), ("sym:3 x cyc:3", 3)])
def test_cone_boundaries_store_only_their_source_rows(monkeypatch, spec, p):
    """Every cone the homology checks build stores, in degree d, only the
    dim A_{d-1} rows ``[-dA_{d-1} | f_{d-1}]`` and references its target's
    boundary dB_d as its tail: the same object, never a copy."""
    real = homology.mapping_cone
    cones = []

    def recorded(A, B, images):
        cone = real(A, B, images)
        cones.append((A, B, cone))
        return cone

    monkeypatch.setattr(homology, "mapping_cone", recorded)
    rep = run_pipeline(spec, PipelineConfig(prime=p, max_degree=3, checks=HOMOLOGY_CHECKS,
                                            include_timings=False))
    assert "fail" not in rep.verdicts.values()
    assert len(cones) == 3
    for A, B, cone in cones:
        for d in range(1, cone.dmax + 1):
            m = cone.boundaries[d]
            left = A.dims[d - 2] if d >= 2 else 0
            assert m.csr.shape == (A.dims[d - 1], left + B.dims[d - 1])
            assert m.tail[0] is B.boundaries[d] and m.tail[1] == left
            assert m.shape == (cone.dims[d], cone.dims[d - 1])
            assert m.nnz == m.csr.nnz + B.boundaries[d].nnz


def test_cone_square_check_multiplies_only_the_leading_rows(monkeypatch):
    cone = real_cone()
    shapes = []
    real = FpMatrix.matmul

    def matmul(self, other, head_only=False):
        rows = self.csr.shape[0] if head_only else self.shape[0]
        shapes.append(((rows, self.shape[1]), other.shape))
        return real(self, other, head_only)

    monkeypatch.setattr(FpMatrix, "matmul", matmul)
    rebuilt = FpComplex(cone.prime, cone.dmax, cone.dims, cone.boundaries)
    assert rebuilt.homology() == cone.homology()
    want = [((b.csr.shape[0], b.shape[1]), below.shape)
            for b, below in zip(cone.boundaries[2:], cone.boundaries[1:])]
    assert shapes == want
    assert all(lead < b.shape[0] for ((lead, _), _), b in zip(shapes, cone.boundaries[2:]))


def test_cone_over_a_corrupted_target_boundary_does_not_build():
    """A cone boundary references the target's boundary as its tail and
    never copies it, so a corrupted entry there is read where the next
    cone boundary's leading rows meet it: f_2 dB_2 = dA_2 f_1 fails."""
    G = build_group("sym:3 x cyc:3")
    cents = centric_subgroups(G, 3, all_subgroups(sylow_subgroup(G, 3)))
    psi = quotient_projection(build_transporter(G, cents), 3)
    src = nerve_complex(psi.source, 3, 2)
    tgt = nerve_complex(psi.target, 3, 3)
    images = induced_chain_map(psi, src, tgt)
    assert mapping_cone(src, tgt, images).boundaries[2].tail[0] is tgt.boundaries[2]
    data = tgt.boundaries[2].csr.data
    assert data[-1] in (-1, 1)
    data[-1] = -data[-1]  # a different nonzero entry mod 3
    with pytest.raises(PLocalError, match="boundary squared is nonzero in degree 3"):
        mapping_cone(src, tgt, images)


def test_cone_with_a_corrupted_leading_row_does_not_build():
    cone = real_cone()
    boundaries = list(cone.boundaries)
    top, below = boundaries[2], boundaries[1]
    j = int(np.flatnonzero(below.csr.getnnz(axis=1))[0])
    lil = top.csr.tolil()
    lil[0, j] = (lil[0, j] + 1) % 3
    assert top.csr.shape[0] > 0
    boundaries[2] = FpMatrix(lil.tocsr(), 3, tail=top.tail)
    with pytest.raises(PLocalError, match="boundary squared is nonzero in degree 2"):
        FpComplex(3, cone.dmax, cone.dims, boundaries)


def test_cone_with_a_nonzero_head_only_product_does_not_build(monkeypatch):
    """The same corrupted leading row, seen through ``FpMatrix.matmul``:
    the degree-2 check multiplies only the cone boundary's leading rows,
    and that product, nonzero mod 3, fails the cone."""
    cone = real_cone()
    boundaries = list(cone.boundaries)
    top, below = boundaries[2], boundaries[1]
    j = int(np.flatnonzero(below.csr.getnnz(axis=1))[0])
    lil = top.csr.tolil()
    lil[0, j] = (lil[0, j] + 1) % 3
    boundaries[2] = FpMatrix(lil.tocsr(), 3, tail=top.tail)
    calls = []
    real = FpMatrix.matmul

    def matmul(self, other, head_only=False):
        calls.append((head_only, real(self, other, head_only)))
        return calls[-1][1]

    monkeypatch.setattr(FpMatrix, "matmul", matmul)
    with pytest.raises(PLocalError, match="boundary squared is nonzero in degree 2"):
        FpComplex(3, cone.dmax, cone.dims, boundaries)
    assert calls == [(True, False)]


def test_square_check_tests_the_bare_integer_product_mod_p(monkeypatch):
    """At p = 3, three edges from one point to another and one face over
    them.  With the face [1, 1, 1] the integer product ∂_2 ∂_1 is [-3, 3],
    0 mod 3, and the complex builds; with [1, -1, 1] it is [-1, 1], and
    construction raises.  The product is tested as scipy gives it, one
    entry per (row, column): no ``FpMatrix`` is built for it."""
    d1 = FpMatrix(sparse.csr_matrix(np.tile([-1, 1], (3, 1))), 3)
    good = FpMatrix(sparse.csr_matrix(np.array([[1, 1, 1]])), 3)
    bad = FpMatrix(sparse.csr_matrix(np.array([[1, -1, 1]])), 3)
    assert fplinalg._times(good.csr, d1).toarray().tolist() == [[-3, 3]]
    assert fplinalg._times(bad.csr, d1).toarray().tolist() == [[-1, 1]]
    built = []
    real = FpMatrix.__init__
    monkeypatch.setattr(FpMatrix, "__init__",
                        lambda self, *args, **kw: built.append(args) or real(self, *args, **kw))
    assert FpComplex(3, 2, [2, 3, 1], [None, d1, good]).homology() == [1, 1]
    with pytest.raises(PLocalError, match="boundary squared is nonzero in degree 2"):
        FpComplex(3, 2, [2, 3, 1], [None, d1, bad])
    assert not built
