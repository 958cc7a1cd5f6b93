"""Differential tests: the array chain kernel against the dict-based
reference builders and the index walk in ``reference_chains.py``.  Matrices
must agree in shape, indptr, indices and data, not just in rank."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_chains as ref
from plocal import (
    BudgetExceeded,
    Functor,
    PLocalError,
    PipelineConfig,
    all_subgroups,
    build_intersection_poset,
    build_linking,
    build_orbit,
    build_orbit_skeletons,
    build_transporter,
    full_subcategory,
    induced_chain_map,
    nerve_complex,
    run_pipeline,
    sylow_subgroup,
)
from plocal import categories, chains as chains_module, cohomology, homology, limits, pipeline
from plocal.catalog import build_group
from plocal.categories import group_category
from plocal.chains import Chains, chain_counts, chain_images, nerve_boundaries
from plocal.limits import LinearFunctor, functor_cochain_complex
from reference_fplinalg import symmetric
from reference_omega import centric_subgroups

CATALOG = ["sym:3", "sym:4", "alt:4", "dih:8", "dih:12", "cyc:6", "sym:3 x cyc:3"]
CHAIN_CHECKS = (
    "nerve-vs-group", "centric-restriction", "centric-agreement",
    "linking-vs-transporter", "punctured", "normalizer-reduction",
    "atomic-vanishing", "restriction", "filtration", "main",
)


def assert_same_matrix(got, want):
    a, b = got.csr, want.csr
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


def assert_int32(chains):
    """Every chain array the kernel keeps is int32."""
    arrays = [chains.pos, chains.row0, chains.heads]
    arrays += [a for name in ("last", "parent", "starts") for a in getattr(chains, name)[1:]]
    assert {a.dtype for a in arrays} == {np.dtype(np.int32)}


def check_nerve(C, prime, cx):
    """The kernel's nerve against the reference, and against the other face
    table writer: a nerve's boundaries are the cochain differentials of the
    constant functor, every dimension 1 and every matrix [1]."""
    assert_int32(cx.chains)
    basis, boundaries = ref.nerve_boundaries(C, prime, cx.dmax)
    assert cx.dims == [len(b) for b in basis]
    constant = LinearFunctor(C, prime, [1] * C.object_count, np.ones(C.morphism_count))
    cochains = functor_cochain_complex(constant, cx.dmax)
    for d in range(1, cx.dmax + 1):
        assert ref.tokens(cx.chains, d).tolist() == [list(t) for t in basis[d]]
        assert_same_matrix(cx.boundaries[d], boundaries[d])
        assert_same_matrix(cochains.boundaries[d], cx.boundaries[d])


def check_chain_map(F, source_cx, target_cx, images):
    """Each image row is the one nonzero column, with entry 1, of its row
    of the reference matrix, and -1 where that row is zero."""
    src = ref.nerve_basis(F.source, source_cx.dmax)
    tgt = ref.nerve_basis(F.target, target_cx.dmax)
    want = ref.chain_map(F, src, tgt, source_cx.prime)
    assert len(images) == len(want)
    for cols, expected in zip(images, want):
        csr = expected.csr
        assert cols.shape == (csr.shape[0],)
        live = cols >= 0
        assert np.array_equal(np.diff(csr.indptr), live)
        assert np.array_equal(csr.indices, cols[live]) and (csr.data == 1).all()


def check_cochains(F, nmax, cx):
    """Kernel and reference both store d: C^n -> C^{n+1} with rows indexed
    by C^{n+1}, the kernel as boundary n+1 of its complex."""
    dims, diffs = ref.cochain_differentials(F, nmax)
    assert cx.dims == dims
    assert cx.chains is None and len(cx.boundaries) == len(diffs) + 1
    for got, want in zip(cx.boundaries[1:], diffs):
        assert_same_matrix(got, want)


def test_kernel_matches_reference_on_every_pipeline_input(monkeypatch):
    """Every nerve, chain map, functor cochain complex and cohomology
    pullback the pipeline builds for the catalog at max-degree 3."""
    seen = dict.fromkeys(("nerve", "chain_map", "cochains", "pullback"), 0)
    real_nerve = homology.nerve_complex
    real_map = homology.induced_chain_map
    real_cochains = limits.functor_cochain_complex
    real_pullback = cohomology.CohomologyBasis.pullback_matrix

    def nerve(C, prime, dmax, budget=homology.DEFAULT_BUDGET):
        cx = real_nerve(C, prime, dmax, budget)
        check_nerve(C, prime, cx)
        seen["nerve"] += 1
        return cx

    def chain_map(F, source_cx, target_cx):
        images = real_map(F, source_cx, target_cx)
        check_chain_map(F, source_cx, target_cx, images)
        seen["chain_map"] += 1
        return images

    def cochains(F, nmax, budget=limits.DEFAULT_BUDGET):
        cx = real_cochains(F, nmax, budget)
        check_cochains(F, nmax, cx)
        seen["cochains"] += 1
        return cx

    def pullback(self, other, g):
        M = real_pullback(self, other, g)
        G = self.G
        g_inv = G.inverse_ids.item(g)
        assert np.array_equal(M, ref.pullback_matrix(
            self, other, lambda x: G.mult(G.mult(g_inv, x), g)))
        seen["pullback"] += 1
        return M

    for mod in (homology, pipeline):
        monkeypatch.setattr(mod, "nerve_complex", nerve)
    monkeypatch.setattr(homology, "induced_chain_map", chain_map)
    monkeypatch.setattr(limits, "functor_cochain_complex", cochains)
    monkeypatch.setattr(cohomology.CohomologyBasis, "pullback_matrix", pullback)
    for spec in CATALOG:
        for p in (2, 3):
            rep = run_pipeline(spec, PipelineConfig(
                prime=p, max_degree=3, max_limit_degree=3,
                cohomology_index_max=1,
                checks=CHAIN_CHECKS, include_timings=False,
            ))
            assert rep.overall == "not-certified", (spec, p)  # only checks left out
            assert "fail" not in rep.verdicts.values(), (spec, p)
    assert all(seen.values()), seen


@pytest.mark.parametrize("spec,p", [("sym:4", 2), ("sym:3 x cyc:3", 3), ("dih:8", 2)])
def test_bar_coboundaries_match_reference(spec, p):
    G = build_group(spec)
    for P in all_subgroups(sylow_subgroup(G, p)):
        if P.order > 8:
            continue
        boundaries = nerve_boundaries(Chains(group_category(G, P), 3), p)
        for n in range(3):
            got = boundaries[n + 1].csr.toarray()
            want = symmetric(ref.bar_coboundary(G, P, n), p)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (P.label(), n)


def _collection(data, G, p):
    subs = all_subgroups(sylow_subgroup(G, p))
    return data.draw(
        st.lists(st.sampled_from(subs), min_size=1, max_size=4, unique_by=lambda H: H.ids)
    )


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_kernel_matches_reference_on_random_collections(data):
    spec = data.draw(st.sampled_from(["sym:4", "sym:3 x cyc:3"]))
    p = data.draw(st.sampled_from([2, 3, 5]))
    G = build_group(spec)
    coll = _collection(data, G, p)
    centric = centric_subgroups(G, p, coll)
    cats = [build_transporter(G, coll), build_orbit(G, coll)]
    if centric:
        cats.append(build_linking(G, p, centric))
    for C in cats:
        try:
            cx = nerve_complex(C, p, 3, budget=20_000)
        except BudgetExceeded:
            assume(False)
        check_nerve(C, p, cx)
        keep = sorted(data.draw(st.sets(st.integers(0, C.object_count - 1), min_size=1)))
        sub, incl = full_subcategory(C, keep)
        sub_cx = nerve_complex(sub, p, 2)
        check_chain_map(incl, sub_cx, cx, induced_chain_map(incl, sub_cx, cx))
        F = ref.constant_functor(C, p, data.draw(st.integers(1, 2)))
        check_cochains(F, 2, functor_cochain_complex(F, 2))


@pytest.mark.parametrize("spec,p", [("sym:4", 2), ("sym:3 x cyc:3", 3)])
def test_cochains_match_reference_where_dims_vary_by_head(spec, p):
    """H^i(B P) on the full orbit skeleton has different dimensions at
    different heads, so each degree's row blocks follow the heads of its
    chains, which the writer derives along parents."""
    G = build_group(spec)
    skel = build_orbit_skeletons(G, p, build_intersection_poset(G, p))
    cache = cohomology.CohomologyCache(G, p)
    for i in (1, 2):
        F = cohomology.classifying_cohomology_functor(skel.p_cat, i, cache)
        assert len(set(F.dims) - {0}) > 1
        check_cochains(F, 3, functor_cochain_complex(F, 3))


def test_tokens_stay_grouped_by_source():
    G = build_group("sym:3")
    subs = sorted(all_subgroups(sylow_subgroup(G, 2)), key=lambda H: H.key)
    T = build_transporter(G, subs)
    with pytest.raises(PLocalError):
        T.set_tokens(T.src, T.tgt, T.witness, T.identity_ids)
    # an unsorted object list is renumbered grouped by the new sources
    sub, incl = full_subcategory(T, [1, 0])
    assert sub.src.tolist() == sorted(sub.src.tolist())
    assert not incl.violations()
    assert nerve_complex(sub, 2, 3).homology() == nerve_complex(T, 2, 3).homology()


def test_chain_map_rejects_images_that_are_not_chains():
    G = build_group("sym:3")
    subs = sorted(all_subgroups(sylow_subgroup(G, 2)), key=lambda H: H.key)
    T = build_transporter(G, subs)
    cx = nerve_complex(T, 2, 2)
    swapped = Functor(T, T, [1, 0], list(range(T.morphism_count)))
    with pytest.raises(PLocalError):
        induced_chain_map(swapped, cx, cx)


# chains per degree up to which the walk references check a category
WALK_CAP = 300_000


def walk_degree(*cats, top: int = 4) -> int:
    """The largest degree <= top through which every category has at most
    WALK_CAP chains per degree."""
    return min(
        next((d - 1 for d, n in enumerate(chain_counts(C, top)) if n > WALK_CAP), top)
        for C in cats
    )


@pytest.fixture(scope="module")
def pipeline_inputs() -> tuple[list, list]:
    """Every category with a composition store that the catalog pipeline
    builds at p in {2, 3}, one of each that compose alike, and every functor
    it induces a chain map along."""
    cats, functors = [], []
    real_init = categories.FiniteCategory.__init__
    real_map = homology.induced_chain_map

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        cats.append(self)

    def chain_map(F, source_cx, target_cx):
        functors.append(F)
        return real_map(F, source_cx, target_cx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(categories.FiniteCategory, "__init__", init)
        mp.setattr(homology, "induced_chain_map", chain_map)
        for spec in CATALOG:
            for p in (2, 3):
                rep = run_pipeline(spec, PipelineConfig(
                    prime=p, max_degree=2, max_limit_degree=2,
                    cohomology_index_max=1, include_timings=False,
                ))
                assert rep.overall != "fail", (spec, p)
    distinct = {
        (C.object_count, C.src.tobytes(), C.tgt.tobytes(), C.composite.tobytes()): C
        for C in cats if C.composite is not None
    }
    return list(distinct.values()), functors


def test_face_tables_match_the_index_walk_on_every_pipeline_category(pipeline_inputs):
    """Each degree's face table, derived from the one before, equals the
    faces the index walk finds from the token rows, through degree 4 where
    the chains fit WALK_CAP: with every object a head, and with every other
    object one (the cochain case, where drop-first faces can be absent)."""
    seen = dict.fromkeys(("restricted", "degenerate", "duplicate", "degree 4"), 0)
    cats, _ = pipeline_inputs
    for C in cats:
        D = walk_degree(C)
        for heads in (None, np.arange(0, C.object_count, 2)):
            chains = Chains(C, D, heads)
            assert_int32(chains)
            for d, table in enumerate(chains.faces(), start=1):
                assert table.dtype == np.int32
                assert np.array_equal(table, ref.reference_faces(chains, d)), (C.kind, d)
                if heads is not None:
                    seen["restricted"] += int((table[:, 0] < 0).sum())
                seen["degenerate"] += int((table[:, 1:d] < 0).sum())
                cols = np.sort(table, axis=1)
                seen["duplicate"] += int(((cols[:, 1:] == cols[:, :-1]) & (cols[:, 1:] >= 0)).sum())
                seen["degree 4"] += d == 4
    assert all(seen.values()), seen


def test_chain_images_match_the_index_walk_on_every_pipeline_functor(pipeline_inputs):
    """The images of every functor the pipeline induces a chain map along,
    grown from the parents' images, equal those found by mapping the token
    rows and walking them, through degree 4 where the chains fit WALK_CAP."""
    _, functors = pipeline_inputs
    zeros = top = 0
    for F in functors:
        D = walk_degree(F.source, F.target)
        source, target = Chains(F.source, D), Chains(F.target, D)
        got = list(chain_images(source, target, np.asarray(F.object_map, dtype=np.int64),
                                np.asarray(F.morphism_map, dtype=np.int64), D))
        want = ref.reference_images(F, source, target, D)
        assert len(got) == len(want) == D + 1
        for cols, expected in zip(got, want):
            assert np.array_equal(cols, expected)
            zeros += int((cols < 0).sum())
        top = max(top, D)
    assert functors and zeros and top == 4


def test_a_degree_of_2_to_the_31_rows_raises_before_it_is_built(monkeypatch):
    """Rows are int32, so a degree with ``ROW_LIMIT`` chains or more raises,
    from its exact int64 count, before any of its arrays is allocated.  With
    the limit lowered to the 125 degree-3 chains of sym:3's bar complex
    (dims 1, 5, 25, 125), degree 3 raises and degree 2 is built; with one
    more row, degree 3 is built too."""
    G = build_group("sym:3")
    C = group_category(G, G.full_subgroup())
    monkeypatch.setattr(chains_module, "ROW_LIMIT", 125)
    assert Chains(C, 2).dims == [1, 5, 25]
    with pytest.raises(PLocalError, match="degree 3 has 125 chains"):
        Chains(C, 3)
    monkeypatch.setattr(chains_module, "ROW_LIMIT", 126)
    assert Chains(C, 3).dims == [1, 5, 25, 125]


@pytest.mark.parametrize("p,residue", [(2, 0), (3, 2), (5, 2)])
def test_duplicate_faces_add_up(p, residue):
    """In the bar complex of a cyclic group the chain (a, a) has its
    drop-first and drop-last faces both (a), each with sign +1: the two
    cancel at p = 2 and add up to 2 otherwise, stored as the symmetric
    residue of 2: -1 at p = 3, 2 at p = 5."""
    G = build_group("cyc:6")
    chains = Chains(group_category(G, G.full_subgroup()), 2)
    boundary = nerve_boundaries(chains, p)[2].csr
    tokens = ref.tokens(chains, 2)
    for row in np.flatnonzero(tokens[:, 0] == tokens[:, 1]).tolist():
        a = int(tokens[row, 0]) - 1                 # degree-1 row of the chain (a)
        assert boundary[row, a] == symmetric(residue, p), (p, row)


def test_homology_runs_read_no_token_rows(monkeypatch):
    """Faces and chain-map images come from parents, so ``Chains`` has no
    reader of token rows (only ``reference_chains.tokens`` builds them) and
    a run of the homology checks induces its chain maps without them."""
    calls = {"chain_map": 0}
    real_map = homology.induced_chain_map

    def chain_map(F, source_cx, target_cx):
        calls["chain_map"] += 1
        return real_map(F, source_cx, target_cx)

    monkeypatch.setattr(homology, "induced_chain_map", chain_map)
    rep = run_pipeline("sym:4", PipelineConfig(
        prime=2, max_degree=3, include_timings=False,
        checks=("nerve-vs-group", "centric-restriction", "centric-agreement",
                "linking-vs-transporter", "main"),
    ))
    assert "fail" not in rep.verdicts.values()
    assert calls["chain_map"] and not hasattr(Chains, "tokens"), calls
