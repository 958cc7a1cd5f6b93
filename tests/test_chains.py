"""Differential tests: the array chain kernel against the dict-based
reference builders in ``reference_chains.py``.  Matrices must agree in
shape, indptr, indices and data, not just in rank."""

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
    build_linking,
    build_orbit,
    build_transporter,
    classify_centric,
    full_subcategory,
    induced_chain_map,
    nerve_complex,
    run_pipeline,
    sylow_subgroup,
)
from plocal import cohomology, homology, limits, pipeline
from plocal.catalog import build_group
from plocal.categories import group_category
from plocal.chains import Chains, nerve_boundary
from plocal.fplinalg import FpMatrix
from plocal.limits import functor_cochain_complex
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


def check_nerve(C, prime, cx):
    basis, boundaries = ref.nerve_boundaries(C, prime, cx.dmax)
    assert cx.dims == [len(b) for b in basis]
    for d in range(1, cx.dmax + 1):
        assert cx.chains.tokens[d].tolist() == [list(t) for t in basis[d]]
        assert_same_matrix(cx.boundaries[d], boundaries[d])


def check_chain_map(F, cm):
    src = ref.nerve_basis(F.source, cm.source.dmax)
    tgt = ref.nerve_basis(F.target, cm.target.dmax)
    want = ref.chain_map(F, src, tgt, cm.prime)
    assert len(cm.mats) == len(want)
    for got, expected in zip(cm.mats, want):
        assert_same_matrix(got, expected)


def check_cochains(F, nmax, cx):
    """The kernel stores d: C^n -> C^{n+1} with rows indexed by C^n; the
    reference builds it with rows indexed by C^{n+1}."""
    dims, diffs = ref.cochain_differentials(F, nmax)
    assert cx.dims == dims
    assert len(cx.diffs) == len(diffs)
    for got, want in zip(cx.diffs, diffs):
        assert_same_matrix(got, FpMatrix(want.csr.T.tocsr(), want.prime))


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
        cm = real_map(F, source_cx, target_cx)
        check_chain_map(F, cm)
        seen["chain_map"] += 1
        return cm

    def cochains(F, nmax, budget=limits.DEFAULT_BUDGET):
        cx = real_cochains(F, nmax, budget)
        check_cochains(F, nmax, cx)
        seen["cochains"] += 1
        return cx

    def pullback(self, other, g):
        M = real_pullback(self, other, g)
        assert np.array_equal(M, ref.pullback_matrix(self, other, lambda x: self.G.conj(x, g)))
        seen["pullback"] += 1
        return M

    for mod in (homology, pipeline):
        monkeypatch.setattr(mod, "nerve_complex", nerve)
    monkeypatch.setattr(pipeline, "induced_chain_map", chain_map)
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
        chains = Chains(group_category(G, P), 3)
        for n in range(3):
            got = nerve_boundary(chains, n + 1, p).csr.toarray()
            want = ref.bar_coboundary(G, P, n, p)
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
    centric = centric_subgroups(classify_centric(G, p, coll))
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
        check_chain_map(incl, induced_chain_map(incl, nerve_complex(sub, p, 2), cx))
        F = ref.constant_functor(C, p, data.draw(st.integers(1, 2)))
        check_cochains(F, 2, functor_cochain_complex(F, 2))


def test_tokens_stay_grouped_by_source():
    G = build_group("sym:3")
    subs = sorted(all_subgroups(sylow_subgroup(G, 2)), key=lambda H: H.key)
    T = build_transporter(G, subs)
    with pytest.raises(PLocalError):
        T.set_tokens(T.src, T.tgt, T.witness, T.identity_ids)
    # an unsorted object list is renumbered grouped by the new sources
    sub, incl = full_subcategory(T, [1, 0])
    assert sub.src.tolist() == sorted(sub.src.tolist())
    assert incl.is_functor
    assert nerve_complex(sub, 2, 3).homology().dims == nerve_complex(T, 2, 3).homology().dims


def test_chain_map_rejects_images_that_are_not_chains():
    G = build_group("sym:3")
    subs = sorted(all_subgroups(sylow_subgroup(G, 2)), key=lambda H: H.key)
    T = build_transporter(G, subs)
    cx = nerve_complex(T, 2, 2)
    swapped = Functor(T, T, [1, 0], list(range(T.morphism_count)))
    with pytest.raises(PLocalError):
        induced_chain_map(swapped, cx, cx)
