import re

import numpy as np
import pytest

from plocal import (
    ModuleData,
    NotAFunctor,
    PLocalError,
    atomic_functor_limits,
    build_orbit,
    all_subgroups,
    build_orbit_skeletons,
    class_filtration_check,
    classifying_cohomology_functor,
    full_subcategory,
    functor_cochain_complex,
    inverse_limit_dim,
    limits_profile,
    normalizer_reduction_check,
    punctured_class_vanishing,
    support_restriction_check,
    supported_cohomology_functor,
)
from plocal import limit_checks
from plocal.catalog import build_group
from plocal.cohomology import CohomologyBasis, CohomologyCache, zeroed_at
from plocal.limits import LinearFunctor, element_action_matrices
from plocal.omega import is_centric
from reference_chains import (
    atomic_mats,
    constant_functor,
    restricted_mats,
    supported_mats,
    token_matrix,
    zeroed_mats,
)
from reference_groups import element_id


def eye_module(G, dim=1):
    return ModuleData(dim, [np.eye(dim, dtype=np.int64) for _ in G.generators])


def test_constant_functor_on_one_object():
    G = build_group("cyc:1")
    O = build_orbit(G, [G.full_subgroup()])
    F = constant_functor(O, 2)
    prof = limits_profile(F, 3)
    assert prof.dims == [1, 0, 0]
    assert prof.lim0_cross_check == 1


def test_constant_functor_with_terminal_object():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    F = constant_functor(skel.omega_cat, 2)
    prof = limits_profile(F, 3)
    assert prof.dims == [1, 0, 0]


def test_a_pullback_outside_the_target_subgroup_raises():
    G = build_group("sym:3")
    P, Q = [H for H in all_subgroups(G.full_subgroup()) if H.order == 2][:2]
    bP, bQ = CohomologyBasis(G, P, 1, 2), CohomologyBasis(G, Q, 1, 2)
    assert bP.dim == bQ.dim == 1
    with pytest.raises(PLocalError, match="outside"):
        bP.pullback_matrix(bQ, 0)
    g = next(g for g in range(G.order) if P.conjugate(g).ids == Q.ids)
    assert bP.pullback_matrix(bQ, g).tolist() == [[1]]


def test_validate_rejects_bad_matrices():
    G = build_group("cyc:2")
    O = build_orbit(G, [G.trivial_subgroup(), G.full_subgroup()])
    F = constant_functor(O, 2)
    # zero out a non-identity automorphism whose square is the identity
    tid = next(
        t for t in range(O.morphism_count)
        if O.src[t] == O.tgt[t] and not O.is_id[t]
    )
    F.entries[F.offsets[tid]:F.offsets[tid + 1]] = 0
    with pytest.raises(NotAFunctor):
        F.validate()
    # the builders leave validation to limits_profile, which must refuse it
    with pytest.raises(NotAFunctor):
        limits_profile(F, 2)


def first_bad_pair(F):
    """The message of a per-pair loop over the store: the first composable
    pair in store order that is unfilled or not preserved, or None."""
    C, p = F.category, F.prime
    t1s, t2s = C.pairs()
    for t1, t2, t3 in zip(t1s.tolist(), t2s.tolist(), C.composite.tolist()):
        if t3 < 0:
            return f"composite of tokens ({t1},{t2}) is not filled"
        if not np.array_equal(token_matrix(F, t1) @ token_matrix(F, t2) % p,
                              token_matrix(F, t3) % p):
            return f"composition fails at tokens ({t1},{t2})"
    return None


@pytest.mark.parametrize("spec,p,index", [
    ("sym:4", 2, 1), ("sym:4", 2, 2), ("sym:3 x cyc:3", 3, 1), ("sym:3 x cyc:3", 3, 2),
])
def test_validate_reports_the_first_bad_pair_in_store_order(spec, p, index):
    G = build_group(spec)
    C = build_orbit_skeletons(G, p).omega_cat
    F = classifying_cohomology_functor(G, p, C, index, CohomologyCache(G, p))
    assert first_bad_pair(F) is None
    F.validate()
    store = C.composite.copy()
    spoilable = [t for t in range(C.morphism_count)
                 if not C.is_id[t] and F.offsets[t + 1] > F.offsets[t]]
    spoiled = 0
    for t in spoilable[::max(1, len(spoilable) // 8)]:
        H = LinearFunctor(C, p, F.dims, F.entries.copy())
        H.entries[H.offsets[t]] = (H.entries[H.offsets[t]] + 1) % p
        msg = first_bad_pair(H)
        if msg is None:
            H.validate()
            continue
        spoiled += 1
        with pytest.raises(NotAFunctor, match=re.escape(msg)):
            H.validate()
        # an unfilled slot is reported only if it comes first in store order
        k = next(i for i, (a, b) in enumerate(zip(*C.pairs()))
                 if msg.endswith(f"({a},{b})"))
        for slot in {0, k // 2, k, len(store) - 1}:
            C.composite[slot] = -1
            want = first_bad_pair(H)
            error = NotAFunctor if "fails" in want else PLocalError
            with pytest.raises(error, match=re.escape(want)) as raised:
                H.validate()
            assert type(raised.value) is error
            C.composite[:] = store
    assert spoiled


def test_atomic_limits_vanish_with_p_element():
    # kernel of the trivial action contains an element of order p
    for spec, p in [("cyc:2", 2), ("sym:3", 2), ("sym:3", 3), ("alt:4", 2)]:
        G = build_group(spec)
        prof = atomic_functor_limits(G, p, eye_module(G), 3)
        assert prof.dims == [0, 0, 0], (spec, p)


def test_atomic_limits_no_p_subgroups():
    # no nontrivial 2-subgroups: the orbit category is the one-object
    # category of the group, and lim^0 is the fixed subspace
    G = build_group("cyc:3")
    prof = atomic_functor_limits(G, 2, eye_module(G), 3)
    assert prof.dims == [1, 0, 0]
    # order-3 action on F_2^2 with no nonzero fixed vectors
    act = ModuleData(2, [np.array([[0, 1], [1, 1]], dtype=np.int64)])
    prof2 = atomic_functor_limits(G, 2, act, 3)
    assert prof2.dims[0] == 0


def test_trivial_group_atomic_limits():
    G = build_group("cyc:1")
    prof = atomic_functor_limits(G, 2, ModuleData(2, []), 3)
    assert prof.dims == [2, 0, 0]


def test_lim0_equals_compat_system_everywhere():
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    cache = CohomologyCache(G, 2)
    for i in range(3):
        F = classifying_cohomology_functor(G, 2, skel.omega_cat, i, cache)
        cx = functor_cochain_complex(F, 3)
        assert cx.limit_dims()[0] == inverse_limit_dim(F)


def test_cohomology_basis_dimensions():
    G = build_group("dih:8")
    S = G.full_subgroup()
    # H^*(B D8; F_2) has dimensions 1, 2, 3, ...
    dims = [CohomologyBasis(G, S, i, 2).dim for i in range(3)]
    assert dims == [1, 2, 3]
    C2 = G.generated_subgroup([S.ids[1]])
    z2dims = [CohomologyBasis(G, C2, i, 2).dim for i in range(4)]
    assert z2dims == [1, 1, 1, 1]
    triv = G.trivial_subgroup()
    assert [CohomologyBasis(G, triv, i, 2).dim for i in range(3)] == [1, 0, 0]


def test_cohomology_basis_z3():
    G = build_group("cyc:3")
    S = G.full_subgroup()
    assert [CohomologyBasis(G, S, i, 3).dim for i in range(4)] == [1, 1, 1, 1]
    # prime-to-order coefficients: cohomology collapses
    assert [CohomologyBasis(G, S, i, 2).dim for i in range(3)] == [1, 0, 0]


def test_cohomology_functor_inner_action_trivial():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    F = classifying_cohomology_functor(G, 2, skel.p_cat, 1)
    k = next(i for i, R in enumerate(skel.p_reps) if R.order == 2)
    assert F.dims[k] == 1
    for tid in skel.p_cat.mor(k, k):
        assert np.array_equal(token_matrix(F, tid), np.eye(1, dtype=np.int64))


def test_cohomology_functor_index_zero_constant():
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    F = classifying_cohomology_functor(G, 2, skel.omega_cat, 0)
    assert all(d == 1 for d in F.dims)
    for tid in range(skel.omega_cat.morphism_count):
        assert np.array_equal(token_matrix(F, tid) % 2, np.eye(1, dtype=np.int64))


def test_punctured_vanishing_s3():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    v = punctured_class_vanishing(skel, G.trivial_subgroup(), 0, 3)
    assert v.applicable
    assert v.full_dims == [0, 0, 0]
    assert v.omega_dims == [0, 0, 0]
    assert v.passed and v.sides_agree


def test_punctured_vanishing_guard_on_centric():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    S = skel.sylow
    v = punctured_class_vanishing(skel, S, 0, 3)
    assert not v.applicable
    assert v.passed  # not-applicable verdicts never assert vanishing


def test_punctured_vanishing_s4_noncentric_small_class():
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    from plocal.catalog import parse_cycles
    Q = G.generated_subgroup([element_id(G, parse_cycles("(1 2)(3 4)", degree=4))])
    assert not is_centric(G, 2, Q)
    v = punctured_class_vanishing(skel, Q, 1, 3)
    assert v.applicable
    assert v.full_dims == [0, 0, 0]
    assert v.omega_dims is None  # the class is not an intersection of Sylows


def test_normalizer_reduction_sylow_class():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    v = normalizer_reduction_check(skel, skel.sylow, 1, 3)
    assert v.quotient_order == 1
    assert v.left_dims == v.right_dims == [1, 0, 0]


def test_normalizer_reduction_nontrivial_module():
    # the four-group in sym:4 has normalizer quotient of order 6 acting on
    # a two-dimensional first cohomology
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    V = skel.poset.members[skel.poset.minimum]
    v = normalizer_reduction_check(skel, V, 1, 3)
    assert v.quotient_order == 6
    assert v.passed


def test_normalizer_reduction_everywhere_s4():
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    for R in skel.p_reps:
        for i in range(2):
            assert normalizer_reduction_check(skel, R, i, 3).passed


def test_support_restriction():
    for spec, p in [("sym:3", 2), ("sym:4", 2), ("dih:12", 2)]:
        G = build_group(spec)
        skel = build_orbit_skeletons(G, p)
        for i in range(2):
            v = support_restriction_check(skel, i, 3)
            assert v.passed, (spec, p, i)


def test_support_restriction_full_support_trivially_equal():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    v = support_restriction_check(
        skel, 1, 3, support_classes=list(range(len(skel.omega_reps)))
    )
    assert v.passed
    assert v.support_size == len(skel.omega_reps)


def test_support_restriction_rejects_bad_support():
    import pytest
    from plocal import UpwardClosureViolated

    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    triv = next(c for c, R in enumerate(skel.omega_reps) if R.order == 1)
    with pytest.raises(UpwardClosureViolated):
        support_restriction_check(skel, 0, 3, support_classes=[triv])


def test_filtration_trivial_when_all_centric():
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    v = class_filtration_check(skel, 1, 3)
    assert len(v.stages) == 0
    assert v.passed


def test_filtration_with_stages():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    v = class_filtration_check(skel, 1, 3)
    assert len(v.stages) == 1
    assert v.stages[0].punctured_dims == [0, 0, 0]
    assert v.passed
    G12 = build_group("dih:12")
    skel12 = build_orbit_skeletons(G12, 2)
    v12 = class_filtration_check(skel12, 1, 3)
    # one non-centric class: the central order-2 intersection of the Sylows
    assert len(v12.stages) == 1
    assert v12.stages[0].added_order == 2
    assert v12.passed


def test_filtration_multi_stage_with_order_ties():
    # three non-centric classes: the trivial subgroup and the two order-2
    # factor classes, which tie in order and exercise the tie-break
    G = build_group("sym:3 x sym:3")
    skel = build_orbit_skeletons(G, 2)
    assert sum(1 for f in skel.omega_centric if not f) == 3
    v = class_filtration_check(skel, 1, 3)
    assert len(v.stages) == 3
    assert [s.added_order for s in v.stages] == [2, 2, 1]
    assert v.passed


def test_cochain_budget_guard():
    from plocal import BudgetExceeded
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    F = classifying_cohomology_functor(G, 2, skel.p_cat, 0)
    with pytest.raises(BudgetExceeded):
        functor_cochain_complex(F, 3, budget=5)


def test_supported_functor_zero_off_support():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    k = next(i for i, R in enumerate(skel.p_reps) if R.order == 1)
    F = supported_cohomology_functor(G, 2, skel.p_cat, [k], 0)
    for j, d in enumerate(F.dims):
        assert (d > 0) == (j == k)


# -- the per-run store of limit profiles ------------------------------------

LIMIT_CHECKS = ("punctured", "normalizer-reduction", "atomic-vanishing", "restriction",
                "filtration")


def count_computations(monkeypatch) -> list:
    """Record every functor whose limits are actually computed: the memo
    validates and builds the cochain complex only on a miss."""
    computed = []
    real = LinearFunctor.validate

    def validate(F):
        computed.append(F)
        return real(F)

    monkeypatch.setattr(LinearFunctor, "validate", validate)
    return computed


def cohomology_functor(spec="sym:4", p=2, index=1):
    G = build_group(spec)
    C = build_orbit_skeletons(G, p).omega_cat
    return classifying_cohomology_functor(G, p, C, index, CohomologyCache(G, p))


def test_content_equal_functors_share_one_computation(monkeypatch):
    computed = count_computations(monkeypatch)
    F = cohomology_functor()
    sub, incl = full_subcategory(F.category, list(range(F.category.object_count)))
    twin = F.restrict(sub, incl)
    assert sub is not F.category and twin.entries is not F.entries
    assert np.array_equal(twin.entries, F.entries)
    memo: dict = {}
    first = limits_profile(F, 3, memo=memo)
    again = limits_profile(twin, 3, memo=memo)
    assert computed == [F] and len(memo) == 1
    assert again == first and again.dims is not first.dims
    # entries are reduced mod p: a functor built from entries + p has the content
    shifted = LinearFunctor(sub, F.prime, twin.dims, twin.entries + F.prime)
    assert limits_profile(shifted, 3, memo=memo) == first
    assert computed == [F]
    assert limits_profile(F, 3, memo=None) == first and len(computed) == 2


def test_any_change_to_the_functor_or_the_call_misses(monkeypatch):
    computed = count_computations(monkeypatch)
    F = cohomology_functor()
    memo: dict = {}
    limits_profile(F, 3, memo=memo)
    t = next(t for t in range(F.category.morphism_count)
             if not F.category.is_id[t] and F.offsets[t + 1] > F.offsets[t])

    entry = LinearFunctor(F.category, F.prime, F.dims, F.entries.copy())
    entry.entries[entry.offsets[t]] = (entry.entries[entry.offsets[t]] + 1) % F.prime
    length = LinearFunctor(F.category, F.prime, F.dims, np.append(F.entries, 0))
    prime = LinearFunctor(F.category, 3, F.dims, F.entries)
    for variant in (entry, length, prime):
        try:
            limits_profile(variant, 3, memo=memo)
        except NotAFunctor:
            pass
        assert computed[-1] is variant
    limits_profile(F, 2, memo=memo)
    limits_profile(F, 3, budget=10 ** 6, memo=memo)
    assert len(computed) == 6
    limits_profile(F, 3, memo=memo)
    assert len(computed) == 6


def test_failures_are_never_stored(monkeypatch):
    from plocal import BudgetExceeded
    computed = count_computations(monkeypatch)
    F = cohomology_functor()
    bad = LinearFunctor(F.category, F.prime, F.dims, F.entries[:-1])
    memo: dict = {}
    for _ in range(2):
        with pytest.raises(NotAFunctor):
            limits_profile(bad, 3, memo=memo)
        with pytest.raises(BudgetExceeded):
            limits_profile(F, 3, budget=5, memo=memo)
    assert memo == {} and len(computed) == 4


@pytest.mark.parametrize("short", [False, True])
def test_validate_rejects_entries_of_the_wrong_length(monkeypatch, short):
    computed = count_computations(monkeypatch)
    F = cohomology_functor()
    entries = F.entries[:-1] if short else np.append(F.entries, 0)
    bad = LinearFunctor(F.category, F.prime, F.dims, entries)
    memo: dict = {}
    for _ in range(2):
        with pytest.raises(NotAFunctor, match="entries where the dimensions need"):
            limits_profile(bad, 3, memo=memo)
    assert memo == {} and computed == [bad, bad]
    limits_profile(F, 3, memo=memo)
    assert len(memo) == 1


def test_an_object_without_an_identity_token_fails_cleanly():
    F = cohomology_functor()
    F.category.identity_ids[1] = -1
    memo: dict = {}
    with pytest.raises(PLocalError, match="object 1 has no identity token"):
        limits_profile(F, 3, memo=memo)
    assert memo == {}


def test_an_identity_token_that_is_not_a_loop_is_rejected():
    G = build_group("sym:4")
    C = build_orbit_skeletons(G, 2).p_cat
    F = classifying_cohomology_functor(G, 2, C, 1, CohomologyCache(G, 2))
    t = next(t for t in range(C.morphism_count)
             if 0 < F.dims[C.src[t]] != F.dims[C.tgt[t]])
    C.identity_ids[C.src[t]] = t
    with pytest.raises(NotAFunctor, match=f"identity at object {C.src[t]} is not"):
        limits_profile(F, 3)


CATALOG = ["sym:3", "sym:4", "alt:4", "dih:8", "dih:12", "cyc:6", "sym:3 x cyc:3"]


def assert_store_matches(F, dims, mats):
    """F's dimensions, and each token's block, equal the reference's."""
    assert list(F.dims) == dims
    assert len(F.entries) == sum(M.size for M in mats.values())
    for t in range(F.category.morphism_count):
        M = mats[t] % F.prime
        assert np.array_equal(F.blocks([t]).reshape(M.shape), M), t


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("spec", CATALOG)
def test_functor_store_matches_the_per_token_reference(spec, p, monkeypatch):
    """Every builder of a functor lays out the matrices that the per-token
    loops it replaced put in a {token: matrix} dict."""
    G = build_group(spec)
    skel = build_orbit_skeletons(G, p)
    cache = CohomologyCache(G, p)
    for cat in (skel.omega_cat, skel.p_cat):
        everywhere = list(range(cat.object_count))
        for i in range(3):
            dims, mats = supported_mats(cat, everywhere, i, cache)
            F = classifying_cohomology_functor(G, p, cat, i, cache)
            assert_store_matches(F, dims, mats)
            for k in everywhere:
                assert_store_matches(supported_cohomology_functor(G, p, cat, [k], i, cache),
                                     *supported_mats(cat, [k], i, cache))
                assert_store_matches(zeroed_at(F, [k]), *zeroed_mats(cat, dims, mats, [k]))
                for keep in ([k], everywhere[k:]):
                    sub, incl = full_subcategory(cat, keep)
                    assert_store_matches(F.restrict(sub, incl), [dims[j] for j in keep],
                                         restricted_mats(mats, incl))

    rng = np.random.default_rng(7)
    module = ModuleData(2, [rng.integers(0, p, (2, 2)) for _ in G.generators])
    built = []
    monkeypatch.setattr(limit_checks, "limits_profile", lambda F, *args: built.append(F))
    atomic_functor_limits(G, p, module, 3, skeletons=skel)
    triv = next(k for k, R in enumerate(skel.p_reps) if R.order == 1)
    rho = element_action_matrices(G, module, p)
    assert_store_matches(built[0], *atomic_mats(skel.p_cat, triv, rho, 2))


def test_pipeline_runs_share_no_limits(monkeypatch):
    from plocal import PipelineConfig, PipelineRun
    computed = count_computations(monkeypatch)
    G = build_group("sym:4")
    cfg = PipelineConfig(prime=2, checks=LIMIT_CHECKS, include_timings=False,
                         cohomology_index_max=1)
    runs, counts = [], []
    for _ in range(2):
        run = PipelineRun(G, cfg, "sym:4")
        rep = run.run()
        assert "fail" not in rep.verdicts.values()
        runs.append(run)
        counts.append(len(computed))
    first, second = runs
    assert first.cohomology_cache is not second.cohomology_cache
    assert first.cohomology_cache.limits is not second.cohomology_cache.limits
    assert first.cohomology_cache.limits.keys() == second.cohomology_cache.limits.keys()
    assert counts[0] == counts[1] - counts[0] == len(first.cohomology_cache.limits) > 0


def test_normalizer_quotients_are_built_once_per_class(monkeypatch):
    """N_G(R)/R and its orbit skeletons depend only on the class of R: a
    run builds each once, however many cohomology indices it checks, and
    every record equals the one a fresh cache gives."""
    from plocal import PipelineConfig, PipelineRun
    from plocal import limit_checks
    quotients, skeletons = [], []
    real_quotient = limit_checks.quotient_realization
    real_skeletons = limit_checks.build_orbit_skeletons

    def counted_quotient(G, N, Q):
        quotients.append(Q.ids)
        return real_quotient(G, N, Q)

    def counted_skeletons(G, p, *args, **kwargs):
        skeletons.append(G)
        return real_skeletons(G, p, *args, **kwargs)

    monkeypatch.setattr(limit_checks, "quotient_realization", counted_quotient)
    monkeypatch.setattr(limit_checks, "build_orbit_skeletons", counted_skeletons)
    G = build_group("sym:3 x cyc:3")
    cfg = PipelineConfig(prime=2, checks=("normalizer-reduction",), include_timings=False)
    run = PipelineRun(G, cfg, "sym:3 x cyc:3")
    rep = run.run()
    assert rep.verdicts["normalizer_reduction"] == "pass"
    skel = run.skeletons
    classes = [R.ids for R in skel.p_reps]
    assert cfg.cohomology_index_max >= 1 and len(classes) > 1
    assert quotients == classes
    assert len([W for W in skeletons if W is not G]) == len(classes)
    assert run.cohomology_cache.quotients.keys() == set(classes)

    records = rep.data["limits"]["normalizer_reduction"]
    assert len(records) == len(classes) * (cfg.cohomology_index_max + 1)
    fresh = []
    for R in skel.p_reps:
        for i in range(cfg.cohomology_index_max + 1):
            v = normalizer_reduction_check(skel, R, i, cfg.max_limit_degree, cfg.budget,
                                           CohomologyCache(G, 2))
            fresh.append({"class": v.class_label, "index": i, "left": v.left_dims,
                          "right": v.right_dims, "quotient_order": v.quotient_order})
    assert records == fresh
