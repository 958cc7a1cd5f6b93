import hashlib
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
from plocal.errors import DEFAULT_BUDGET
from plocal.fplinalg import EchelonCoords
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
from reference_groups import conjugate, element_id


def eye_module(G, dim=1):
    return ModuleData(dim, [np.eye(dim, dtype=np.int64) for _ in G.generators])


def cache_of(skel):
    return CohomologyCache(skel.G, skel.p)


def atomic_limits(G, p, module):
    skel = build_orbit_skeletons(G, p)
    return atomic_functor_limits(skel, module, 3, cache_of(skel))


def test_constant_functor_on_one_object():
    G = build_group("cyc:1")
    O = build_orbit(G, [G.full_subgroup()])
    F = constant_functor(O, 2)
    dims = limits_profile(F, 3, DEFAULT_BUDGET, {})
    assert dims == [1, 0, 0]
    assert inverse_limit_dim(F) == dims[0]


def test_constant_functor_with_terminal_object():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    F = constant_functor(skel.omega_cat, 2)
    assert limits_profile(F, 3, DEFAULT_BUDGET, {}) == [1, 0, 0]


def test_a_pullback_outside_the_target_subgroup_raises():
    G = build_group("sym:3")
    P, Q = [H for H in all_subgroups(G.full_subgroup()) if H.order == 2][:2]
    bP, bQ = CohomologyBasis(P, 1, 2), CohomologyBasis(Q, 1, 2)
    assert bP.dim == bQ.dim == 1
    with pytest.raises(PLocalError, match="outside"):
        bP.pullback_matrix(bQ, 0)
    g = next(g for g in range(G.order) if conjugate(P, g).ids == Q.ids)
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
        limits_profile(F, 2, DEFAULT_BUDGET, {})


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
    F = classifying_cohomology_functor(C, index, CohomologyCache(G, p))
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
        assert atomic_limits(G, p, eye_module(G)) == [0, 0, 0], (spec, p)


def test_atomic_limits_no_p_subgroups():
    # no nontrivial 2-subgroups: the orbit category is the one-object
    # category of the group, and lim^0 is the fixed subspace
    G = build_group("cyc:3")
    assert atomic_limits(G, 2, eye_module(G)) == [1, 0, 0]
    # order-3 action on F_2^2 with no nonzero fixed vectors
    act = ModuleData(2, [np.array([[0, 1], [1, 1]], dtype=np.int64)])
    assert atomic_limits(G, 2, act)[0] == 0


def test_trivial_group_atomic_limits():
    G = build_group("cyc:1")
    assert atomic_limits(G, 2, ModuleData(2, [])) == [2, 0, 0]


def test_lim0_equals_compat_system_everywhere():
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    cache = CohomologyCache(G, 2)
    for i in range(3):
        F = classifying_cohomology_functor(skel.omega_cat, i, cache)
        cx = functor_cochain_complex(F, 3)
        assert cx.homology()[0] == inverse_limit_dim(F)


def test_cohomology_basis_dimensions():
    G = build_group("dih:8")
    S = G.full_subgroup()
    # H^*(B D8; F_2) has dimensions 1, 2, 3, ...
    dims = [CohomologyBasis(S, i, 2).dim for i in range(3)]
    assert dims == [1, 2, 3]
    C2 = G.generated_subgroup([S.ids[1]])
    z2dims = [CohomologyBasis(C2, i, 2).dim for i in range(4)]
    assert z2dims == [1, 1, 1, 1]
    triv = G.trivial_subgroup()
    assert [CohomologyBasis(triv, i, 2).dim for i in range(3)] == [1, 0, 0]


def test_cohomology_basis_z3():
    G = build_group("cyc:3")
    S = G.full_subgroup()
    assert [CohomologyBasis(S, i, 3).dim for i in range(4)] == [1, 1, 1, 1]
    # prime-to-order coefficients: cohomology collapses
    assert [CohomologyBasis(S, i, 2).dim for i in range(3)] == [1, 0, 0]


# the digest the per-vector dense loops gave, before rref_dense,
# nullspace_dense and EchelonCoords worked on whole matrices
FUNCTOR_DIGEST = "c09b0522d6db67ddce76de4304f52d7ac71d05c68e9b75660ebd4aea52456972"


def test_cohomology_functor_entries_are_pinned():
    """The dims and entries of P -> H^i(B P; F_p) on the orbit category of
    each class of p-subgroups, i = 0..2, p = 2 and 3: the cocycle bases and
    the coordinates of their pullbacks are the ones the loops chose."""
    h = hashlib.sha256()
    for spec in ["sym:3", "sym:4", "alt:4", "dih:8", "dih:12", "sym:3 x cyc:3"]:
        G = build_group(spec)
        for p in (2, 3):
            skel = build_orbit_skeletons(G, p)
            cache = CohomologyCache(G, p)
            for i in range(3):
                F = classifying_cohomology_functor(skel.p_cat, i, cache)
                h.update(repr((spec, p, i, list(F.dims))).encode())
                h.update(np.asarray(F.entries, dtype=np.int64).tobytes())
    assert h.hexdigest() == FUNCTOR_DIGEST


@pytest.mark.parametrize("i", [0, 2])
def test_a_basis_reduces_its_vectors_in_one_call_of_each_kind(monkeypatch, i):
    """One CohomologyBasis hands its silent rows (none at i = 0) and its
    cocycles to its echelon in one call each, and a pullback matrix takes
    the coordinates of every representative in one call."""
    calls = []
    for name in ("add_silent", "add_tracked", "coords"):
        real = getattr(EchelonCoords, name)
        monkeypatch.setattr(EchelonCoords, name,
                            lambda self, rows, real=real, name=name: calls.append(name)
                            or real(self, rows))
    S = build_group("dih:8").full_subgroup()
    basis = CohomologyBasis(S, i, 2)
    assert calls == ["add_silent", "add_tracked"][i == 0:]
    calls.clear()
    M = basis.pullback_matrix(basis, 0)
    assert calls == ["coords"]
    assert M.tolist() == np.eye(i + 1, dtype=np.int64).tolist()


def test_cohomology_functor_inner_action_trivial():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    F = classifying_cohomology_functor(skel.p_cat, 1, CohomologyCache(G, 2))
    k = next(i for i, R in enumerate(skel.p_reps) if R.order == 2)
    assert F.dims[k] == 1
    for tid in skel.p_cat.mor(k, k):
        assert np.array_equal(token_matrix(F, tid), np.eye(1, dtype=np.int64))


def test_cohomology_functor_index_zero_constant():
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    F = classifying_cohomology_functor(skel.omega_cat, 0, CohomologyCache(G, 2))
    assert all(d == 1 for d in F.dims)
    for tid in range(skel.omega_cat.morphism_count):
        assert np.array_equal(token_matrix(F, tid) % 2, np.eye(1, dtype=np.int64))


def test_punctured_vanishing_s3():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    passed, rec = punctured_class_vanishing(skel, G.trivial_subgroup(), 0, 3, cache_of(skel))
    assert rec == {"class": G.trivial_subgroup().label(), "index": 0,
                   "full_dims": [0, 0, 0], "poset_dims": [0, 0, 0]}
    assert passed


def test_punctured_vanishing_guard_on_centric():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    S = skel.sylow
    cache = cache_of(skel)
    with pytest.raises(PLocalError, match="is centric"):
        punctured_class_vanishing(skel, S, 0, 3, cache)
    assert cache.limits == {}  # refused before any limit is computed


def test_punctured_vanishing_s4_noncentric_small_class():
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    from plocal.catalog import parse_cycles
    Q = G.generated_subgroup([element_id(G, parse_cycles("(1 2)(3 4)", degree=4))])
    assert not is_centric(G, 2, Q)
    passed, rec = punctured_class_vanishing(skel, Q, 1, 3, cache_of(skel))
    assert passed
    assert rec["full_dims"] == [0, 0, 0]
    assert rec["poset_dims"] is None  # the class is not an intersection of Sylows


def test_normalizer_reduction_sylow_class():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    passed, rec = normalizer_reduction_check(skel, skel.sylow, 1, 3, cache_of(skel))
    assert rec["quotient_order"] == 1
    assert rec["left"] == rec["right"] == [1, 0, 0]
    assert passed


def test_normalizer_reduction_nontrivial_module():
    # the four-group in sym:4 has normalizer quotient of order 6 acting on
    # a two-dimensional first cohomology
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    V = skel.poset.members[skel.poset.minimum]
    passed, rec = normalizer_reduction_check(skel, V, 1, 3, cache_of(skel))
    assert rec["quotient_order"] == 6
    assert passed


def test_normalizer_reduction_everywhere_s4():
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    for R in skel.p_reps:
        for i in range(2):
            assert normalizer_reduction_check(skel, R, i, 3, cache_of(skel))[0]


def test_support_restriction():
    for spec, p in [("sym:3", 2), ("sym:4", 2), ("dih:12", 2)]:
        G = build_group(spec)
        skel = build_orbit_skeletons(G, p)
        for i in range(2):
            passed, _ = support_restriction_check(skel, i, 3, cache_of(skel))
            assert passed, (spec, p, i)


def test_support_restriction_full_support_trivially_equal(monkeypatch):
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    supports = []
    real = limit_checks.supported_cohomology_functor
    monkeypatch.setattr(limit_checks, "supported_cohomology_functor",
                        lambda cat, support, *a: supports.append(support) or real(cat, support, *a))
    passed, rec = support_restriction_check(
        skel, 1, 3, cache_of(skel), support_classes=list(range(len(skel.omega_reps)))
    )
    assert passed and rec["ambient"] == rec["restricted"]
    assert supports == [list(range(len(skel.omega_reps)))]


def test_support_restriction_rejects_bad_support():
    import pytest
    from plocal import UpwardClosureViolated

    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    triv = next(c for c, R in enumerate(skel.omega_reps) if R.order == 1)
    with pytest.raises(UpwardClosureViolated):
        support_restriction_check(skel, 0, 3, cache_of(skel), support_classes=[triv])


def test_filtration_trivial_when_all_centric():
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    passed, rec = class_filtration_check(skel, 1, 3, cache_of(skel))
    assert len(rec["stages"]) == 0
    assert passed


def test_filtration_with_stages():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    passed, rec = class_filtration_check(skel, 1, 3, cache_of(skel))
    assert len(rec["stages"]) == 1
    assert rec["stages"][0]["punctured_dims"] == [0, 0, 0]
    assert rec["stages"][0]["passed"] and passed
    G12 = build_group("dih:12")
    skel12 = build_orbit_skeletons(G12, 2)
    passed12, rec12 = class_filtration_check(skel12, 1, 3, cache_of(skel12))
    # one non-centric class: the central order-2 intersection of the Sylows
    assert len(rec12["stages"]) == 1
    assert rec12["stages"][0]["order"] == 2
    assert passed12


def test_filtration_multi_stage_with_order_ties():
    # three non-centric classes: the trivial subgroup and the two order-2
    # factor classes, which tie in order and exercise the tie-break
    G = build_group("sym:3 x sym:3")
    skel = build_orbit_skeletons(G, 2)
    assert sum(1 for f in skel.omega_centric if not f) == 3
    passed, rec = class_filtration_check(skel, 1, 3, cache_of(skel))
    assert [s["order"] for s in rec["stages"]] == [2, 2, 1]
    assert passed


def test_a_failing_filtration_stage_still_computes_every_side(monkeypatch):
    """With the surjection check forced to fail, every filtration stage of
    sym:4 at p=3 (its trivial class is the one non-centric poset class;
    at p=2 every class is centric, so there is no stage) reads failed, and
    the run asks for the same limit profiles in the same order as the
    passing run: a failed side does not skip the sides after it."""
    from plocal import PipelineConfig, PipelineRun
    from plocal.limits import _functor_key

    G = build_group("sym:4")
    real = limit_checks.limits_profile

    def run():
        keys = []

        def spy(F, nmax, budget, memo):
            keys.append(_functor_key(F, nmax, budget))
            return real(F, nmax, budget, memo)
        with monkeypatch.context() as m:
            m.setattr(limit_checks, "limits_profile", spy)
            cfg = PipelineConfig(prime=3, checks=("filtration",), include_timings=False)
            return keys, PipelineRun(G, cfg, "sym:4").run()

    keys, passing = run()
    monkeypatch.setattr(limit_checks, "_natural_surjection_ok", lambda F1, dead: False)
    failing_keys, failing = run()
    assert failing_keys == keys
    records = passing.data["limits"]["class_filtration"]
    failed = failing.data["limits"]["class_filtration"]
    assert len(records) == 3 and all(len(r["stages"]) == 1 for r in records)
    assert [s["passed"] for r in records for s in r["stages"]] == [True] * 3
    assert [s["passed"] for r in failed for s in r["stages"]] == [False] * 3
    for r in records:
        r["stages"][0]["passed"] = False
    assert failed == records  # every dimension as in the passing run
    assert passing.verdicts["class_filtration_limits"] == "pass"
    assert failing.verdicts["class_filtration_limits"] == "fail"


def test_cochain_budget_guard():
    from plocal import BudgetExceeded
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    F = classifying_cohomology_functor(skel.p_cat, 0, CohomologyCache(G, 2))
    with pytest.raises(BudgetExceeded):
        functor_cochain_complex(F, 3, budget=5)


def test_limit_checks_keep_to_the_budget_of_their_cache():
    """H^2 of the Sylow subgroup of sym:4 needs a bar basis of 343 chains at
    degree 3; a check given a cache with budget 300 raises."""
    from plocal import BudgetExceeded
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    checks = (
        lambda cache: normalizer_reduction_check(skel, skel.sylow, 2, 1, cache),
        lambda cache: support_restriction_check(skel, 2, 1, cache),
        lambda cache: class_filtration_check(skel, 2, 1, cache),
    )
    for check in checks:
        with pytest.raises(BudgetExceeded, match="basis size 343 at degree 3"):
            check(CohomologyCache(G, 2, 300))


LIMIT_CHECK_CALLS = {
    "punctured": lambda skel, cache: punctured_class_vanishing(skel, skel.p_reps[0], 0, 1, cache),
    "normalizer-reduction":
        lambda skel, cache: normalizer_reduction_check(skel, skel.p_reps[0], 0, 1, cache),
    "restriction": lambda skel, cache: support_restriction_check(skel, 0, 1, cache),
    "filtration": lambda skel, cache: class_filtration_check(skel, 0, 1, cache),
}


@pytest.mark.parametrize("other", ["group", "prime"])
@pytest.mark.parametrize("check", LIMIT_CHECK_CALLS)
def test_limit_checks_reject_a_cache_of_another_group_or_prime(check, other):
    """A cache of an equal but distinct group, or of another prime, is
    refused before anything is computed or stored in it."""
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    cache = CohomologyCache(build_group("sym:3"), 2) if other == "group" else CohomologyCache(G, 3)
    with pytest.raises(PLocalError, match="is not the cache of these skeletons"):
        LIMIT_CHECK_CALLS[check](skel, cache)
    assert cache.limits == cache.quotients == {} and not cache._store
    assert LIMIT_CHECK_CALLS[check](skel, cache_of(skel))[0]


def test_quotient_skeletons_are_built_within_the_callers_budget():
    """N(1)/1 is sym:4, whose orbit skeleton of 2-subgroups composes 2,239
    pairs: the normalizer-reduction check builds it within the budget of
    the cache it is given."""
    from plocal import BudgetExceeded
    G = build_group("sym:4")
    skel = build_orbit_skeletons(G, 2)
    over = re.escape("2239 composable pairs exceed budget 2238")
    with pytest.raises(BudgetExceeded, match=over):
        normalizer_reduction_check(skel, skel.p_reps[0], 0, 2, CohomologyCache(G, 2, 2238))
    assert normalizer_reduction_check(skel, skel.p_reps[0], 0, 2, CohomologyCache(G, 2, 2239))[0]


@pytest.mark.parametrize("p", [2, 3])
def test_upward_closure_is_the_per_sylow_rule_on_every_catalog_group(p, monkeypatch):
    """One rule over all poset members decides upward closure for the
    restriction and the filtration checks.  On every catalog group it agrees
    with the rule within one Sylow (``reference_omega``) on every set of
    skeleton classes, and so on each filtration stage's."""
    from itertools import combinations
    from reference_omega import upward_closed_in_sylow
    for spec in CATALOG:
        skel = build_orbit_skeletons(build_group(spec), p)
        n = len(skel.omega_reps)
        for size in range(n + 1):
            for classes in combinations(range(n), size):
                want = upward_closed_in_sylow(skel, classes)
                assert (limit_checks._first_outside_above(skel, classes) is None) == want
        asked = []  # (classes, rule's answer) of each stage's upward-closure test
        real = limit_checks._first_outside_above

        def spy(sk, objs):
            asked.append((list(objs), real(sk, objs)))
            return asked[-1][1]
        with monkeypatch.context() as m:
            m.setattr(limit_checks, "_first_outside_above", spy)
            stages = class_filtration_check(skel, 0, 1, cache_of(skel))[1]["stages"]
        objs = [c for c, flag in enumerate(skel.omega_centric) if flag]
        added = sorted((c for c, flag in enumerate(skel.omega_centric) if not flag),
                       key=lambda c: (-skel.omega_reps[c].order, skel.omega_reps[c].key))
        assert len(stages) == len(added) == len(asked)
        for stage, new, (stage_objs, outside) in zip(stages, added, asked):
            objs.append(new)
            assert stage["added"] == skel.omega_reps[new].label()
            assert stage_objs == sorted(objs), (spec, new)
            assert (outside is None) == upward_closed_in_sylow(skel, objs), (spec, new)


def test_supported_functor_zero_off_support():
    G = build_group("sym:3")
    skel = build_orbit_skeletons(G, 2)
    k = next(i for i, R in enumerate(skel.p_reps) if R.order == 1)
    F = supported_cohomology_functor(skel.p_cat, [k], 0, CohomologyCache(G, 2))
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
    return classifying_cohomology_functor(C, index, CohomologyCache(G, p))


def test_content_equal_functors_share_one_computation(monkeypatch):
    computed = count_computations(monkeypatch)
    F = cohomology_functor()
    sub, incl = full_subcategory(F.category, list(range(F.category.object_count)))
    twin = F.restrict(sub, incl)
    assert sub is not F.category and twin.entries is not F.entries
    assert np.array_equal(twin.entries, F.entries)
    memo: dict = {}
    first = limits_profile(F, 3, DEFAULT_BUDGET, memo)
    again = limits_profile(twin, 3, DEFAULT_BUDGET, memo)
    assert computed == [F] and len(memo) == 1
    assert again == first and again is not first
    # entries are reduced mod p: a functor built from entries + p has the content
    shifted = LinearFunctor(sub, F.prime, twin.dims, twin.entries + F.prime)
    assert limits_profile(shifted, 3, DEFAULT_BUDGET, memo) == first
    assert computed == [F]
    assert limits_profile(F, 3, DEFAULT_BUDGET, {}) == first and len(computed) == 2


def test_any_change_to_the_functor_or_the_call_misses(monkeypatch):
    computed = count_computations(monkeypatch)
    F = cohomology_functor()
    memo: dict = {}
    limits_profile(F, 3, DEFAULT_BUDGET, memo)
    t = next(t for t in range(F.category.morphism_count)
             if not F.category.is_id[t] and F.offsets[t + 1] > F.offsets[t])

    entry = LinearFunctor(F.category, F.prime, F.dims, F.entries.copy())
    entry.entries[entry.offsets[t]] = (entry.entries[entry.offsets[t]] + 1) % F.prime
    length = LinearFunctor(F.category, F.prime, F.dims, np.append(F.entries, 0))
    prime = LinearFunctor(F.category, 3, F.dims, F.entries)
    for variant in (entry, length, prime):
        try:
            limits_profile(variant, 3, DEFAULT_BUDGET, memo)
        except NotAFunctor:
            pass
        assert computed[-1] is variant
    limits_profile(F, 2, DEFAULT_BUDGET, memo)
    limits_profile(F, 3, 10 ** 6, memo)
    assert len(computed) == 6
    limits_profile(F, 3, DEFAULT_BUDGET, memo)
    assert len(computed) == 6


def test_failures_are_never_stored(monkeypatch):
    from plocal import BudgetExceeded
    computed = count_computations(monkeypatch)
    F = cohomology_functor()
    bad = LinearFunctor(F.category, F.prime, F.dims, F.entries[:-1])
    memo: dict = {}
    for _ in range(2):
        with pytest.raises(NotAFunctor):
            limits_profile(bad, 3, DEFAULT_BUDGET, memo)
        with pytest.raises(BudgetExceeded):
            limits_profile(F, 3, 5, memo)
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
            limits_profile(bad, 3, DEFAULT_BUDGET, memo)
    assert memo == {} and computed == [bad, bad]
    limits_profile(F, 3, DEFAULT_BUDGET, memo)
    assert len(memo) == 1


def test_an_object_without_an_identity_token_fails_cleanly():
    F = cohomology_functor()
    F.category.identity_ids[1] = -1
    memo: dict = {}
    with pytest.raises(PLocalError, match="object 1 has no identity token"):
        limits_profile(F, 3, DEFAULT_BUDGET, memo)
    assert memo == {}


def test_an_identity_token_that_is_not_a_loop_is_rejected():
    G = build_group("sym:4")
    C = build_orbit_skeletons(G, 2).p_cat
    F = classifying_cohomology_functor(C, 1, CohomologyCache(G, 2))
    t = next(t for t in range(C.morphism_count)
             if 0 < F.dims[C.src[t]] != F.dims[C.tgt[t]])
    C.identity_ids[C.src[t]] = t
    with pytest.raises(NotAFunctor, match=f"identity at object {C.src[t]} is not"):
        limits_profile(F, 3, DEFAULT_BUDGET, {})


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
            F = classifying_cohomology_functor(cat, i, cache)
            assert_store_matches(F, dims, mats)
            for k in everywhere:
                assert_store_matches(supported_cohomology_functor(cat, [k], i, cache),
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
    atomic_functor_limits(skel, module, 3, cache)
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
            fresh.append(normalizer_reduction_check(skel, R, i, cfg.max_limit_degree,
                                                    CohomologyCache(G, 2, cfg.budget))[1])
    assert records == fresh


def test_run_skeletons_reuse_the_runs_sylow_subgroups(monkeypatch):
    """A structure run enumerates the subgroups of a Sylow once; the
    skeletons built from that list have the classes and the Sylow of those
    built from the minimal-key Sylow's own subgroups."""
    from plocal import PipelineConfig, PipelineRun, pipeline
    calls = []
    real = limit_checks.all_subgroups

    def counted(S):
        calls.append(S.ids)
        return real(S)

    monkeypatch.setattr(limit_checks, "all_subgroups", counted)
    monkeypatch.setattr(pipeline, "all_subgroups", counted)
    G = build_group("sym:4 x cyc:2")
    checks = ("closure", "categories", "quotient", "adjunction")
    run = PipelineRun(G, PipelineConfig(prime=2, checks=checks, include_timings=False), "")
    verdicts = run.run().verdicts
    assert verdicts["category_laws"] == verdicts["closure_inclusion_adjunction"] == "pass"
    assert len(calls) == 1
    fresh = build_orbit_skeletons(G, 2, run.poset)
    assert len(calls) == 2
    assert [R.ids for R in run.skeletons.p_reps] == [R.ids for R in fresh.p_reps]
    assert run.skeletons.sylow == fresh.sylow


def test_pullbacks_are_computed_once_per_key(monkeypatch):
    """A run computes each pullback matrix once per (P, Q, i, g) and hands
    every caller the same read-only array."""
    from plocal import PipelineConfig, PipelineRun
    keys = []
    real = CohomologyBasis.pullback_matrix

    def counted(self, other, g):
        keys.append((self.P.ids, other.P.ids, self.i, g))
        return real(self, other, g)

    monkeypatch.setattr(CohomologyBasis, "pullback_matrix", counted)
    G = build_group("sym:3 x cyc:3")
    run = PipelineRun(G, PipelineConfig(prime=2, checks=LIMIT_CHECKS, include_timings=False),
                      "sym:3 x cyc:3")
    assert "fail" not in run.run().verdicts.values()
    assert len(keys) == len(set(keys)) > 0
    R = run.skeletons.p_reps[-1]
    M = run.cohomology_cache.pullback(R, R, 1, 0)
    assert M is run.cohomology_cache.pullback(R, R, 1, 0) and not M.flags.writeable
