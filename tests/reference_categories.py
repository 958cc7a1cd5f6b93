"""Exhaustive references for the category-law check (``plocal.categories``).

``reference_verify_category`` is the law check that walks every composable
triple, one first token a at a time, as ``verify_category`` did before it
checked associativity only over a generating set of middle tokens.  Its
identity and closure checks are the same array comparisons; the coset rule
is ``reference_coset_well_definedness``, the check ``verify_category`` made
before it read least elements from tables: it expands every coset element
by element (``reference_cosets``) and tests every product of
representatives of two composable cosets for membership in the composite's
coset.  ``test_categories.py`` requires the checks to agree on ``passed``,
the laws that fail, told apart by their failure prefixes, and the failures
on every category the pipeline builds, and under injected faults.

``reference_coset_tokens`` is the token list ``_fill_cosets`` made before
it took the witnesses as the listed elements that are their own coset's
least element: every transporter element's least element, then one
``np.unique`` over (object pair, witness).

``reference_coset_category`` is the coset category as ``coset_category``
built it before it built only the skeleton: every coset Pg an object, each
labelled by its conjugate P^g, so that ``skeleton`` of it can be compared
with ``coset_category`` object for object.

``reference_verify_quotient_functor`` is the quotient-functor check as
per-object and per-token loops over sets, as it was before it became array
comparisons over the token arrays: kernels are the automorphisms mapped to an
identity, each one's order found by composing it with itself one store
lookup at a time.  The tests require the same failed conditions, kernel
orders and failures from both checks.

``reference_verify_closure_adjunction`` is the adjunction check as it was
while it built two orbit categories: one on the test subgroups and members,
composed by the coset rule, and Ω = ``build_orbit`` on the members, whose
whole composition store it read for the squares and whose pair count it
held to the budget.  It compares Mor(P, Q) with Mor(P°, Q) one pair at a
time.  The tests require the same ``pairs_checked`` and failures from both
checks.
"""

from __future__ import annotations

import numpy as np

from plocal.categories import (
    _BLOCK,
    AdjunctionVerdict,
    CategoryLawsVerdict,
    FiniteCategory,
    QuotientFunctorVerdict,
    _expand,
    _fill_cosets,
    _flat,
    _offsets,
    build_orbit,
    iso_classes,
)
from plocal.errors import DEFAULT_BUDGET, BudgetExceeded, PLocalError
from plocal.groups import transporters
from plocal.omega import closure_in_poset
from reference_groups import conjugate


def _blocks(counts: np.ndarray) -> list[slice]:
    """Runs of consecutive entries, a new run wherever the running total of
    counts passes a multiple of ``_BLOCK``."""
    run = _offsets(counts)[:-1] // _BLOCK
    cuts = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), len(counts)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def reference_cosets(C, i, j, g) -> tuple[np.ndarray, np.ndarray]:
    """The cosets left[i]·g·right[j] a witness g from object i to object j
    stands for, elementwise over broadcast id arrays: their elements laid
    end to end (with repeats where the two sides overlap), and the offset
    of each coset with the total appended."""
    i, j, g = (np.ravel(a) for a in np.broadcast_arrays(i, j, g))
    (kids, kat, kn), (qids, qat, qn) = (_flat([H.ids for H in side]) for side in (C.left, C.right))
    row, pos, offs = _expand(kn[i] * qn[j])
    i, j, g = i[row], j[row], g[row]
    mul = C.group.mul
    return mul[kids[kat[i] + pos // qn[j]], mul[g, qids[qat[j] + pos % qn[j]]]], offs


def reference_least(C, i, j, g) -> np.ndarray:
    """The least element of each coset left[i]·g·right[j], from its
    expansion."""
    elems, offs = reference_cosets(C, i, j, g)
    return np.minimum.reduceat(elems, offs[:-1])


def reference_coset_tokens(C) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``src``, ``tgt`` and ``witness`` of one token per coset of C's
    transporter elements, by sorting the least element of every element's
    coset."""
    m, n = C.object_count, C.group.order
    pair, g = np.divmod(np.flatnonzero(transporters(C.group, C.objects, C.objects)), n)
    witness = C.canonicals(pair // m, pair % m, g)
    pair, witness = np.divmod(np.unique(pair * n + witness), n)
    src, tgt = np.divmod(pair, m)
    return src, tgt, witness


def reference_coset_well_definedness(C, failures: list[str]) -> None:
    """Append a failure unless each witness is the least element of its
    expanded coset and, for every filled composable pair, every product of
    representatives of the two cosets is, by a sorted-key search, an element
    of the composite's coset."""
    if C.left is None:
        return
    witness = C.witness
    elems, offs = reference_cosets(C, C.src, C.tgt, witness)
    bad = np.minimum.reduceat(elems, offs[:-1]) != witness
    failures += [f"witness of token {t} is not the least of its coset"
                 for t in np.flatnonzero(bad).tolist()]
    # membership in a token's coset, by the key token * |G| + element
    n, size = C.group.order, np.diff(offs)
    members = np.sort(np.repeat(np.arange(C.morphism_count), size) * n + elems)
    t1, t2 = C.pairs()
    filled = C.composite >= 0
    t1, t2, t3 = t1[filled], t2[filled], C.composite[filled]
    broken = []
    for blk in _blocks(size[t1] * size[t2]):
        a, b, c = t1[blk], t2[blk], t3[blk]
        pair, pos, _ = _expand(size[a] * size[b])
        x = elems[offs[a[pair]] + pos // size[b[pair]]]
        y = elems[offs[b[pair]] + pos % size[b[pair]]]
        key = c[pair] * n + C.group.mul[x, y]
        at = np.searchsorted(members, key).clip(max=len(members) - 1)
        broken.append(blk.start + np.unique(pair[members[at] != key]))
    broken = np.concatenate(broken or [np.zeros(0, dtype=np.int64)])
    failures += [f"representative shift breaks composite ({t1[k]},{t2[k]})"
                 for k in broken.tolist()]


def reference_verify_category(C) -> CategoryLawsVerdict:
    tok = np.arange(C.morphism_count)
    ident = np.asarray(C.identity_ids, dtype=np.int64)
    failures = [f"object {i} has no identity" for i in np.flatnonzero(ident < 0).tolist()]
    for side, e in (("left", ident[C.src]), ("right", ident[C.tgt])):
        t, e = tok[e >= 0], e[e >= 0]
        got = C.composites(e, t) if side == "left" else C.composites(t, e)
        failures += [f"{side} identity fails at token {x}" for x in t[got != t].tolist()]

    t1, t2 = C.pairs()
    comp = C.composite
    safe = np.where(comp >= 0, comp, 0)
    inside = (comp >= 0) & (C.src[safe] == C.src[t1]) & (C.tgt[safe] == C.tgt[t2])
    for k in np.flatnonzero(~inside).tolist():
        where = f"({t1[k]},{t2[k]})"
        failures.append(f"composite {where} is not filled" if comp[k] < 0 else
                        f"composite {where} lands outside Mor({C.src[t1[k]]},{C.tgt[t2[k]]})")

    # the triples (a, b, c) with first token a run over the slots (b, c) of
    # the tokens b leaving a's target; a slot holds b's place j in its block,
    # c's place in its block and, once inside, (b c)'s place in b's block
    ps, first = C.pair_start, C.first
    j, c_at, bc_at = t1 - first[C.src[t1]], t2 - first[C.src[t2]], comp - first[C.src[t1]]
    triples = 0
    for a in range(C.morphism_count):
        obj = C.tgt[a]
        run = slice(ps[first[obj]], ps[first[obj + 1]])
        ab = ps[a] + j[run]
        ok = inside[run] & inside[ab]
        bad = ~ok
        lhs = comp[ps[comp[ab[ok]]] + c_at[run][ok]]
        bad[ok] = (lhs < 0) | (lhs != comp[ps[a] + bc_at[run][ok]])
        triples += len(ab)
        failures += [f"associativity fails at ({a},{t1[run][k]},{t2[run][k]})"
                     for k in np.flatnonzero(bad).tolist()]
    reference_coset_well_definedness(C, failures)
    return CategoryLawsVerdict(triples, failures)


def stored(C, t1: int, t2: int) -> int:
    """The store's entry for the composable tokens t1 then t2; -1 if unfilled."""
    return int(C.composite[C.pair_start[t1] + t2 - C.first[C.src[t2]]])


def compose(C, t1: int, t2: int) -> int:
    """The stored composite of the composable tokens t1 then t2."""
    t = stored(C, t1, t2)
    if t < 0:
        raise PLocalError(f"composite of tokens ({t1},{t2}) is not filled")
    return t


def reference_verify_quotient_functor(psi, p: int) -> QuotientFunctorVerdict:
    C, D = psi.source, psi.target
    image = psi.morphism_map
    failures: list[str] = []

    src_class_of, src_classes = iso_classes(C)
    tgt_class_of, tgt_classes = iso_classes(D)
    image_classes = [tgt_class_of[psi.object_map[cls[0]]] for cls in src_classes]
    injective = len(set(image_classes)) == len(image_classes)
    surjective_classes = set(image_classes) == set(range(len(tgt_classes)))
    for cls in src_classes:
        imgs = {tgt_class_of[psi.object_map[i]] for i in cls}
        if len(imgs) != 1:
            injective = False
            failures.append("isomorphic objects map to non-isomorphic objects")
    if not (injective and surjective_classes):
        failures.append("not bijective on isomorphism classes")

    for i in range(C.object_count):
        for j in range(C.object_count):
            hit = {image[t] for t in C.mor(i, j)}
            want = set(D.mor(psi.object_map[i], psi.object_map[j]))
            if hit != want:
                failures.append(f"morphism map not surjective on Mor({i},{j})")

    kernels: list[list[int]] = []
    for i in range(C.object_count):
        ident_img = D.identity_ids[psi.object_map[i]]
        one, ends = C.identity_ids[i], C.mor(i, i)
        autos = [t for t in ends
                 if any(stored(C, t, s) == one and stored(C, s, t) == one for s in ends)]
        K = [t for t in autos if image[t] == ident_img]
        kernels.append(K)
        for t in K:
            k, cur = 1, t
            while cur != one:
                cur = compose(C, cur, t)
                k += 1
                if k > len(ends) + 1:
                    raise PLocalError(f"endomorphism token {t} is not invertible")
            if k % p == 0:
                failures.append(f"kernel element at object {i} has order divisible by {p}")

    for i in range(C.object_count):
        K = kernels[i]
        for j in range(C.object_count):
            toks = C.mor(i, j)
            for f in toks:
                orbit = {compose(C, s, f) for s in K}
                fiber = {g for g in toks if image[g] == image[f]}
                if orbit != fiber:
                    failures.append(f"fiber of token {f} is not a kernel orbit")
    return QuotientFunctorVerdict([len(K) for K in kernels], failures)


def reference_coset_category(G, collection) -> FiniteCategory:
    """The whole coset category, every coset built: the cosets Pg for P in
    the collection, each named by its least element g and labelled by its
    conjugate P^g, with exactly one morphism Pg -> Qh when P^g <= Q^h,
    witnessed by -1.  ``coset_category`` builds its skeleton instead."""
    objs = [(k, r) for k, P in enumerate(collection)
            for r in np.unique(G.mul[list(P.ids)].min(axis=0)).tolist()]
    cat = FiniteCategory("coset", [conjugate(collection[k], r) for k, r in objs], G)
    conj = [frozenset(H.ids) for H in cat.objects]
    src, tgt = np.nonzero(np.array([[a <= b for b in conj] for a in conj], dtype=bool))
    tok = np.full((len(objs), len(objs)), -1, dtype=np.int64)
    tok[src, tgt] = np.arange(len(src))
    cat.set_tokens(src, tgt, np.full(len(src), -1), np.diag(tok))
    t1, t2 = cat.pairs()
    cat.composite = tok[cat.src[t1], cat.tgt[t2]]
    return cat


def reference_verify_closure_adjunction(poset, test_subgroups,
                                        table_budget: int = DEFAULT_BUDGET) -> AdjunctionVerdict:
    G = poset.group
    failures: list[str] = []
    members = poset.members
    collection = sorted({H.ids: H for H in list(test_subgroups) + members}.values(),
                        key=lambda H: H.key)
    big = FiniteCategory("orbit", collection, G)
    big.left = [G.trivial_subgroup()] * big.object_count
    big.right = big.objects
    _fill_cosets(big)
    omega = build_orbit(G, members, table_budget)
    big_idx = {H.ids: i for i, H in enumerate(collection)}
    om_idx = {H.ids: i for i, H in enumerate(members)}
    clos = {P.ids: closure_in_poset(poset, P) for P in test_subgroups}

    for P in test_subgroups:
        for Q in members:
            reps_big = big.witness[big.mor(big_idx[P.ids], big_idx[Q.ids])]
            reps_om = omega.witness[omega.mor(om_idx[clos[P.ids].ids], om_idx[Q.ids])]
            if not np.array_equal(np.sort(reps_big), np.sort(reps_om)):
                failures.append(f"morphism sets differ for P={P.label()}, Q={Q.label()}")

    # naturality, per test subgroup P: postcomposition of phi: P° -> Q of
    # omega, identified with phi_big: P -> Q of big, with every m: Q -> Q2
    # of omega; precomposition of phi_big with every u: P' -> P of big
    # between test subgroups, against phi after the closure of u
    w_big, w_om = big.witness, omega.witness
    big_of = np.array([big_idx[M.ids] for M in members], dtype=np.int64)
    om_of = np.full(big.object_count, -1, dtype=np.int64)
    for P in test_subgroups:
        om_of[big_idx[P.ids]] = om_idx[clos[P.ids].ids]
    lift = big.tokens_of(big_of[omega.src], big_of[omega.tgt], w_om)
    if (lift < 0).any():
        raise PLocalError("a morphism between members is missing from the larger orbit category")
    om_next = omega.pairs()[1]

    def differ(t_big, t_om):
        return (t_big < 0) | (t_om < 0) | (w_big[t_big] != w_om[t_om])

    tgt_failures, src_failures = [], []
    for P in test_subgroups:
        iP, iPc = big_idx[P.ids], om_of[big_idx[P.ids]]
        phi = np.arange(omega.first[iPc], omega.first[iPc + 1])
        phi_big = big.tokens_of(iP, big_of[omega.tgt[phi]], w_om[phi])
        found = phi_big >= 0
        phi, phi_big = phi[found], phi_big[found]
        u = np.flatnonzero((om_of[big.src] >= 0) & (big.tgt == iP))
        iu = om_of[big.src[u]]
        uc = omega.tokens_of(iu, iPc, omega.canonicals(iu, iPc, w_big[u]))
        closed = uc >= 0
        u, uc = u[closed, None], uc[closed, None]
        if len(u) * len(phi_big) > table_budget:
            raise BudgetExceeded(None, len(u) * len(phi_big), table_budget, "precomposition")
        k, pos, _ = _expand(np.diff(omega.pair_start)[phi])
        slot = omega.pair_start[phi[k]] + pos
        post = differ(big.coset_composites(phi_big[k], lift[om_next[slot]]),
                      omega.composite[slot])
        pre = differ(big.coset_composites(u, phi_big), omega.composites(uc, phi))
        missing = int((~found).sum())
        tgt_failures += (["identification misses a morphism"] * missing
                         + ["postcomposition square fails"] * int(post.sum()))
        src_failures += (["closure of a morphism is missing"] * int((~closed).sum())
                         + ["identification misses a morphism"] * (missing * len(u))
                         + ["precomposition square fails"] * int(pre.sum()))
    failures += tgt_failures + src_failures
    return AdjunctionVerdict(len(test_subgroups) * len(members), failures)
