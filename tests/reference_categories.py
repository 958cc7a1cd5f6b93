"""Exhaustive reference for the category-law check (``plocal.categories``).

``reference_verify_category`` is the law check that walks every composable
triple, one first token a at a time, as ``verify_category`` did before it
checked associativity only over a generating set of middle tokens.  Its
identity and closure checks are the same array comparisons; the coset rule
is ``verify_category``'s own ``_verify_coset_well_definedness``, which the
generating-set change left alone.  ``test_categories.py`` requires the two
checks to agree on ``passed``, ``associative`` and the set of failures on
every category the pipeline builds, and on ``associative`` under injected
faults.
"""

from __future__ import annotations

import numpy as np

from plocal.categories import CategoryLawsVerdict, _verify_coset_well_definedness


def reference_verify_category(C) -> CategoryLawsVerdict:
    tok = np.arange(C.morphism_count)
    ident = np.asarray(C.identity_ids, dtype=np.int64)
    failures = [f"object {i} has no identity" for i in np.flatnonzero(ident < 0).tolist()]
    for side, e in (("left", ident[C.src]), ("right", ident[C.tgt])):
        t, e = tok[e >= 0], e[e >= 0]
        got = C.composites(e, t) if side == "left" else C.composites(t, e)
        failures += [f"{side} identity fails at token {x}" for x in t[got != t].tolist()]
    identities = not failures

    t1, t2 = C.pairs()
    comp = C.composite
    safe = np.where(comp >= 0, comp, 0)
    inside = (comp >= 0) & (C.src[safe] == C.src[t1]) & (C.tgt[safe] == C.tgt[t2])
    closed = bool(inside.all())
    for k in np.flatnonzero(~inside).tolist():
        where = f"({t1[k]},{t2[k]})"
        failures.append(f"composite {where} is not filled" if comp[k] < 0 else
                        f"composite {where} lands outside Mor({C.src[t1[k]]},{C.tgt[t2[k]]})")

    # the triples (a, b, c) with first token a run over the slots (b, c) of
    # the tokens b leaving a's target; a slot holds b's place j in its block,
    # c's place in its block and, once inside, (b c)'s place in b's block
    ps, first = C.pair_start, C.first
    j, c_at, bc_at = t1 - first[C.src[t1]], t2 - first[C.src[t2]], comp - first[C.src[t1]]
    before, triples = len(failures), 0
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
    associative = len(failures) == before

    well_defined = _verify_coset_well_definedness(C, failures)
    return CategoryLawsVerdict(
        associative, identities, closed, well_defined, triples, failures
    )
