"""References for the centricity code (``plocal.omega``) that only tests read.

``centric_subgroups`` lists the centric subgroups of a collection, and
``verify_centric_decomposition`` checks the splitting of the centralizer of
a centric subgroup that the linking category relies on.
"""

from __future__ import annotations

from plocal.groups import center, centralizer
from plocal.omega import classify_centric


def centric_subgroups(G, p: int, collection) -> list:
    """The subgroups of the collection that ``classify_centric`` marks
    p-centric, in its order."""
    table = classify_centric(G, p, collection)
    return [H for H in collection if table[H.ids]]


def verify_centric_decomposition(G, p: int, P, K) -> bool:
    """For P centric with K = O^p(C_G(P)): C_G(P) = Z(P) x K as an internal
    direct product."""
    Z, C = center(P), centralizer(G, P)
    if len(Z.idset & K.idset) != 1:
        return False
    if K.order % p == 0:
        return False
    if Z.order * K.order != C.order:
        return False
    for z in Z.generating_ids:
        for k in K.generating_ids:
            if G.mult(z, k) != G.mult(k, z):
                return False
    return G.generated_subgroup(Z.ids + K.ids).ids == C.ids


def upward_closed_in_sylow(skel, classes) -> bool:
    """Whether the poset members of the listed orbit-skeleton classes are
    closed under overgroups, checked only on pairs a <= b of members of the
    skeleton's Sylow subgroup: the rule the filtration check used before it
    shared one rule over all members with the restriction check."""
    present = set(classes)
    poset, member_class = skel.poset, skel.member_class
    in_sylow = set(poset.members_in(skel.sylow))
    return not any(
        member_class[a] in present and member_class[b] not in present
        for a in in_sylow for b in poset.leq[a] if b in in_sylow
    )
