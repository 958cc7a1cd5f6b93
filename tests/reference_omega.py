"""References for the centricity code (``plocal.omega``) that only tests read.

``centric_subgroups`` lists a centricity table's centric subgroups, and
``verify_centric_decomposition`` checks the splitting of the centralizer of
a centric subgroup that the linking category relies on.
"""

from __future__ import annotations


def centric_subgroups(table) -> list:
    """The subgroups of a ``CentricityTable`` marked p-centric, in its order."""
    return [r.subgroup for r in table.records if r.is_centric]


def verify_centric_decomposition(G, p: int, rec) -> bool:
    """For centric P: C_G(P) = Z(P) x O^p(C_G(P)) as an internal direct product."""
    if not rec.is_centric:
        return True
    Z, K, C = rec.center, rec.residual, rec.centralizer
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
