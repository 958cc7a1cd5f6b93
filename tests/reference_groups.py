"""Scalar references for the group code (``plocal.groups``) and the coset rule.

These are the element loops that the array filters over the multiplication
table replaced: transporter sets, centralizers, normalizers, centers,
conjugacy orbits of subgroups and the cosets a category's witnesses stand
for; p-residuals, closed over every element of order prime to p; the
subgroup lattice of a subgroup, by bottom-up closure; and the
centricity rule; and the conjugates H^g and inverses of single elements,
which only tests use.  Every product here is a product of ``Permutation``
objects, looked up by ``element_id`` in the group's enumeration; nothing
reads ``PermutationGroup.mul``.
Ids are returned as plain sorted tuples, to compare with ``Subgroup.ids``;
only ``conjugate`` returns a ``Subgroup``, to build categories from.
"""

from __future__ import annotations

import functools

from plocal.errors import InvalidPermutation
from plocal.groups import Subgroup
from plocal.perm import Permutation


@functools.cache
def _enumeration(G) -> dict[tuple[int, ...], int]:
    return {e.images: i for i, e in enumerate(G.elements)}


def element_id(G, perm) -> int:
    """The id of a permutation in G's enumeration."""
    try:
        return _enumeration(G)[perm.images]
    except KeyError:
        raise InvalidPermutation(f"{perm} is not an element of this group") from None


def product(G, a: int, b: int) -> int:
    return element_id(G, G.elements[a] * G.elements[b])


def inverse(perm: Permutation) -> Permutation:
    inv = [0] * perm.degree
    for i, j in enumerate(perm.images):
        inv[j] = i
    return Permutation(tuple(inv))


@functools.cache
def conjugation_table(G) -> tuple[tuple[int, ...], ...]:
    """``table[g][x]`` is x^g = g^-1 x g."""
    e = G.elements
    return tuple(
        tuple(element_id(G, inverse(e[g]) * x * e[g]) for x in e) for g in range(G.order)
    )


def conjugate(H, g: int) -> Subgroup:
    """H^g = g^-1 H g, a subgroup of H's parent."""
    ct = conjugation_table(H.parent)
    return Subgroup(H.parent, [ct[g][x] for x in H.ids])


def transporter_set(G, P, Q) -> tuple[int, ...]:
    """N_G(P, Q): the g with x^g in Q for every x in P."""
    ct = conjugation_table(G)
    return tuple(g for g in range(G.order) if all(ct[g][x] in Q.idset for x in P.ids))


def normalizer(G, P) -> tuple[int, ...]:
    return transporter_set(G, P, P)


def centralizer(G, P) -> tuple[int, ...]:
    ct = conjugation_table(G)
    return tuple(g for g in range(G.order) if all(ct[g][x] == x for x in P.ids))


def center(P) -> tuple[int, ...]:
    ct = conjugation_table(P.parent)
    return tuple(z for z in P.ids if all(ct[z][x] == x for x in P.ids))


def _closure(G, seeds) -> tuple[int, ...]:
    """The subgroup of G generated by the given ids, closed from the identity."""
    members, frontier = {0}, [0]
    while frontier:
        new = [product(G, e, s) for e in frontier for s in seeds]
        frontier = [f for f in dict.fromkeys(new) if f not in members]
        members.update(frontier)
    return tuple(sorted(members))


def p_residual(H, p: int) -> tuple[int, ...]:
    """O^p(H): the closure of every element of H of order prime to p."""
    G = H.parent
    return _closure(G, [x for x in H.ids if G.elements[x].order() % p])


def all_subgroups(S) -> list[tuple[int, ...]]:
    """Every subgroup of S, sorted by (order, ids): bottom up, each subgroup
    found is closed from the identity with every element of it and one
    element of S outside it as generators, once for every such element."""
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        new = []
        for H in frontier:
            for x in S.ids:
                if x not in H:
                    E = _closure(S.parent, H + (x,))
                    if E not in found:
                        found.add(E)
                        new.append(E)
        frontier = new
    return sorted(found, key=lambda ids: (len(ids), ids))


def is_centric(G, p: int, P) -> bool:
    """Whether Z(P) is a Sylow p-subgroup of C_G(P)."""
    return (len(centralizer(G, P)) // len(center(P))) % p != 0


def conjugates(G, H) -> list[tuple[int, ...]]:
    """The distinct conjugates of H, sorted."""
    ct = conjugation_table(G)
    return sorted({tuple(sorted(ct[g][x] for x in H.ids)) for g in range(G.order)})


def coset(C, i: int, j: int, g: int) -> set[int]:
    """The elements left[i]·g·right[j] that a witness g from object i to
    object j of a category built from G stands for."""
    G = C.group
    e = G.elements
    return {
        element_id(G, e[k] * e[g] * e[q]) for k in C.left[i].ids for q in C.right[j].ids
    }
