"""Scalar references for the group code (``plocal.groups``) and the coset rule.

These are the element loops that the array filters over the multiplication
table replaced: transporter sets, centralizers, normalizers, centers,
conjugacy orbits of subgroups and the cosets a category's witnesses stand
for; p-residuals, closed over every element of order prime to p; and the
centricity rule.  Every product here is a product of ``Permutation``
objects, looked up by ``element_id`` in the group's enumeration; nothing
reads ``PermutationGroup.mul``.
Ids are returned as plain sorted tuples, to compare with ``Subgroup.ids``.
"""

from __future__ import annotations

import functools

from plocal.errors import InvalidPermutation


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


@functools.cache
def conjugation_table(G) -> tuple[tuple[int, ...], ...]:
    """``table[g][x]`` is x^g = g^-1 x g."""
    e = G.elements
    return tuple(
        tuple(element_id(G, e[g].inverse() * x * e[g]) for x in e) for g in range(G.order)
    )


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


def p_residual(H, p: int) -> tuple[int, ...]:
    """O^p(H): the closure of every element of H of order prime to p."""
    G = H.parent
    seeds = [x for x in H.ids if G.elements[x].order() % p]
    members, frontier = {0}, [0]
    while frontier:
        new = [product(G, e, s) for e in frontier for s in seeds]
        frontier = [f for f in dict.fromkeys(new) if f not in members]
        members.update(frontier)
    return tuple(sorted(members))


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
