"""Exact arithmetic for finite permutation groups.

Everything is enumerated: a group stores its full element list in a canonical
order (lexicographic on image arrays), subgroups are explicit sorted id sets,
and centralizers / normalizers / transporter sets are computed as element
filters.  Conjugation is on the right, ``x^g = g^-1 x g``, which makes
``(P^g)^h = P^(g h)`` and lets transporter elements compose left to right.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPermutation, OrderBoundExceeded, PLocalError
from .perm import Permutation

DEFAULT_ORDER_BOUND = 10_000

# full multiplication tables are kept for groups up to this order
_MULT_TABLE_MAX_ORDER = 512


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PermutationGroup:
    """A finite permutation group with every element enumerated.

    ``elements`` is sorted lexicographically on image arrays, so the identity
    always has id 0 and any "minimal element of a coset" choice downstream is
    reproducible.  ``words[i]`` is a generator word reaching element i, used
    to propagate matrix representations.
    """

    def __init__(self, degree: int, generators, order_bound: int = DEFAULT_ORDER_BOUND):
        if degree < 1:
            raise InvalidPermutation("degree must be >= 1")
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Permutation) or g.degree != degree:
                raise InvalidPermutation(f"generator {g!r} does not act on {degree} points")
        self.degree = degree
        self.generators = gens

        ident = Permutation.identity(degree)
        words: dict[tuple[int, ...], tuple[int, ...]] = {ident.images: ()}
        frontier = [ident]
        while frontier:
            new = []
            for e in frontier:
                for k, s in enumerate(gens):
                    f = e * s
                    if f.images not in words:
                        words[f.images] = words[e.images] + (k,)
                        if len(words) > order_bound:
                            raise OrderBoundExceeded(order_bound)
                        new.append(f)
            frontier = new

        self.elements: tuple[Permutation, ...] = tuple(
            Permutation(im) for im in sorted(words)
        )
        self.order = len(self.elements)
        self._index = {e.images: i for i, e in enumerate(self.elements)}
        self.words: tuple[tuple[int, ...], ...] = tuple(
            words[e.images] for e in self.elements
        )
        self.identity_id = self._index[ident.images]
        if self.identity_id != 0:
            raise PLocalError("the identity is not the first element in sorted order")

        self.inverse_ids = tuple(
            self._index[e.inverse().images] for e in self.elements
        )
        self.element_orders = tuple(e.order() for e in self.elements)
        self._mult: list[tuple[int, ...]] | None = None
        if self.order <= _MULT_TABLE_MAX_ORDER:
            idx = self._index
            els = self.elements
            self._mult = [
                tuple(idx[(a * b).images] for b in els) for a in els
            ]

    # -- element arithmetic on ids ------------------------------------

    def mult(self, i: int, j: int) -> int:
        if self._mult is not None:
            return self._mult[i][j]
        return self._index[(self.elements[i] * self.elements[j]).images]

    def inv(self, i: int) -> int:
        return self.inverse_ids[i]

    def conj(self, x: int, g: int) -> int:
        """Right conjugation x^g = g^-1 x g."""
        return self.mult(self.mult(self.inverse_ids[g], x), g)

    def power(self, i: int, k: int) -> int:
        out = 0
        for _ in range(k):
            out = self.mult(out, i)
        return out

    def element_id(self, perm: Permutation) -> int:
        try:
            return self._index[perm.images]
        except KeyError:
            raise InvalidPermutation(f"{perm} is not an element of this group") from None

    def contains(self, perm: Permutation) -> bool:
        return perm.images in self._index

    # -- subgroups -----------------------------------------------------

    def subgroup_closure(self, seed_ids) -> tuple[int, ...]:
        """Ids of the subgroup generated by the given element ids."""
        members = {0}
        frontier = [0]
        gens = sorted(set(seed_ids))
        while frontier:
            new = []
            for e in frontier:
                for s in gens:
                    f = self.mult(e, s)
                    if f not in members:
                        members.add(f)
                        new.append(f)
            frontier = new
        return tuple(sorted(members))

    def subgroup(self, ids, validate: bool = False) -> "Subgroup":
        return Subgroup(self, ids, validate=validate)

    def generated_subgroup(self, seed_ids) -> "Subgroup":
        return Subgroup(self, self.subgroup_closure(seed_ids))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)))


class Subgroup:
    """A subgroup of an enumerated group, stored as explicit sorted element ids."""

    __slots__ = ("parent", "ids", "idset", "_gens")

    def __init__(self, parent: PermutationGroup, ids, validate: bool = False):
        self.parent = parent
        self.ids: tuple[int, ...] = tuple(sorted(set(ids)))
        self.idset = frozenset(self.ids)
        self._gens: tuple[int, ...] | None = None
        if validate:
            if 0 not in self.idset:
                raise InvalidPermutation("subgroup must contain the identity")
            for a in self.ids:
                if parent.inv(a) not in self.idset:
                    raise InvalidPermutation("subgroup not closed under inverse")
                for b in self.ids:
                    if parent.mult(a, b) not in self.idset:
                        raise InvalidPermutation("subgroup not closed under product")

    @property
    def order(self) -> int:
        return len(self.ids)

    @property
    def key(self) -> tuple:
        """Canonical sort key: (order, sorted ids)."""
        return (len(self.ids), self.ids)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.ids == self.ids
        )

    def __hash__(self) -> int:
        return hash(self.ids)

    def __le__(self, other: "Subgroup") -> bool:
        return self.idset <= other.idset

    def __lt__(self, other: "Subgroup") -> bool:
        return self.idset < other.idset

    @property
    def generating_ids(self) -> tuple[int, ...]:
        """A small generating set, chosen greedily in canonical element order."""
        if self._gens is None:
            gens: list[int] = []
            span = {0}
            for e in self.ids:
                if e not in span:
                    gens.append(e)
                    span = set(self.parent.subgroup_closure(gens))
                    if len(span) == len(self.ids):
                        break
            self._gens = tuple(gens)
        return self._gens

    def conjugate(self, g: int) -> "Subgroup":
        G = self.parent
        return Subgroup(G, tuple(sorted(G.conj(x, g) for x in self.ids)))

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.parent, tuple(sorted(self.idset & other.idset)))

    def is_p_group(self, p: int) -> bool:
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

    def label(self) -> str:
        """Readable label from a minimal generating set, e.g. ``<(1 2),(3 4)>``."""
        if self.order == 1:
            return "<()>"
        gens = ",".join(
            self.parent.elements[g].cycle_string() for g in self.generating_ids
        )
        return f"<{gens}>"

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, {self.label()})"


# -- spec operations on groups and subgroups -------------------------------


def generate_group(degree: int, generators, order_bound: int = DEFAULT_ORDER_BOUND) -> PermutationGroup:
    """Enumerate the group generated by the given permutations."""
    return PermutationGroup(degree, generators, order_bound=order_bound)


def conjugate_subgroup(P: Subgroup, g: int) -> Subgroup:
    if g < 0 or g >= P.parent.order:
        raise InvalidPermutation(f"element id {g} outside the parent group")
    return P.conjugate(g)


def centralizer(G: PermutationGroup, P: Subgroup) -> Subgroup:
    """C_G(P): elements commuting with every member of P.

    Commuting with a generating set of P suffices.
    """
    gens = P.generating_ids
    ids = [
        g
        for g in range(G.order)
        if all(G.mult(g, x) == G.mult(x, g) for x in gens)
    ]
    return Subgroup(G, tuple(ids))


def normalizer(G: PermutationGroup, P: Subgroup) -> Subgroup:
    ids = [
        g
        for g in range(G.order)
        if all(G.conj(x, g) in P.idset for x in P.generating_ids)
    ]
    return Subgroup(G, tuple(ids))


def center(P: Subgroup) -> Subgroup:
    G = P.parent
    gens = P.generating_ids
    ids = [
        x
        for x in P.ids
        if all(G.mult(x, y) == G.mult(y, x) for y in gens)
    ]
    return Subgroup(G, tuple(ids))


def transporter_set(G: PermutationGroup, P: Subgroup, Q: Subgroup) -> tuple[int, ...]:
    """N_G(P, Q) = {g : P^g <= Q}, as a sorted tuple of element ids."""
    gens = P.generating_ids if P.order > 1 else ()
    out = [
        g
        for g in range(G.order)
        if all(G.conj(x, g) in Q.idset for x in gens)
    ]
    return tuple(out)


def p_residual(H: Subgroup, p: int) -> Subgroup:
    """O^p(H): the subgroup generated by all elements of H of order prime to p."""
    G = H.parent
    seeds = [x for x in H.ids if G.element_orders[x] % p != 0]
    if not seeds:
        return G.trivial_subgroup()
    return G.generated_subgroup(seeds)


def _is_p_element(G: PermutationGroup, g: int, p: int) -> bool:
    n = G.element_orders[g]
    while n % p == 0:
        n //= p
    return n == 1


def sylow_subgroup(G: PermutationGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, built by normalizer ascent.

    While |P| is short of the p-part of |G|, the normalizer N_G(P) contains a
    p-element outside P whose image in N_G(P)/P has order p; adjoining it
    multiplies the order by p.  Correctness is certified by the final order
    check against the p-part.
    """
    target = p_part(G.order, p)
    P = G.trivial_subgroup()
    while P.order < target:
        N = normalizer(G, P)
        pick = None
        for g in N.ids:
            if g in P.idset or not _is_p_element(G, g, p):
                continue
            if G.power(g, p) in P.idset:
                pick = g
                break
        if pick is None:
            # any p-element of N outside P still extends P to a larger p-group
            for g in N.ids:
                if g not in P.idset and _is_p_element(G, g, p):
                    pick = g
                    break
        if pick is None:
            raise PLocalError("normalizer ascent stalled below the p-part")
        P = G.generated_subgroup(P.ids + (pick,))
    if P.order != target:
        raise PLocalError(f"normalizer ascent reached order {P.order}, not {target}")
    return P


def is_sylow(G: PermutationGroup, S: Subgroup, p: int) -> bool:
    return S.is_p_group(p) and S.order == p_part(G.order, p)


def sylow_conjugates(G: PermutationGroup, S: Subgroup) -> list[Subgroup]:
    """The full deduplicated list {S^g : g in G}, canonically sorted."""
    seen: dict[tuple[int, ...], Subgroup] = {}
    for g in range(G.order):
        T = S.conjugate(g)
        if T.ids not in seen:
            seen[T.ids] = T
    return [seen[k] for k in sorted(seen)]


def all_subgroups(S: Subgroup) -> list[Subgroup]:
    """Every subgroup of S, by bottom-up closure; canonically sorted.

    Intended for small S (Sylow subgroups at desk scale).
    """
    G = S.parent
    found: dict[tuple[int, ...], Subgroup] = {}
    triv = G.trivial_subgroup()
    found[triv.ids] = triv
    frontier = [triv]
    while frontier:
        new = []
        for H in frontier:
            for x in S.ids:
                if x in H.idset:
                    continue
                E = G.generated_subgroup(H.ids + (x,))
                if E.ids not in found:
                    found[E.ids] = E
                    new.append(E)
        frontier = new
    return [found[k] for k in sorted(found, key=lambda ids: (len(ids), ids))]


def direct_product(A: PermutationGroup, B: PermutationGroup,
                   order_bound: int = DEFAULT_ORDER_BOUND) -> PermutationGroup:
    """A x B acting on the disjoint union of the two point sets."""
    n, m = A.degree, B.degree
    gens = []
    for g in A.generators:
        gens.append(Permutation(g.images + tuple(n + i for i in range(m))))
    for h in B.generators:
        gens.append(Permutation(tuple(range(n)) + tuple(n + j for j in h.images)))
    return PermutationGroup(n + m, gens, order_bound=order_bound)


@dataclass
class QuotientRealization:
    """N/Q realized as a permutation group on the right cosets of Q in N.

    ``rep_ids[i]`` is the canonical (minimal) element of coset i, and
    ``quotient_elem_rep`` maps an element of the quotient group back to a
    coset representative in the parent.
    """

    group: PermutationGroup
    cosets: list[tuple[int, ...]]
    rep_ids: list[int]
    _coset_of: dict[int, int]
    base_index: int

    def coset_of(self, elem_id: int) -> int:
        return self._coset_of[elem_id]

    def quotient_elem_rep(self, w_id: int) -> int:
        w = self.group.elements[w_id]
        return self.rep_ids[w.apply(self.base_index)]


def quotient_realization(G: PermutationGroup, N: Subgroup, Q: Subgroup) -> QuotientRealization:
    """Build N/Q (Q normal in N) acting regularly on the cosets Qg."""
    if not Q.idset <= N.idset:
        raise PLocalError("quotient_realization needs Q to be a subgroup of N")
    cosets: list[tuple[int, ...]] = []
    coset_of: dict[int, int] = {}
    for g in N.ids:
        if g in coset_of:
            continue
        cs = tuple(sorted(G.mult(q, g) for q in Q.ids))
        idx = len(cosets)
        cosets.append(cs)
        for e in cs:
            coset_of[e] = idx
    # sort cosets canonically by their minimal element, remap
    order = sorted(range(len(cosets)), key=lambda i: cosets[i][0])
    rank = {old: new for new, old in enumerate(order)}
    cosets = [cosets[i] for i in order]
    coset_of = {e: rank[i] for e, i in coset_of.items()}

    gen_ids = N.generating_ids
    gens = [
        Permutation(tuple(coset_of[G.mult(cosets[i][0], g)] for i in range(len(cosets))))
        for g in gen_ids
    ]
    W = PermutationGroup(max(len(cosets), 1), gens)
    if W.order != N.order // Q.order:
        raise InvalidPermutation("quotient is not faithful: Q is not normal in N")
    return QuotientRealization(
        group=W,
        cosets=cosets,
        rep_ids=[cs[0] for cs in cosets],
        _coset_of=coset_of,
        base_index=coset_of[0],
    )
