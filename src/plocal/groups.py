"""Exact arithmetic for finite permutation groups.

Everything is enumerated: a group stores its full element list in a canonical
order (lexicographic on image arrays) and one multiplication table
``mul[a, b]``, the id of ``elements[a] * elements[b]``, in the smallest
unsigned dtype that holds the order.  Subgroups are explicit sorted id sets.
Transporter sets, normalizers and centralizers come from one conjugation
filter and conjugacy classes of subgroups from ``conjugates``; both read
``mul`` as arrays and hand out Python ints; a group keeps each (immutable)
transporter set it computes.  Conjugation is on the right,
``x^g = g^-1 x g``, which makes ``(P^g)^h = P^(g h)`` and lets transporter
elements compose left to right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPermutation, OrderBoundExceeded, PLocalError
from .perm import Permutation

DEFAULT_ORDER_BOUND = 10_000


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
    reproducible.  ``words[i]`` is the breadth-first generator word reaching
    element i; it builds ``mul`` and propagates matrix representations.
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

        # mul, column by column: column b is the column of b's word without its
        # last generator s, sent through s's column (cols is mul's transpose)
        dtype = np.min_scalar_type(self.order)
        gen_cols = np.array(
            [[self._index[(e * s).images] for e in self.elements] for s in gens], dtype=dtype
        ).reshape(len(gens), self.order)
        cols = np.empty((self.order, self.order), dtype=dtype)
        cols[0] = np.arange(self.order)
        by_word = {w: b for b, w in enumerate(self.words)}
        for b in sorted(range(1, self.order), key=lambda b: len(self.words[b])):
            w = self.words[b]
            cols[b] = gen_cols[w[-1]][cols[by_word[w[:-1]]]]
        self.mul = cols.T
        self.inverse_ids = self.mul.argmin(axis=1)  # the one b with a * b = 1
        self.element_orders = tuple(e.order() for e in self.elements)
        self._transporters: dict[tuple, tuple[int, ...]] = {}

    # -- element arithmetic on ids ------------------------------------

    def mult(self, i: int, j: int) -> int:
        return self.mul.item(i, j)

    def inv(self, i: int) -> int:
        return self.inverse_ids.item(i)

    def conj(self, x: int, g: int) -> int:
        """Right conjugation x^g = g^-1 x g."""
        return self.mul.item(self.mul.item(self.inverse_ids.item(g), x), g)

    def power(self, i: int, k: int) -> int:
        out = 0
        for _ in range(k):
            out = self.mult(out, i)
        return out

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
            ids = np.array(self.ids, dtype=np.intp)
            if 0 not in self.idset:
                raise InvalidPermutation("subgroup must contain the identity")
            if not np.isin(parent.inverse_ids[ids], ids).all():
                raise InvalidPermutation("subgroup not closed under inverse")
            if not np.isin(parent.mul[ids[:, None], ids], ids).all():
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
        return Subgroup(G, _conj(G, np.array(self.ids, dtype=np.intp), g).tolist())

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


def _conj(G: PermutationGroup, x, g) -> np.ndarray:
    """x^g for id arrays x and g, broadcast against each other."""
    return G.mul[G.mul[G.inverse_ids[g], x], g]


def _conjugators(G: PermutationGroup, P: Subgroup, Q: Subgroup | None = None) -> np.ndarray:
    """The ids g, ascending, with x^g in Q for every generator x of P, or with
    x^g = x when Q is None: the one filter behind transporter sets,
    normalizers and centralizers."""
    g = np.arange(G.order)
    inside = np.zeros(G.order, dtype=bool)
    if Q is not None:
        inside[list(Q.ids)] = True
    for x in P.generating_ids:
        y = _conj(G, x, g)
        g = g[y == x if Q is None else inside[y]]
    return g


def centralizer(G: PermutationGroup, P: Subgroup) -> Subgroup:
    """C_G(P): the elements fixing every generator of P under conjugation."""
    return Subgroup(G, _conjugators(G, P).tolist())


def normalizer(G: PermutationGroup, P: Subgroup) -> Subgroup:
    """N_G(P) = N_G(P, P)."""
    return Subgroup(G, _conjugators(G, P, P).tolist())


def center(P: Subgroup) -> Subgroup:
    """Z(P) = P ∩ C_G(P)."""
    return Subgroup(P.parent, np.intersect1d(_conjugators(P.parent, P), P.ids).tolist())


def transporter_set(G: PermutationGroup, P: Subgroup, Q: Subgroup) -> tuple[int, ...]:
    """N_G(P, Q) = {g : P^g <= Q}, as a sorted tuple of element ids,
    computed once per group and pair (P, Q)."""
    key = (P.ids, Q.ids)
    found = G._transporters.get(key)
    if found is None:
        found = G._transporters[key] = tuple(_conjugators(G, P, Q).tolist())
    return found


def conjugates(G: PermutationGroup, H: Subgroup) -> list[Subgroup]:
    """The distinct conjugates H^g, g in G, canonically sorted (they share
    H's order, so by their id tuples)."""
    h = np.array(H.ids, dtype=np.intp)
    rows = np.sort(_conj(G, h, np.arange(G.order)[:, None]), axis=1)
    return [Subgroup(G, ids) for ids in np.unique(rows, axis=0).tolist()]


def p_residual(H: Subgroup, p: int) -> Subgroup:
    """O^p(H): the subgroup generated by all elements of H of order prime to p.

    It is closed over a small generating set of those elements: each is
    added as a generator only when the subgroup generated so far misses it."""
    G = H.parent
    gens: list[int] = []
    span = {0}
    for x in H.ids:
        if x not in span and G.element_orders[x] % p != 0:
            gens.append(x)
            span = set(G.subgroup_closure(gens))
    return G.subgroup(span)


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
    return conjugates(G, S)


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
    # the cosets Qg, g in N, sorted by their least elements
    rows = np.unique(np.sort(G.mul[np.ix_(Q.ids, N.ids)].T, axis=1), axis=0)
    cosets = [tuple(cs) for cs in rows.tolist()]
    coset_of = {e: i for i, cs in enumerate(cosets) for e in cs}
    gens = [Permutation(tuple(coset_of[G.mult(cs[0], g)] for cs in cosets))
            for g in N.generating_ids]
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
