"""Exact arithmetic for finite permutation groups.

Everything is enumerated: a group stores its full element list in a canonical
order (lexicographic on image arrays) and one multiplication table
``mul[a, b]``, the id of ``elements[a] * elements[b]``, in the smallest
unsigned dtype that holds the order.  Subgroups are explicit sorted id sets.
Transporter sets and normalizers come from one kernel, ``transporters``,
which conjugates a source's generators by every element at once and reads
membership in all targets at once; centralizers come from one conjugation
filter and conjugacy classes of subgroups from ``conjugates``.  All read
``mul`` as arrays and hand out Python ints.  A quotient N/Q is a group in
its own right, acting on the cosets of Q, with no map back to N.  A group
keeps only the tables ``coset_minima`` builds: for a pair of subgroups
(L, R), the least element of L·x·R for every x in G.  Conjugation is on the
right, ``x^g = g^-1 x g``, which makes ``(P^g)^h = P^(g h)`` and lets
transporter elements compose left to right.
"""

from __future__ import annotations

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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
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
        self._coset_minima: dict[tuple, np.ndarray] = {}

    # -- element arithmetic on ids ------------------------------------

    def mult(self, i: int, j: int) -> int:
        return self.mul.item(i, j)

    def power(self, i: int, k: int) -> int:
        out = 0
        for _ in range(k):
            out = self.mult(out, i)
        return out

    # -- subgroups -----------------------------------------------------

    def subgroup_closure(self, seed_ids, base=(0,)) -> tuple[int, ...]:
        """Ids of the subgroup generated by the given element ids, built up
        from ``base``, the ids of a subgroup of the one they generate (by
        default the trivial one), one right coset of it at a time.

        The union M of the cosets By reached is closed under each generator
        s: an element b·y goes to b·(ys), and ys lies in a coset B·y' already
        in M, so b·y·s lies in B·y' too.  A set of elements of a finite group
        that holds the identity and is closed under right multiplication by
        the generators is the subgroup they generate."""
        members = set(base)
        gens = sorted(set(seed_ids))
        reps = [0]
        for y in reps:
            for s in gens:
                z = self.mult(y, s)
                if z not in members:
                    members.update(self.mult(b, z) for b in base)
                    reps.append(z)
        return tuple(sorted(members))

    def generated_subgroup(self, seed_ids) -> "Subgroup":
        return Subgroup(self, self.subgroup_closure(seed_ids))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)))


class Subgroup:
    """A subgroup of an enumerated group, stored as explicit sorted element ids."""

    __slots__ = ("parent", "ids", "idset", "_gens")

    def __init__(self, parent: PermutationGroup, ids):
        self.parent = parent
        self.ids: tuple[int, ...] = tuple(sorted(set(ids)))
        self.idset = frozenset(self.ids)
        self._gens: tuple[int, ...] | None = None

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
        """A small generating set, chosen greedily in canonical element order;
        each closure grows from the subgroup the ids before it generate."""
        if self._gens is None:
            gens: list[int] = []
            span = {0}
            for e in self.ids:
                if e not in span:
                    gens.append(e)
                    span = set(self.parent.subgroup_closure(gens, span))
                    if len(span) == len(self.ids):
                        break
            self._gens = tuple(gens)
        return self._gens

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


def _conj(G: PermutationGroup, x, g) -> np.ndarray:
    """x^g for id arrays x and g, broadcast against each other."""
    return G.mul[G.mul[G.inverse_ids[g], x], g]


def _conjugators(G: PermutationGroup, P: Subgroup) -> np.ndarray:
    """The ids g, ascending, with x^g = x for every generator x of P: the
    filter behind centralizers and centers."""
    g = np.arange(G.order)
    for x in P.generating_ids:
        g = g[_conj(G, x, g) == x]
    return g


def transporters(G: PermutationGroup, sources, targets) -> np.ndarray:
    """The (source, target, g) mask of N_G(P, Q) = {g : P^g <= Q}: each
    generator of a source is conjugated by every g at once and its images'
    columns gathered from one (target, element) membership table, so no more
    than one targets × |G| mask is held on top of the output, which is
    written in its own (source, target, g) order."""
    inside = np.zeros((len(targets), G.order), dtype=bool)
    for k, Q in enumerate(targets):
        inside[k, list(Q.ids)] = True
    out = np.ones((len(sources), len(targets), G.order), dtype=bool)
    g = np.arange(G.order)
    for s, P in enumerate(sources):
        for x in P.generating_ids:
            out[s] &= inside[:, _conj(G, x, g)]
    return out


def centralizer(G: PermutationGroup, P: Subgroup) -> Subgroup:
    """C_G(P): the elements fixing every generator of P under conjugation."""
    return Subgroup(G, _conjugators(G, P).tolist())


def normalizer(G: PermutationGroup, P: Subgroup) -> Subgroup:
    """N_G(P) = N_G(P, P)."""
    return Subgroup(G, np.flatnonzero(transporters(G, [P], [P])[0, 0]).tolist())


def center(P: Subgroup) -> Subgroup:
    """Z(P) = P ∩ C_G(P)."""
    return Subgroup(P.parent, np.intersect1d(_conjugators(P.parent, P), P.ids).tolist())


def transporter_set(G: PermutationGroup, P: Subgroup, Q: Subgroup) -> tuple[int, ...]:
    """N_G(P, Q) = {g : P^g <= Q}, as a sorted tuple of element ids: the one
    pair view of ``transporters``."""
    return tuple(np.flatnonzero(transporters(G, [P], [Q])[0, 0]).tolist())


def coset_minima(G: PermutationGroup, L: Subgroup, R: Subgroup) -> np.ndarray:
    """min(L·x·R) for every x in G, indexed by x: the least element of each
    x·R from ``mul``'s R columns, then, if L is nontrivial, the least of those
    over l·x for l in L.  Computed once per group and pair (L, R)."""
    key = (L.ids, R.ids)
    found = G._coset_minima.get(key)
    if found is None:
        found = G.mul[:, list(R.ids)].min(axis=1)
        if L.order > 1:
            found = found[G.mul[list(L.ids)]].min(axis=0)
        G._coset_minima[key] = found
    return found


def conjugates(G: PermutationGroup, H: Subgroup) -> list[Subgroup]:
    """The distinct conjugates H^g, g in G, canonically sorted (they share
    H's order, so by their id tuples)."""
    h = np.array(H.ids, dtype=np.intp)
    rows = np.sort(_conj(G, h, np.arange(G.order)[:, None]), axis=1)
    return [Subgroup(G, ids) for ids in sorted(set(map(tuple, rows.tolist())))]


def p_residual(H: Subgroup, p: int) -> Subgroup:
    """O^p(H): the subgroup generated by all elements of H of order prime to p.

    It is closed over a small generating set of those elements: each is
    added as a generator only when the subgroup generated so far misses it,
    and the closure grows from that subgroup."""
    G = H.parent
    gens: list[int] = []
    span = {0}
    for x in H.ids:
        if x not in span and G.element_orders[x] % p != 0:
            gens.append(x)
            span = set(G.subgroup_closure(gens, span))
    return Subgroup(G, span)


def sylow_subgroup(G: PermutationGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, built by normalizer ascent.

    While |P| is short of the p-part of |G|, p divides |G : P|, and so
    |N_G(P) : P|: P acts on the cosets G/P with fixed points N_G(P)/P and
    orbits of p-power length, so |N_G(P) : P| = |G : P| mod p.  By Cauchy's
    theorem N_G(P)/P has an element of order p, so some g in N_G(P) lies
    outside P with g^p in P; such a g is a p-element, because P is a
    p-group, and adjoining it multiplies the order by p.  The first such g
    in element order is taken.  Correctness is certified by the final order
    check against the p-part.
    """
    target = p_part(G.order, p)
    P = G.trivial_subgroup()
    while P.order < target:
        pick = next((g for g in normalizer(G, P).ids
                     if g not in P.idset and G.power(g, p) in P.idset), None)
        if pick is None:
            raise PLocalError("normalizer ascent stalled below the p-part")
        P = G.generated_subgroup(P.ids + (pick,))
    if P.order != target:
        raise PLocalError(f"normalizer ascent reached order {P.order}, not {target}")
    return P


def sylow_conjugates(G: PermutationGroup, S: Subgroup) -> list[Subgroup]:
    """The full deduplicated list {S^g : g in G}, canonically sorted."""
    return conjugates(G, S)


def all_subgroups(S: Subgroup) -> list[Subgroup]:
    """Every subgroup of S, canonically sorted, built up from the trivial
    subgroup: from each subgroup H found, the subgroups <H, x> for x in S.

    Every subgroup K of S is found, as the top of a chain 1 = K_0 < K_1 <
    ... < K_m = K with K_{i+1} = <K_i, x> for some x in K outside K_i.  Two
    reductions keep the work to one closure per right coset of H:

    - one x per right coset Hx other than H, its least element, is enough:
      for h in H, <H, hx> = <H, x>, since hx lies in <H, x> and
      x = h^-1·(hx) lies in <H, hx>.  So H costs |S : H| - 1 closures;
    - the ids that produced H generate it, so they and x generate <H, x>,
      a subgroup that contains H.  ``subgroup_closure`` builds it from H's
      members under those ids, one right coset of H at a time.

    Intended for small S (Sylow subgroups at desk scale).
    """
    G = S.parent
    made_by: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}
    frontier = [(0,)]
    while frontier:
        new = []
        for H in frontier:
            covered = set(H)
            for x in S.ids:
                if x in covered:
                    continue
                covered.update(G.mult(h, x) for h in H)
                gens = made_by[H] + (x,)
                E = G.subgroup_closure(gens, H)
                if E not in made_by:
                    made_by[E] = gens
                    new.append(E)
        frontier = new
    return [Subgroup(G, ids) for ids in sorted(made_by, key=lambda ids: (len(ids), ids))]


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


def quotient_realization(G: PermutationGroup, N: Subgroup, Q: Subgroup) -> PermutationGroup:
    """N/Q (Q normal in N) as the permutation group by which N acts on the
    right cosets Qg, numbered by their least elements; its k-th generator is
    the action of N's k-th generating id."""
    if not Q.idset <= N.idset:
        raise PLocalError("quotient_realization needs Q to be a subgroup of N")
    rows = np.unique(np.sort(G.mul[np.ix_(Q.ids, N.ids)].T, axis=1), axis=0)
    cosets = rows.tolist()
    coset_of = {e: i for i, cs in enumerate(cosets) for e in cs}
    gens = [Permutation(tuple(coset_of[G.mult(cs[0], g)] for cs in cosets))
            for g in N.generating_ids]
    W = PermutationGroup(max(len(cosets), 1), gens)
    if W.order != N.order // Q.order:
        raise InvalidPermutation("quotient is not faithful: Q is not normal in N")
    return W
