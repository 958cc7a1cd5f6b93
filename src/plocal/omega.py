"""The poset of Sylow intersections, its closure operator, and p-centricity.

Members are the subgroups obtained by intersecting Sylow p-subgroups; the
poset is closed under pairwise intersection and under conjugation, and its
minimum is the intersection of all Sylow p-subgroups.  The closure of an
arbitrary p-subgroup P is the intersection of every Sylow subgroup
containing it.

p-centricity is a flag per subgroup (``classify_centric`` keys it by ids).
O^p(C_G(P)), which acts only in the linking category, is computed by
``categories.build_linking`` for its own objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPSubgroup
from .groups import (
    PermutationGroup,
    Subgroup,
    center,
    centralizer,
    conjugacy_classes,
    sylow_conjugates,
    sylow_subgroup,
    transporters,
)


@dataclass
class IntersectionPoset:
    group: PermutationGroup
    prime: int
    members: list[Subgroup]          # canonically sorted
    sylows: list[Subgroup]
    classes: list[list[int]]         # conjugacy classes, as member indices
    class_of: list[int]
    minimum: int                     # index of the intersection of all Sylows
    leq: list[frozenset[int]] = field(repr=False)  # leq[i] = {j : members[i] <= members[j]}

    def members_in(self, S: Subgroup) -> list[int]:
        """Indices of members contained in S (the poset relative to one Sylow)."""
        return [i for i, m in enumerate(self.members) if m <= S]

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Cover relations (i, j) with members[i] < members[j]."""
        edges = []
        for i, m in enumerate(self.members):
            uppers = [j for j in self.leq[i] if j != i]
            for j in sorted(uppers):
                if not any(
                    k != i and k != j and k in self.leq[i] and j in self.leq[k]
                    for k in uppers
                ):
                    edges.append((i, j))
        return edges


def build_intersection_poset(G: PermutationGroup, p: int) -> IntersectionPoset:
    """Worklist closure of the Sylow set under pairwise intersection."""
    S = sylow_subgroup(G, p)
    sylows = sylow_conjugates(G, S)
    found: dict[tuple[int, ...], Subgroup] = {T.ids: T for T in sylows}
    frontier = list(found.values())
    while frontier:
        new = []
        for A in frontier:
            for ids in list(found):
                B = found[ids]
                C = A.intersection(B)
                if C.ids not in found:
                    found[C.ids] = C
                    new.append(C)
        frontier = new
    members = [found[k] for k in sorted(found, key=lambda ids: (len(ids), ids))]
    index = {m.ids: i for i, m in enumerate(members)}

    leq = [
        frozenset(j for j, other in enumerate(members) if m <= other)
        for m in members
    ]
    minimum = 0
    for i, m in enumerate(members):
        if len(leq[i]) == len(members):
            minimum = i
            break

    classes = [sorted(index[C.ids] for C in orbit) for orbit in conjugacy_classes(G, members)]
    class_of = [-1] * len(members)
    for k, orbit in enumerate(classes):
        for j in orbit:
            class_of[j] = k

    return IntersectionPoset(
        group=G,
        prime=p,
        members=members,
        sylows=sylows,
        classes=classes,
        class_of=class_of,
        minimum=minimum,
        leq=leq,
    )


def closure_in_poset(poset: IntersectionPoset, P: Subgroup) -> Subgroup:
    """The intersection of all Sylow p-subgroups containing P."""
    if not P.is_p_group(poset.prime):
        raise NotPSubgroup(f"{P.label()} is not a {poset.prime}-group")
    out: Subgroup | None = None
    for S in poset.sylows:
        if P <= S:
            out = S if out is None else out.intersection(S)
    if out is None:
        raise NotPSubgroup(f"no Sylow {poset.prime}-subgroup contains {P.label()}")
    return out


def longest_chain_length(poset: IntersectionPoset, within: Subgroup | None = None) -> int:
    """Length (number of strict inclusions) of the longest chain.

    With ``within`` set, the chain is restricted to members contained in that
    subgroup (the poset relative to one fixed Sylow).
    """
    idxs = (
        list(range(len(poset.members)))
        if within is None
        else poset.members_in(within)
    )
    idxs.sort(key=lambda i: poset.members[i].order)
    best: dict[int, int] = {}
    for i in idxs:
        best[i] = max(
            (best[j] + 1 for j in idxs if j in best and j != i and i in poset.leq[j]),
            default=0,
        )
    return max(best.values(), default=0)


def is_centric(G: PermutationGroup, p: int, P: Subgroup) -> bool:
    """Whether P is p-centric: whether Z(P) is a Sylow p-subgroup of
    C_G(P), i.e. |C_G(P) : Z(P)| is prime to p."""
    if not P.is_p_group(p):
        raise NotPSubgroup(f"{P.label()} is not a {p}-group")
    return (centralizer(G, P).order // center(P).order) % p != 0


def classify_centric(G: PermutationGroup, p: int, collection) -> dict[tuple[int, ...], bool]:
    """{P.ids: whether P is p-centric} over the collection, each distinct
    subgroup classified once."""
    out: dict[tuple[int, ...], bool] = {}
    for P in collection:
        if P.ids not in out:
            out[P.ids] = is_centric(G, p, P)
    return out


@dataclass
class ClosureVerdict:
    extends_and_monotone: bool   # P <= P°, and P <= Q implies P° <= Q°
    idempotent: bool             # (P°)° = P°, and members are fixed
    transporter_monotone: bool   # N(P,Q) ⊆ N(P°,Q°)
    transporter_equality: bool   # Q a member: N(P°,Q) = N(P,Q)
    pairs_checked: int

    @property
    def passed(self) -> bool:
        return (
            self.extends_and_monotone
            and self.idempotent
            and self.transporter_monotone
            and self.transporter_equality
        )


def verify_closure_properties(
    poset: IntersectionPoset,
    test_subgroups: list[Subgroup],
) -> ClosureVerdict:
    """Exhaustive check of the closure operator over a collection of p-subgroups."""
    clos = {P.ids: closure_in_poset(poset, P) for P in test_subgroups}
    a = all(P <= clos[P.ids] for P in test_subgroups)
    for P in test_subgroups:
        for Q in test_subgroups:
            if P <= Q and not clos[P.ids] <= clos[Q.ids]:
                a = False

    b = all(
        closure_in_poset(poset, clos[P.ids]).ids == clos[P.ids].ids
        for P in test_subgroups
    )
    for M in poset.members:
        if closure_in_poset(poset, M).ids != M.ids:
            b = False

    sources = list({H.ids: H for H in [*test_subgroups, *clos.values()]}.values())
    targets = list({H.ids: H for H in [*sources, *poset.members]}.values())
    at = {H.ids: k for k, H in enumerate(targets)}
    N = transporters(poset.group, sources, targets)
    tests = [at[P.ids] for P in test_subgroups]
    closed = [at[clos[P.ids].ids] for P in test_subgroups]
    members = [at[M.ids] for M in poset.members]
    # N(P, Q) ⊆ N(P°, Q°) for P, Q tests; N(P°, M) = N(P, M) for M a member
    c = not (N[np.ix_(tests, tests)] & ~N[np.ix_(closed, closed)]).any()
    d = bool((N[np.ix_(closed, members)] == N[np.ix_(tests, members)]).all())
    pairs = len(tests) * (len(tests) + len(members))
    return ClosureVerdict(a, b, c, d, pairs)
