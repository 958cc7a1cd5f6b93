"""The poset of Sylow intersections, its closure operator, and p-centricity.

Members are the subgroups obtained by intersecting Sylow p-subgroups; the
poset is closed under pairwise intersection and under conjugation, and its
minimum is the intersection of all Sylow p-subgroups.  The closure of an
arbitrary p-subgroup P is the intersection of every Sylow subgroup
containing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotPSubgroup, PLocalError
from .groups import (
    PermutationGroup,
    Subgroup,
    center,
    centralizer,
    conjugates,
    p_residual,
    sylow_conjugates,
    sylow_subgroup,
    transporter_set,
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

    class_of = [-1] * len(members)
    classes: list[list[int]] = []
    for i, m in enumerate(members):
        if class_of[i] >= 0:
            continue
        orbit = sorted(index[C.ids] for C in conjugates(G, m))
        for j in orbit:
            class_of[j] = len(classes)
        classes.append(orbit)

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


@dataclass
class CentricityRecord:
    subgroup: Subgroup
    is_centric: bool
    centralizer: Subgroup
    center: Subgroup
    residual: Subgroup          # O^p(C_G(P))


@dataclass
class CentricityTable:
    prime: int
    records: list[CentricityRecord]

    def __post_init__(self):
        self._by_ids = {r.subgroup.ids: r for r in self.records}

    def record_for(self, H: Subgroup) -> CentricityRecord:
        if H.ids not in self._by_ids:
            raise PLocalError(f"{H.label()} was not classified")
        return self._by_ids[H.ids]


def _centricity(G: PermutationGroup, p: int, P: Subgroup) -> tuple[Subgroup, Subgroup, bool]:
    """C_G(P), Z(P), and whether P is p-centric: whether Z(P) is a Sylow
    p-subgroup of C_G(P), i.e. |C_G(P) : Z(P)| is prime to p."""
    if not P.is_p_group(p):
        raise NotPSubgroup(f"{P.label()} is not a {p}-group")
    C = centralizer(G, P)
    Z = center(P)
    return C, Z, (C.order // Z.order) % p != 0


def is_centric(G: PermutationGroup, p: int, P: Subgroup) -> bool:
    return _centricity(G, p, P)[2]


def classify_centric(G: PermutationGroup, p: int, collection) -> CentricityTable:
    records = []
    for P in collection:
        C, Z, centric = _centricity(G, p, P)
        records.append(
            CentricityRecord(
                subgroup=P,
                is_centric=centric,
                centralizer=C,
                center=Z,
                residual=p_residual(C, p),
            )
        )
    return CentricityTable(prime=p, records=records)


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
    G: PermutationGroup,
    p: int,
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

    c = True
    d = True
    pairs = 0
    for P in test_subgroups:
        Pc = clos[P.ids]
        for Q in test_subgroups:
            pairs += 1
            npq = set(transporter_set(G, P, Q))
            if not npq <= set(transporter_set(G, Pc, clos[Q.ids])):
                c = False
        for i, M in enumerate(poset.members):
            pairs += 1
            if transporter_set(G, Pc, M) != transporter_set(G, P, M):
                d = False
    return ClosureVerdict(a, b, c, d, pairs)
