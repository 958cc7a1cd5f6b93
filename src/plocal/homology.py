"""Truncated nerve chain complexes over F_p and exact homology.

The degree-d basis of a category nerve is the set of composable d-tuples of
non-identity morphisms (normalized chains).  The boundary drops the outer
morphisms and composes adjacent inner pairs; a face whose inner composition
is an identity produces a degenerate chain and is dropped.

Truncation semantics: a complex built to ``dmax`` has its true chain groups
and boundaries in all degrees <= dmax, so homology dimensions are exact for
d <= dmax-1; comparison verdicts through mapping cones are certified for
d <= dmax-2.  Alternating signs are kept, and vanish mod 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .categories import FiniteCategory, Functor, build_transporter
from .errors import BudgetExceeded, PLocalError
from .fplinalg import FpMatrix
from .groups import PermutationGroup

DEFAULT_BUDGET = 2_000_000


@dataclass
class HomologyProfile:
    """Dimensions of H_d(-; F_p) for d = 0..dmax-1 (top degree dropped)."""

    prime: int
    dims: list[int]
    dmax: int

    def dim(self, d: int) -> int:
        return self.dims[d]


class FpComplex:
    """A chain complex of F_p vector spaces, truncated at degree dmax.

    ``boundaries[d]`` (1 <= d <= dmax) is stored row-major: row i holds the
    boundary of the i-th degree-d basis chain in the degree-(d-1) basis.
    """

    def __init__(self, prime: int, dmax: int, dims: list[int],
                 boundaries: list[FpMatrix | None], basis: list[list]):
        self.prime = prime
        self.dmax = dmax
        self.dims = dims
        self.boundaries = boundaries
        self.basis = basis
        self._index: dict[int, dict] = {}

    def basis_index(self, d: int) -> dict:
        if d not in self._index:
            self._index[d] = {label: i for i, label in enumerate(self.basis[d])}
        return self._index[d]

    def check_boundary_squared_zero(self) -> bool:
        for d in range(2, self.dmax + 1):
            if not self.boundaries[d].matmul(self.boundaries[d - 1]).is_zero():
                return False
        return True

    def rank_boundary(self, d: int) -> int:
        if d < 1 or d > self.dmax:
            return 0
        return self.boundaries[d].rank()

    def homology(self) -> HomologyProfile:
        dims = [
            self.dims[d] - self.rank_boundary(d) - self.rank_boundary(d + 1)
            for d in range(self.dmax)
        ]
        return HomologyProfile(self.prime, dims, self.dmax)

    def dump_text(self) -> str:
        """Degree sizes plus sparse triplets, for external verification."""
        lines = ["fp-complex v1", f"prime {self.prime}", f"dmax {self.dmax}",
                 "dims " + " ".join(str(n) for n in self.dims)]
        for d in range(1, self.dmax + 1):
            trips = self.boundaries[d].triplets()
            lines.append(f"boundary {d} {len(trips)}")
            for r, c, v in trips:
                lines.append(f"{r} {c} {v}")
        lines.append("end")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FpComplex":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if lines[0] != "fp-complex v1":
            raise PLocalError("unrecognized complex dump header")
        prime = int(lines[1].split()[1])
        dmax = int(lines[2].split()[1])
        dims = [int(x) for x in lines[3].split()[1:]]
        boundaries: list[FpMatrix | None] = [None] * (dmax + 1)
        i = 4
        for d in range(1, dmax + 1):
            head = lines[i].split()
            if head[0] != "boundary" or int(head[1]) != d:
                raise PLocalError(f"expected boundary {d} in complex dump")
            count = int(head[2])
            rows: list[dict[int, int]] = [dict() for _ in range(dims[d])]
            for ln in lines[i + 1: i + 1 + count]:
                r, c, v = (int(x) for x in ln.split())
                rows[r][c] = v
            boundaries[d] = FpMatrix.from_row_entries(dims[d], dims[d - 1], prime, rows)
            i += 1 + count
        basis = [[("external", d, k) for k in range(dims[d])] for d in range(dmax + 1)]
        return cls(prime, dmax, dims, boundaries, basis)


def chain_counts(C: FiniteCategory, dmax: int) -> list[int]:
    """Exact number of normalized chains per degree, by path counting."""
    nonid = C.nonidentity_by_source()
    per_obj = [1] * C.object_count
    totals = [C.object_count]
    for _ in range(dmax):
        nxt = [0] * C.object_count
        for src, toks in enumerate(nonid):
            if per_obj[src] == 0:
                continue
            for t in toks:
                nxt[C.morphisms[t].tgt] += per_obj[src]
        per_obj = nxt
        totals.append(sum(per_obj))
    return totals


def nerve_complex(C: FiniteCategory, prime: int, dmax: int,
                  budget: int = DEFAULT_BUDGET) -> FpComplex:
    """Normalized chain complex of the nerve of C, through degree dmax."""
    if dmax < 1:
        raise PLocalError("dmax must be at least 1")
    totals = chain_counts(C, dmax)
    for d, n in enumerate(totals):
        if n > budget:
            raise BudgetExceeded(d, n, budget)

    nonid = C.nonidentity_by_source()
    basis: list[list] = [list(range(C.object_count))]
    for d in range(1, dmax + 1):
        prev = basis[d - 1]
        cur = []
        if d == 1:
            for src, toks in enumerate(nonid):
                cur.extend((t,) for t in toks)
            cur.sort()
        else:
            for chain in prev:
                tail = C.morphisms[chain[-1]].tgt
                for t in nonid[tail]:
                    cur.append(chain + (t,))
        basis.append(cur)

    dims = [len(b) for b in basis]
    index1 = {label: i for i, label in enumerate(basis[1])} if dmax >= 1 else {}

    boundaries: list[FpMatrix | None] = [None] * (dmax + 1)

    def row_entries_for(chain: tuple, d: int, index_prev: dict) -> dict[int, int]:
        entries: dict[int, int] = {}
        if d == 1:
            m = C.morphisms[chain[0]]
            entries[m.tgt] = entries.get(m.tgt, 0) + 1
            entries[m.src] = entries.get(m.src, 0) - 1
            return entries

        def add(label, coeff):
            col = index_prev[label]
            entries[col] = entries.get(col, 0) + coeff

        add(chain[1:], 1)
        sign = -1 if d % 2 else 1
        add(chain[:-1], sign)
        for i in range(1, d):
            u = C.compose(chain[i - 1], chain[i])
            if C.is_identity(u):
                continue
            face = chain[: i - 1] + (u,) + chain[i + 1:]
            add(face, -1 if i % 2 else 1)
        return entries

    for d in range(1, dmax + 1):
        index_prev = (
            {label: i for i, label in enumerate(basis[d - 1])} if d >= 2 else {}
        )
        rows = (row_entries_for(chain, d, index_prev) for chain in basis[d])
        boundaries[d] = FpMatrix.from_row_entries(dims[d], dims[d - 1], prime, rows)

    cx = FpComplex(prime, dmax, dims, boundaries, basis)
    if not cx.check_boundary_squared_zero():
        raise PLocalError("boundary squared is nonzero; nerve construction is broken")
    return cx


def bar_complex(G: PermutationGroup, prime: int, dmax: int,
                budget: int = DEFAULT_BUDGET) -> FpComplex:
    """Normalized bar complex computing H_*(BG; F_p) below dmax.

    Realized as the nerve of the one-object category with morphism set G.
    """
    if (G.order - 1) ** dmax > budget:
        raise BudgetExceeded(dmax, (G.order - 1) ** dmax, budget)
    cat = build_transporter(G, [G.full_subgroup()], table_budget=max(budget, G.order ** 2))
    return nerve_complex(cat, prime, dmax, budget)


@dataclass
class ChainMap:
    """Degree-wise matrices of a functor-induced map between nerve complexes."""

    prime: int
    source: FpComplex
    target: FpComplex
    mats: list[FpMatrix]

    @property
    def max_degree(self) -> int:
        return len(self.mats) - 1

    def commutes(self) -> bool:
        for d in range(1, self.max_degree + 1):
            lhs = self.source.boundaries[d].matmul(self.mats[d - 1])
            rhs = self.mats[d].matmul(self.target.boundaries[d])
            if not lhs.equals(rhs):
                return False
        return True


def induced_chain_map(F: Functor, source_cx: FpComplex, target_cx: FpComplex) -> ChainMap:
    """Chain map sending a chain to its image chain; degenerate images go to 0."""
    D = min(source_cx.dmax, target_cx.dmax)
    tgt_cat = F.target
    mats: list[FpMatrix] = []
    rows0 = [{F.object_map[i]: 1} for i in source_cx.basis[0]]
    mats.append(
        FpMatrix.from_row_entries(
            source_cx.dims[0], target_cx.dims[0], source_cx.prime, rows0
        )
    )
    for d in range(1, D + 1):
        index = target_cx.basis_index(d)
        rows = []
        for chain in source_cx.basis[d]:
            image = tuple(F.apply(t) for t in chain)
            if any(tgt_cat.is_identity(t) for t in image):
                rows.append({})
            else:
                rows.append({index[image]: 1})
        mats.append(
            FpMatrix.from_row_entries(
                source_cx.dims[d], target_cx.dims[d], source_cx.prime, rows
            )
        )
    cm = ChainMap(source_cx.prime, source_cx, target_cx, mats)
    if not cm.commutes():
        raise PLocalError("induced map does not commute with boundaries")
    return cm


def mapping_cone(cm: ChainMap) -> FpComplex:
    """Algebraic mapping cone: cone_d = A_{d-1} (+) B_d with
    boundary (a, b) -> (-dA a, f(a) + dB b).

    Each cone boundary declares its B rows as the block dB_d, so ranking it
    after B's own homology inserts only the A rows into dB_d's echelon."""
    A, B = cm.source, cm.target
    D = min(A.dmax + 1, B.dmax)
    p = A.prime
    dims = [
        (A.dims[d - 1] if d >= 1 else 0) + B.dims[d]
        for d in range(D + 1)
    ]
    boundaries: list[FpMatrix | None] = [None] * (D + 1)
    for d in range(1, D + 1):
        a_rows = A.dims[d - 1]
        b_rows = B.dims[d]
        left_cols = A.dims[d - 2] if d >= 2 else 0
        if d >= 2 and left_cols:
            top_left = -A.boundaries[d - 1].csr
        else:
            top_left = sparse.csr_matrix((a_rows, left_cols), dtype=np.int64)
        top = sparse.hstack([top_left, cm.mats[d - 1].csr], format="csr")
        bot = sparse.hstack(
            [sparse.csr_matrix((b_rows, left_cols), dtype=np.int64), B.boundaries[d].csr],
            format="csr",
        )
        boundaries[d] = FpMatrix(
            sparse.vstack([top, bot], format="csr"), p, tail=(B.boundaries[d], left_cols)
        )
    basis = [[("cone", d, k) for k in range(dims[d])] for d in range(D + 1)]
    cone_cx = FpComplex(p, D, dims, boundaries, basis)
    if not cone_cx.check_boundary_squared_zero():
        raise PLocalError("mapping cone boundary squared is nonzero")
    return cone_cx


@dataclass
class IsoVerdict:
    """Per-degree homology-isomorphism verdicts from mapping-cone acyclicity."""

    prime: int
    certified_through: int
    iso_by_degree: list[bool] = field(default_factory=list)
    cone_homology: list[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.certified_through >= 0 and all(self.iso_by_degree)


def homology_iso_verdict(cm: ChainMap) -> IsoVerdict:
    """Iso in degree d certified by vanishing cone homology in degrees d and d+1."""
    cone = mapping_cone(cm)
    cone_h = cone.homology().dims  # exact for d <= cone.dmax - 1
    certified = cone.dmax - 2
    iso = [
        cone_h[d] == 0 and cone_h[d + 1] == 0
        for d in range(certified + 1)
    ]
    return IsoVerdict(cm.prime, certified, iso, cone_h)
