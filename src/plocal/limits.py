"""Higher limits of contravariant F_p-linear functors on finite categories.

A functor assigns a vector-space dimension to every object and a matrix
F(f): F(tgt) -> F(src) to every morphism, with F(f then g) = F(f) F(g).
``lim^n`` is computed from the normalized cochain complex whose degree-n
piece is the direct sum of F(c_0) over composable chains
c_0 -> c_1 -> ... -> c_n of non-identity morphisms.  A complex built to
``nmax`` certifies lim^n for n <= nmax-1, and lim^0 can be cross-checked
against the directly solved compatible-family system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .categories import FiniteCategory, Functor
from .errors import BudgetExceeded, NotAFunctor, PLocalError
from .fplinalg import FpMatrix

DEFAULT_BUDGET = 2_000_000


@dataclass
class LinearFunctor:
    """A contravariant functor to F_p vector spaces on a finite category."""

    category: FiniteCategory
    prime: int
    dims: list[int]
    mats: dict[int, np.ndarray]   # token id -> matrix of shape (dims[src], dims[tgt])

    def matrix(self, tid: int) -> np.ndarray:
        return self.mats[tid]

    def validate(self):
        """Exhaustive functoriality check; raises NotAFunctor on any failure."""
        C = self.category
        p = self.prime
        for tid, m in enumerate(C.morphisms):
            M = self.mats[tid]
            if M.shape != (self.dims[m.src], self.dims[m.tgt]):
                raise NotAFunctor(f"matrix shape mismatch at token {tid}")
        for i, tid in enumerate(C.identity_ids):
            M = self.mats[tid]
            if self.dims[i] and not np.array_equal(
                M % p, np.eye(self.dims[i], dtype=np.int64)
            ):
                raise NotAFunctor(f"identity at object {i} is not the identity matrix")
        for (t1, t2), t3 in C.compose_table.items():
            lhs = (self.mats[t1] @ self.mats[t2]) % p
            if not np.array_equal(lhs, self.mats[t3] % p):
                raise NotAFunctor(f"composition fails at tokens ({t1},{t2})")

    def restrict(self, sub: FiniteCategory, inclusion: Functor) -> "LinearFunctor":
        dims = [self.dims[inclusion.object_map[i]] for i in range(sub.object_count)]
        mats = {
            tid: self.mats[inclusion.apply(tid)] for tid in range(sub.morphism_count)
        }
        return LinearFunctor(sub, self.prime, dims, mats)

    def support(self) -> list[int]:
        return [i for i, d in enumerate(self.dims) if d > 0]


def constant_functor(C: FiniteCategory, prime: int, dim: int = 1) -> LinearFunctor:
    eye = np.eye(dim, dtype=np.int64)
    return LinearFunctor(C, prime, [dim] * C.object_count, {
        tid: eye.copy() for tid in range(C.morphism_count)
    })


@dataclass
class LimitsProfile:
    """Dimensions of lim^n for n = 0..nmax-1, with the certified range."""

    prime: int
    dims: list[int]
    nmax: int
    lim0_cross_check: int | None = None

    def dim(self, n: int) -> int:
        return self.dims[n]

    @property
    def vanishes(self) -> bool:
        return all(d == 0 for d in self.dims)


class CochainComplex:
    """The normalized functor cochain complex, truncated at chain length nmax.

    ``diffs[n]`` is the matrix of d: C^n -> C^{n+1} with rows indexed by the
    degree-(n+1) basis, so ranks feed straight into lim^n dimensions.
    """

    def __init__(self, prime: int, nmax: int, dims: list[int], diffs: list[FpMatrix]):
        self.prime = prime
        self.nmax = nmax
        self.dims = dims
        self.diffs = diffs

    def rank_diff(self, n: int) -> int:
        if n < 0 or n >= len(self.diffs):
            return 0
        return self.diffs[n].rank()

    def limit_dims(self) -> list[int]:
        return [
            self.dims[n] - self.rank_diff(n) - self.rank_diff(n - 1)
            for n in range(self.nmax)
        ]


def _chain_basis(F: LinearFunctor, nmax: int, budget: int):
    """Chains with nonzero value at their start, and per-degree offsets."""
    C = F.category
    nonid = C.nonidentity_by_source()
    chains: list[list[tuple[int, tuple[int, ...]]]] = [
        [(i, ()) for i in range(C.object_count) if F.dims[i] > 0]
    ]
    for n in range(1, nmax + 1):
        cur = []
        for head, toks in chains[n - 1]:
            tail = C.morphisms[toks[-1]].tgt if toks else head
            for t in nonid[tail]:
                cur.append((head, toks + (t,)))
        chains.append(cur)
        weight = sum(F.dims[head] for head, _ in cur)
        if weight > budget:
            raise BudgetExceeded(n, weight, budget)
    offsets = []
    dims = []
    for n in range(nmax + 1):
        offs = {}
        total = 0
        for head, toks in chains[n]:
            offs[(head, toks)] = total
            total += F.dims[head]
        offsets.append(offs)
        dims.append(total)
    return chains, offsets, dims


def functor_cochain_complex(F: LinearFunctor, nmax: int,
                            budget: int = DEFAULT_BUDGET) -> CochainComplex:
    """Build the normalized cochain complex of a (validated) functor.

    The differential evaluated on a chain c_0 -> ... -> c_{n+1} applies
    F(first arrow) to the head-dropped face, alternates over inner
    compositions (faces through identities die by normalization), and ends
    with the last-dropped face.
    """
    C = F.category
    p = F.prime
    chains, offsets, dims = _chain_basis(F, nmax, budget)

    diffs: list[FpMatrix] = []
    for n in range(nmax):
        rows: list[dict[int, int]] = []
        for head, toks in chains[n + 1]:
            k = F.dims[head]
            row_block: list[dict[int, int]] = [dict() for _ in range(k)]

            def add_block(face, M):
                if face not in offsets[n]:
                    return
                base = offsets[n][face]
                for r in range(M.shape[0]):
                    for c in range(M.shape[1]):
                        v = int(M[r, c]) % p
                        if v:
                            row_block[r][base + c] = (
                                row_block[r].get(base + c, 0) + v
                            )

            first = toks[0]
            c1 = C.morphisms[first].tgt
            face0 = (c1, toks[1:])
            add_block(face0, F.mats[first] % p)

            eye = np.eye(k, dtype=np.int64)
            for i in range(1, n + 1):
                u = C.compose(toks[i - 1], toks[i])
                if C.is_identity(u):
                    continue
                face = (head, toks[: i - 1] + (u,) + toks[i + 1:])
                sign = -1 if i % 2 else 1
                add_block(face, (sign * eye) % p)

            last_face = (head, toks[:-1])
            sign = -1 if (n + 1) % 2 else 1
            add_block(last_face, (sign * eye) % p)

            rows.extend(row_block)
        diffs.append(FpMatrix.from_row_entries(dims[n + 1], dims[n], p, rows))

    cx = CochainComplex(p, nmax, dims, diffs)
    for n in range(1, nmax):
        if not cx.diffs[n].matmul(cx.diffs[n - 1]).is_zero():
            raise PLocalError("cochain differential squared is nonzero")
    return cx


def limits_profile(F: LinearFunctor, nmax: int, budget: int = DEFAULT_BUDGET,
                   cross_check: bool = True) -> LimitsProfile:
    F.validate()
    cx = functor_cochain_complex(F, nmax, budget)
    dims = cx.limit_dims()
    check = inverse_limit_dim(F) if cross_check else None
    if check is not None and dims and dims[0] != check:
        raise PLocalError(
            f"lim^0 mismatch: cochain gives {dims[0]}, compatibility system gives {check}"
        )
    return LimitsProfile(F.prime, dims, nmax, check)


def inverse_limit_dim(F: LinearFunctor) -> int:
    """dim lim^0 by solving the compatible-family system directly."""
    C = F.category
    p = F.prime
    offsets = []
    total = 0
    for d in F.dims:
        offsets.append(total)
        total += d
    rows: list[dict[int, int]] = []
    for tid, m in enumerate(C.morphisms):
        if C.is_identity(tid):
            continue
        M = F.mats[tid] % p
        for r in range(F.dims[m.src]):
            row = {offsets[m.src] + r: 1}
            for c in range(F.dims[m.tgt]):
                v = int(M[r, c])
                if v:
                    row[offsets[m.tgt] + c] = (row.get(offsets[m.tgt] + c, 0) - v) % p
            rows.append(row)
    mat = FpMatrix.from_row_entries(len(rows), total, p, rows)
    return total - mat.rank()


@dataclass
class ModuleData:
    """A module over a permutation group: dimension plus one matrix per generator."""

    dim: int
    generator_matrices: list[np.ndarray]


def element_action_matrices(G, module: ModuleData, p: int) -> list[np.ndarray]:
    """Matrices for every group element, propagated along generator words."""
    eye = np.eye(module.dim, dtype=np.int64)
    gens = [np.asarray(M, dtype=np.int64) % p for M in module.generator_matrices]
    if len(gens) != len(G.generators):
        raise NotAFunctor("one action matrix per group generator is required")
    out: list[np.ndarray | None] = [None] * G.order
    for i, word in enumerate(G.words):
        M = eye
        for k in word:
            M = (M @ gens[k]) % p
        out[i] = M
    return out
