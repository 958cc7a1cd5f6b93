"""Higher limits of contravariant F_p-linear functors on finite categories.

A functor assigns a vector-space dimension to every object and a matrix
F(f): F(tgt) -> F(src) to every morphism, with F(f then g) = F(f) F(g).
All the matrices sit in one flat array of entries mod p, token after token,
each row-major, so the layout follows from the dimensions (``LinearFunctor``).
``lim^n`` is computed from the normalized cochain complex whose degree-n
piece is the direct sum of F(c_0) over composable chains
c_0 -> c_1 -> ... -> c_n of non-identity morphisms, in the head-major order
of ``chains`` (tokens are numbered grouped by source, as
``FiniteCategory.set_tokens`` enforces) over the heads with F(c_0) != 0.
Each face's block column comes from the face tables of ``chains``.  A
complex built to ``nmax`` certifies lim^n for n <= nmax-1, and lim^0 is
cross-checked against the directly solved compatible-family system.

Each differential d: C^n -> C^{n+1} is written transposed, rows indexed by
C^{n+1}, so the complex is a ``homology.FpComplex`` whose boundary in
degree n+1 is d, and lim^n is its homology in degree n, ranked exactly as a
nerve's: each rank stops at the bound ∂² = 0 forces (see ``fplinalg``).
``limits_profile`` keeps its results in a per-run store keyed on the
functor's whole content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .categories import FiniteCategory, Functor, _expand, _offsets
from .chains import Chains, _fp_matrix, chain_counts, cochain_differentials
from .errors import DEFAULT_BUDGET, BudgetExceeded, NotAFunctor, PLocalError
from .homology import FpComplex


@dataclass
class LinearFunctor:
    """A contravariant functor to F_p vector spaces on a finite category.

    Token t's matrix, of shape (dims[src t], dims[tgt t]), is the row-major
    block ``entries[offsets[t]:offsets[t + 1]]``: the entries are reduced mod
    p at construction, and ``offsets`` follows from dims and the category."""

    category: FiniteCategory
    prime: int
    dims: list[int]
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.int64) % self.prime
        dims = np.asarray(self.dims, dtype=np.int64)
        self.offsets = _offsets(dims[self.category.src] * dims[self.category.tgt])

    def blocks(self, toks) -> np.ndarray:
        """The entries of the given tokens' matrices, laid end to end."""
        toks = np.asarray(toks, dtype=np.int64)
        blk, pos, _ = _expand(np.diff(self.offsets)[toks])
        return self.entries[self.offsets[toks[blk]] + pos]

    def validate(self):
        """Exhaustive functoriality check; raises NotAFunctor on any failure."""
        C = self.category
        p = self.prime
        if len(self.entries) != self.offsets[-1]:
            raise NotAFunctor(f"{len(self.entries)} entries where the dimensions "
                              f"need {self.offsets[-1]}")
        dims = np.asarray(self.dims, dtype=np.int64)
        rows, cols = dims[C.src], dims[C.tgt]
        ident = C.identity_ids
        if (ident < 0).any():
            raise PLocalError(f"object {np.argmin(ident >= 0)} has no identity token")
        for i, tid in enumerate(ident.tolist()):
            eye = np.eye(self.dims[i], dtype=np.int64).ravel()
            if not np.array_equal(self.blocks([tid]), eye):
                raise NotAFunctor(f"identity at object {i} is not the identity matrix")
        # Composition, one stacked matmul per (rows, inner, cols) shape; the
        # first unfilled or failing pair in store order is reported.
        t1, t2 = C.pairs()
        t3 = C.composite
        filled = t3 >= 0
        bad = [int(np.argmin(filled))] if not filled.all() else []
        t3 = np.where(filled, t3, t1)
        fits = (rows[t3] == rows[t1]) & (cols[t3] == cols[t2])
        bad.extend(np.flatnonzero(filled & ~fits)[:1].tolist())
        ok = filled & fits
        base = int(dims.max(initial=0)) + 1
        key = (rows[t1] * base + cols[t1]) * base + cols[t2]
        for k in np.unique(key[ok]).tolist():
            a, b, c = k // base // base, k // base % base, k % base
            sel = np.flatnonzero(ok & (key == k))
            n = len(sel)
            lhs = self.blocks(t1[sel]).reshape(n, a, b) @ self.blocks(t2[sel]).reshape(n, b, c)
            wrong = (lhs % p != self.blocks(t3[sel]).reshape(n, a, c)).any(axis=(1, 2))
            bad.extend(sel[wrong][:1].tolist())
        if bad:
            k = min(bad)
            if not filled[k]:
                raise PLocalError(f"composite of tokens ({t1[k]},{t2[k]}) is not filled")
            raise NotAFunctor(f"composition fails at tokens ({t1[k]},{t2[k]})")

    def restrict(self, sub: FiniteCategory, inclusion: Functor) -> "LinearFunctor":
        dims = [self.dims[i] for i in inclusion.object_map]
        return LinearFunctor(sub, self.prime, dims, self.blocks(inclusion.morphism_map))


def functor_cochain_complex(F: LinearFunctor, nmax: int,
                            budget: int = DEFAULT_BUDGET) -> FpComplex:
    """Build the normalized cochain complex of a (validated) functor.

    The differential evaluated on a chain c_0 -> ... -> c_{n+1} applies
    F(first arrow) to the head-dropped face, alternates over inner
    compositions (faces through identities die by normalization), and ends
    with the last-dropped face.
    """
    C = F.category
    weights = chain_counts(C, nmax, F.dims)
    for n in range(1, nmax + 1):
        if weights[n] > budget:
            raise BudgetExceeded(n, weights[n], budget)
    chains = Chains(C, nmax, [i for i, d in enumerate(F.dims) if d > 0])
    dims, diffs = cochain_differentials(chains, F.dims, F.entries, F.offsets, F.prime)
    return FpComplex(F.prime, nmax, dims, [None, *diffs])


def limits_profile(F: LinearFunctor, nmax: int, budget: int, memo: dict) -> list[int]:
    """dim lim^n F for n < nmax, after an exhaustive check that F is a
    functor, with lim^0 cross-checked against the compatible-family system.

    ``memo`` is a run's store: a functor equal in content to one already
    limited with the same nmax and budget is not validated or computed
    again.  Only successes are stored, so an error is raised on every call."""
    key = _functor_key(F, nmax, budget)
    if key not in memo:
        F.validate()
        dims = functor_cochain_complex(F, nmax, budget).homology()
        check = inverse_limit_dim(F)
        if dims and dims[0] != check:
            raise PLocalError(
                f"lim^0 mismatch: cochain gives {dims[0]}, compatibility system gives {check}"
            )
        memo[key] = tuple(dims)
    return list(memo[key])


def _functor_key(F: LinearFunctor, nmax: int, budget: int) -> tuple:
    """Everything ``limits_profile`` reads: the category's composition table
    (``FiniteCategory.table_key``, the key nerves are shared by too), the
    prime, nmax, the budget, the dimensions (so every matrix's shape) and
    the entries mod p.  Compared in full, never by digest alone."""
    return (F.category.table_key(), F.prime, nmax, budget, tuple(F.dims),
            F.entries.tobytes())


def inverse_limit_dim(F: LinearFunctor) -> int:
    """dim lim^0 by solving the compatible-family system directly: per
    non-identity token t, one row block x_src - F(t) x_tgt = 0, built as an
    I block and a -F(t) block of COO arrays."""
    C = F.category
    dims = np.asarray(F.dims, dtype=np.int64)
    offsets = _offsets(dims)
    tids = np.flatnonzero(~C.is_id)
    d_src, d_tgt = dims[C.src[tids]], dims[C.tgt[tids]]
    blk, r, row_off = _expand(d_src)
    ent, e, _ = _expand(d_src * d_tgt)      # F(t) entries, row-major per token
    rows = [row_off[blk] + r, row_off[ent] + e // d_tgt[ent]]
    cols = [offsets[C.src[tids[blk]]] + r, offsets[C.tgt[tids[ent]]] + e % d_tgt[ent]]
    vals = [np.ones(len(r), dtype=np.int64), -F.blocks(tids)]
    mat = _fp_matrix(rows, cols, vals, (int(row_off[-1]), int(offsets[-1])), F.prime)
    return int(offsets[-1]) - mat.rank()


@dataclass
class ModuleData:
    """A module over a permutation group: dimension plus one matrix per generator."""

    dim: int
    generator_matrices: list[np.ndarray]


def element_action_matrices(G, module: ModuleData, p: int) -> np.ndarray:
    """Matrices for every group element, propagated along generator words,
    stacked in element order."""
    eye = np.eye(module.dim, dtype=np.int64)
    gens = [np.asarray(M, dtype=np.int64) % p for M in module.generator_matrices]
    if len(gens) != len(G.generators):
        raise NotAFunctor("one action matrix per group generator is required")
    out = np.empty((G.order, module.dim, module.dim), dtype=np.int64)
    for i, word in enumerate(G.words):
        M = eye
        for k in word:
            M = (M @ gens[k]) % p
        out[i] = M
    return out
