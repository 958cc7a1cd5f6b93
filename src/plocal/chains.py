"""Normalized chains of a finite category as integer arrays, and the
boundary matrices built from them.

A degree-d chain c_0 -> ... -> c_d of composable non-identity morphisms is
the row (t_1, ..., t_d) of its tokens; degree 0 holds the head objects.
Nerve boundaries (``homology``), functor cochain differentials (``limits``)
and bar coboundaries, the nerve boundaries of a group's one-object category
(``cohomology``), are all assembled here.

Order: head-major, i.e. by head object c_0, then by tokens left to right.
Degree d is grown from degree d-1 by one join that appends to every row, in
order, each non-identity token leaving its tail, in ascending token order.
The extensions of row j of degree d-1 are then the contiguous block of
degree d starting at ``starts[d][j]``, and row j is their drop-last face.

Face walk: a chain's row is found from its head with no hashing,
``idx = row0[head]``, then ``idx = starts[k][idx] + pos[t_k]`` for k = 1..d,
where ``pos[t]`` is the rank of t among the non-identity tokens with its
source.  This needs tokens numbered grouped by source (object 0's first,
then object 1's, ...); ``FiniteCategory.set_tokens`` enforces it, and it
makes head-major order the lexicographic order of the token rows.

Inner faces compose adjacent tokens by reading the category's composition
store (see ``categories``); nothing is rebuilt here.  Matrices are
assembled as COO arrays, one block per face, and summed into CSR before
reduction mod p.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .categories import FiniteCategory, _expand, _offsets
from .errors import PLocalError
from .fplinalg import FpMatrix


def chain_counts(C: FiniteCategory, dmax: int, weights: list[int] | None = None) -> list[int]:
    """Exact number of normalized chains per degree, by path counting; with
    ``weights``, each chain counts as the weight of its head object.  The
    counts are Python ints (object arrays), so they never overflow."""
    m, out = C.object_count, ~C.is_id
    arrows = np.bincount(C.src[out] * m + C.tgt[out], minlength=m * m).reshape(m, m)
    arrows = arrows.astype(object)
    per_obj = np.array([1] * m if weights is None else list(weights), dtype=object)
    totals = [int(sum(per_obj))]
    for _ in range(dmax):
        per_obj = per_obj @ arrows
        totals.append(int(sum(per_obj)))
    return totals


class Chains:
    """The normalized chains of C through degree ``dmax`` that start at
    ``heads`` (every object by default), with C's tokens as arrays."""

    def __init__(self, C: FiniteCategory, dmax: int, heads=None):
        self.category = C
        self.src, self.tgt, self.is_id = C.src, C.tgt, C.is_id
        out = np.flatnonzero(~self.is_id)
        out_count = np.bincount(self.src[out], minlength=C.object_count)
        out_start = _offsets(out_count)
        self.pos = np.full(C.morphism_count, -1, dtype=np.int64)
        self.pos[out] = np.arange(len(out)) - out_start[self.src[out]]

        tails = np.arange(C.object_count) if heads is None else np.asarray(heads, np.int64)
        self.row0 = np.full(C.object_count, -1, dtype=np.int64)
        self.row0[tails] = np.arange(len(tails))
        self._heads = tails
        self.tokens = [np.empty((len(tails), 0), dtype=np.int64)]
        self.starts: list[np.ndarray | None] = [None]
        for d in range(1, dmax + 1):
            parent, j, starts = _expand(out_count[tails])
            last = out[out_start[tails[parent]] + j]
            rows = np.empty((len(last), d), dtype=np.int64)
            rows[:, :-1] = self.tokens[d - 1][parent]
            rows[:, -1] = last
            self.tokens.append(rows)
            self.starts.append(starts)
            tails = self.tgt[last]
        self.dims = [len(t) for t in self.tokens]

    def heads(self, d: int) -> np.ndarray:
        return self._heads if d == 0 else self.src[self.tokens[d][:, 0]]

    def _walk(self, heads: np.ndarray, rows: np.ndarray) -> np.ndarray:
        idx = self.row0[heads]
        for k in range(rows.shape[1]):
            idx = self.starts[k + 1][idx] + self.pos[rows[:, k]]
        return idx

    def find(self, heads: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row numbers of the given chains; raises unless each row is a chain
        of non-identity tokens leaving its head, and that head starts chains."""
        ok = self.row0[heads] >= 0
        if rows.shape[1]:
            ok &= (self.pos[rows] >= 0).all(axis=1) & (self.src[rows[:, 0]] == heads)
            ok &= (self.tgt[rows[:, :-1]] == self.src[rows[:, 1:]]).all(axis=1)
        if not ok.all():
            raise PLocalError("image is not a chain of composable non-identity morphisms")
        return self._walk(heads, rows)

    def faces(self, d: int):
        """For i = 0..d, the face of every degree-d chain that drops vertex
        c_i, as ``(sign, rows, face_rows)``.  Faces through an identity, and
        drop-first faces whose head starts no chains, are left out."""
        T = self.tokens[d]
        head0 = self.tgt[T[:, 0]]
        rows = np.flatnonzero(self.row0[head0] >= 0)
        yield 1, rows, self._walk(head0[rows], T[rows, 1:])
        for i in range(1, d):
            u = self.category.composites(T[:, i - 1], T[:, i])
            if (u < 0).any():
                raise PLocalError("composition misses a composable pair")
            rows = np.flatnonzero(~self.is_id[u])
            face = np.concatenate([T[rows, :i - 1], u[rows, None], T[rows, i + 1:]], axis=1)
            yield (-1) ** i, rows, self._walk(self.heads(d)[rows], face)
        parent = np.repeat(np.arange(self.dims[d - 1]), np.diff(self.starts[d]))
        yield (-1) ** d, np.arange(len(T)), parent


def _fp_matrix(rows, cols, vals, shape, prime: int) -> FpMatrix:
    coo = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return FpMatrix(sparse.csr_matrix(coo, shape=shape, dtype=np.int64), prime)


def nerve_boundary(chains: Chains, d: int, prime: int) -> FpMatrix:
    """The boundary from degree d to d-1, one +-1 block per face; row i is
    the boundary of chain i."""
    rows, cols, vals = [], [], []
    for sign, r, face in chains.faces(d):
        rows.append(r)
        cols.append(face)
        vals.append(np.full(len(r), sign, dtype=np.int64))
    return _fp_matrix(rows, cols, vals, (chains.dims[d], chains.dims[d - 1]), prime)


def cochain_differentials(chains: Chains, dims: list[int], mats: dict, prime: int
                          ) -> tuple[list[int], list[FpMatrix]]:
    """Degree sizes and differentials C^n -> C^{n+1} of the normalized
    cochain complex of a contravariant functor with these object dimensions
    and token matrices, with rows indexed by C^n.  A chain carries
    ``dims[head]`` coordinates; its column block has F(first arrow) at the
    drop-first face and +-I at the others.  ``chains`` must start exactly at
    the objects of nonzero dimension."""
    dims = np.asarray(dims, dtype=np.int64)
    # COO of F(t) mod p for every non-identity token t
    blk_nnz = np.zeros(len(chains.src), dtype=np.int64)
    blk = [[np.zeros(0, dtype=np.int64)] for _ in range(3)]
    for t in np.flatnonzero(~chains.is_id).tolist():
        M = np.asarray(mats[t], dtype=np.int64) % prime
        r, c = np.nonzero(M)
        blk_nnz[t] = len(r)
        for part, x in zip(blk, (r, c, M[r, c])):
            part.append(x)
    blk_ptr = _offsets(blk_nnz)
    blk_r, blk_c, blk_v = (np.concatenate(part) for part in blk)

    offsets = [_offsets(dims[chains.heads(d)]) for d in range(len(chains.tokens))]
    diffs = []
    for n in range(len(chains.tokens) - 1):
        first = chains.tokens[n + 1][:, 0]
        row_of, local, row_off = _expand(dims[chains.heads(n + 1)])
        col_off = offsets[n]
        rows, cols, vals = [], [], []
        for i, (sign, r, face) in enumerate(chains.faces(n + 1)):
            at = np.full(len(first), -1, dtype=np.int64)
            at[r] = face
            if i == 0:
                ent, j, _ = _expand(blk_nnz[first])
                e = blk_ptr[first[ent]] + j
                rows.append(row_off[ent] + blk_r[e])
                cols.append(col_off[at[ent]] + blk_c[e])
                vals.append(blk_v[e])
            else:
                sel = np.flatnonzero(at[row_of] >= 0)
                rows.append(sel)
                cols.append(col_off[at[row_of[sel]]] + local[sel])
                vals.append(np.full(len(sel), sign, dtype=np.int64))
        shape = (int(col_off[-1]), int(row_off[-1]))
        diffs.append(_fp_matrix(cols, rows, vals, shape, prime))
    return [int(o[-1]) for o in offsets], diffs
