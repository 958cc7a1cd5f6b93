"""Normalized chains of a finite category as integer arrays, and the
boundary matrices built from them.

A degree-d chain c_0 -> ... -> c_d of composable non-identity morphisms has
the token row (t_1, ..., t_d); degree 0 holds the head objects.  Nerve
boundaries (``homology``), functor cochain differentials (``limits``) and
bar coboundaries, the nerve boundaries of a group's one-object category
(``cohomology``), are all assembled here.

Order: head-major, i.e. by head object c_0, then by tokens left to right.
Degree d is grown from degree d-1 by one join that extends every row, in
order, by each non-identity token leaving its tail, in ascending token order.
The extensions of row j of degree d-1 are then the contiguous block of
degree d starting at ``starts[d][j]``: the extension by t is row
``starts[d][j] + pos[t]``, where ``pos[t]`` is the rank of t among the
non-identity tokens with its source.  A degree keeps only each chain's last
token and parent row j (its drop-last face), never the token rows; only
degree 0 keeps heads, and a reader derives degree d's as it walks the
degrees, ``heads[d] = heads[d-1][parent[d]]``.
Tokens must be numbered grouped by source (object 0's first, then object
1's, ...); ``FiniteCategory.set_tokens`` enforces it, and it makes
head-major order the lexicographic order of the token rows.

Faces by recursion (after Bauer, "Ripser", 2021: faces are derived from
the combinatorics of the numbering, not kept and searched for).  Let
F_{d,i} be the face of a degree-d chain that drops vertex c_i, and let a
chain c have parent q, grandparent g and last token t.  For i <= d-2, face i
keeps t, so F_{d,i}(c) is face i of q extended by t, the row
``starts[d-1][F_{d-1,i}(q)] + pos[t]``.  Face d-1 composes q's last token u
with t, so it is g extended by u·t, one lookup in the category's
composition store; the last face is q.  A face through an identity, or whose
head starts no chains, is -1, and so is every face derived from it.  So each
degree's face table is derived from the table before it, and is dropped
once the next degree's is made.  The images of an induced chain map follow
the same recursion: a chain's image is its parent's, extended by the image
of its last token.

Every array is int32, and is gathered once per parent row and repeated
over that row's extensions rather than gathered once per chain.  This is
exact because the chains with parent q are the block
``starts[d][q]:starts[d][q+1]``, so ``parent[d]`` is ``arange`` repeated by
``diff(starts[d])``, and the face rows ``starts[d-1][F_{d-1,i}(q)]``, the
grandparent's offset ``starts[d-1][g]`` and the composition slot base of u
depend on q alone.  A degree whose exact row count, an int64 offset,
reaches ``ROW_LIMIT`` = 2^31 raises before any of its arrays is allocated.

Nerve boundaries are written as CSR straight from the face table, one entry
per live face; cochain differentials, a block of entries per face, are
summed from COO arrays.  Either way the entries are the integer ones, the
signs (-1)^i included at every p; ``FpMatrix`` sums duplicate faces and
then reduces mod p, the only place that does.
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


# rows are int32: a degree with this many chains or more raises before it
# is allocated
ROW_LIMIT = 1 << 31


class Chains:
    """The normalized chains of C through degree ``dmax`` that start at
    ``heads`` (every object by default), which degree 0 keeps.  Degree
    d >= 1 keeps, per chain, its last token and its parent (drop-last face)
    row in degree d-1; the token rows and the heads of its chains are never
    built.  Every array is int32."""

    def __init__(self, C: FiniteCategory, dmax: int, heads=None):
        self.category = C
        self.src, self.tgt, self.is_id = C.src, C.tgt, C.is_id
        out = np.flatnonzero(~self.is_id)
        out_count = np.bincount(self.src[out], minlength=C.object_count)
        out_start = _offsets(out_count)
        self.pos = np.full(C.morphism_count, -1, dtype=np.int32)
        self.pos[out] = np.arange(len(out)) - out_start[self.src[out]]
        out_tgt, out = self.tgt[out], out.astype(np.int32)

        tails = np.arange(C.object_count) if heads is None else np.asarray(heads, np.int64)
        self.row0 = np.full(C.object_count, -1, dtype=np.int32)
        self.row0[tails] = np.arange(len(tails))
        self.heads = tails.astype(np.int32)
        self.last: list[np.ndarray | None] = [None]
        self.parent: list[np.ndarray | None] = [None]
        self.starts: list[np.ndarray | None] = [None]
        for d in range(1, dmax + 1):
            counts = out_count[tails]
            starts = _offsets(counts)
            if starts[-1] >= ROW_LIMIT:
                raise PLocalError(f"degree {d} has {starts[-1]} chains, past 32-bit rows")
            # row starts[q] + j extends row q by the j-th token leaving its tail
            k = (out_start[tails] - starts[:-1]).repeat(counts) + np.arange(starts[-1])
            self.last.append(out[k])
            self.parent.append(np.arange(len(tails), dtype=np.int32).repeat(counts))
            self.starts.append(starts.astype(np.int32))
            if d < dmax:
                tails = out_tgt[k]
        self.dims = [len(self.heads)] + [len(t) for t in self.last[1:]]

    def faces(self):
        """For d = 1..dmax in turn, the (dims[d], d+1) table whose column i
        holds the row of each chain's face that drops vertex c_i, or -1 where
        that face goes through an identity or starts at no head.  Each table
        is derived from the one before and dropped when the next is made."""
        table = None
        for d in range(1, len(self.dims)):
            table = self._face_table(d, table)
            yield table

    def _face_table(self, d: int, prev: np.ndarray | None) -> np.ndarray:
        """Degree d's face table from degree d-1's; its temporaries are freed
        on return, before the caller reads the table."""
        C = self.category
        last, starts = self.last[d].astype(np.intp), self.starts[d]
        counts = starts[1:] - starts[:-1]
        if starts[0] or starts[-1] != len(last) or counts.min(initial=0) < 0:
            raise PLocalError(f"degree {d} chain offsets do not lay out its rows")
        tail = self.heads if d == 1 else self.tgt[self.last[d - 1]]
        if (self.src[last] != tail.repeat(counts)).any():
            raise PLocalError(f"a degree {d} chain's last token does not leave its parent's tail")
        table = np.empty((len(last), d + 1), dtype=np.int32)
        if d == 1:
            table[:, 0] = self.row0[self.tgt[last]]
        else:
            # a dead face, -1, reads the entry appended here, which stays
            # negative once any pos[t] is added and is then clipped to -1
            below = np.concatenate((self.starts[d - 1], [-len(self.pos)]))
            at = self.pos[last]
            for i in range(d - 1):
                np.add(below[prev[:, i]].repeat(counts), at, out=table[:, i])
            u = self.last[d - 1]
            uv = C.composite[(C.pair_start[u] - C.first[tail]).repeat(counts) + last]
            if (uv < 0).any():
                raise PLocalError("composition misses a composable pair")
            grand = below[self.parent[d - 1]].repeat(counts)
            table[:, d - 1] = np.where(self.is_id[uv], -1, grand + self.pos[uv])
            np.maximum(table, -1, out=table)
        table[:, d] = self.parent[d]
        return table


NOT_A_CHAIN = "image is not a chain of composable non-identity morphisms"


def chain_images(source: Chains, target: Chains, object_map: np.ndarray,
                 morphism_map: np.ndarray, dmax: int):
    """For d = 0..dmax in turn, the row in ``target`` of the image of each
    degree-d chain of ``source`` under the given maps, or -1 where an image
    token is an identity.  A chain's image is its parent's extended by the
    image of its last token.  Raises unless every other image is a chain of
    composable tokens whose head starts chains, and every object and token
    either map gives is one of the target's.  The rows come out as intp,
    as does every int32 chain array once per degree before it indexes,
    since numpy gathers through an intp index faster than through int32."""
    for m, n in ((object_map, len(target.row0)), (morphism_map, len(target.is_id))):
        if len(m) and (m.min() < 0 or m.max() >= n):
            raise PLocalError(NOT_A_CHAIN)
    heads = object_map[source.heads]
    rows = target.row0[heads].astype(np.intp)
    if (rows < 0).any():
        raise PLocalError(NOT_A_CHAIN)
    yield rows
    tails = heads
    for d in range(1, dmax + 1):
        parent = source.parent[d].astype(np.intp)
        t = morphism_map[source.last[d].astype(np.intp)]
        at = rows[parent]
        live = (at >= 0) & ~target.is_id[t]
        if (target.src[t[live]] != tails[parent[live]]).any():
            raise PLocalError(NOT_A_CHAIN)
        rows = np.where(live, target.starts[d][at] + target.pos[t], -1).astype(np.intp)
        yield rows
        tails = target.tgt[t]


def _fp_matrix(rows, cols, vals, shape, prime: int) -> FpMatrix:
    coo = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return FpMatrix(sparse.csr_matrix(coo, shape=shape, dtype=np.int64), prime)


def nerve_boundaries(chains: Chains, prime: int) -> list[FpMatrix | None]:
    """``[None, ∂_1, ..., ∂_dmax]``: row i of ∂_d is the boundary of chain i,
    written as CSR straight from the face table."""
    out: list[FpMatrix | None] = [None]
    for d, table in enumerate(chains.faces(), start=1):
        live = table >= 0
        indptr = np.zeros(len(table) + 1, dtype=np.int64)
        for i in range(d + 1):
            indptr[1:] += live[:, i]
        np.cumsum(indptr, out=indptr)
        csr = sparse.csr_matrix((_face_signs(live, indptr), table[live], indptr),
                                shape=(chains.dims[d], chains.dims[d - 1]))
        out.append(FpMatrix(csr, prime))
    return out


def _face_signs(live: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The entry of each live face, row by row: (-1)^i at the face that
    drops vertex i, at every p.  Its per-row positions are freed on return,
    before the caller gathers the indices, so they add nothing to the
    peak."""
    data = np.ones(int(indptr[-1]), dtype=np.int64)
    at = indptr[:-1].copy()  # where each row's next entry goes
    for i in range(1, live.shape[1]):
        at += live[:, i - 1]
        if i % 2:
            data[at[live[:, i]]] = -1
    return data


def cochain_differentials(chains: Chains, dims: list[int], entries: np.ndarray,
                          offsets: np.ndarray, prime: int) -> tuple[list[int], list[FpMatrix]]:
    """Degree sizes and differentials C^n -> C^{n+1} of the normalized
    cochain complex of a contravariant functor with these object dimensions
    and token matrices (``entries`` and ``offsets`` as ``limits.LinearFunctor``
    stores them), each written transposed, with rows indexed by C^{n+1} and
    columns by C^n, as a nerve boundary is.  A chain carries ``dims[head]``
    coordinates; its row block has F(first arrow) at the drop-first face and
    +-I at the others.  ``chains`` must start exactly at the objects of
    nonzero dimension."""
    dims = np.asarray(dims, dtype=np.int64)
    # COO of every token's matrix: its nonzero entries in store order
    nz = np.flatnonzero(entries)
    tok = np.searchsorted(offsets, nz, "right") - 1
    blk_r, blk_c = np.divmod(nz - offsets[tok], dims[chains.tgt[tok]])
    blk_ptr = np.searchsorted(nz, offsets)

    # each degree's heads are its parents', read as the degrees are walked
    heads, first = chains.heads, chains.last[1].astype(np.intp)
    col_off = _offsets(dims[heads])
    sizes, diffs = [int(col_off[-1])], []
    for n, table in enumerate(chains.faces()):
        heads = heads[chains.parent[n + 1]]
        if n:
            first = first[chains.parent[n + 1]]
        row_of, local, row_off = _expand(dims[heads])
        # drop-first face: F(first arrow), with no entries where that face is absent
        ent, j, _ = _expand(np.diff(blk_ptr)[first])
        e = blk_ptr[first[ent]] + j
        rows, cols, vals = [row_off[ent] + blk_r[e]], [col_off[table[ent, 0]] + blk_c[e]], [entries[nz[e]]]
        for i in range(1, n + 2):
            at = table[row_of, i]
            sel = np.flatnonzero(at >= 0)
            rows.append(sel)
            cols.append(col_off[at[sel]] + local[sel])
            vals.append(np.full(len(sel), (-1) ** i, dtype=np.int64))
        shape = (int(row_off[-1]), int(col_off[-1]))
        diffs.append(_fp_matrix(rows, cols, vals, shape, prime))
        sizes.append(shape[0])
        col_off = row_off
    return sizes, diffs
