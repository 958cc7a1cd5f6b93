"""Exact sparse and dense linear algebra over the field with p elements.

Every complex is written over the integers, with its real signs, at every
p; ``FpMatrix`` alone reduces mod p.  Its CSR (scipy) is canonical, with
int64 entries stored as symmetric residues, |x| <= p//2: unique at odd p
(-1 and 1 at p = 3), while at p = 2 both -1 and 1 stand for 1 (the GF(2)
engine reads only the indices, and ``equals`` tests differences mod p).
Duplicates are summed first and the sums reduced once; an array already
in range is not written.  A product, as in every ∂² check, is taken over
the integers on the stored entries, with no copy, so the product of two
nerve boundaries cancels before it is sorted or reduced, and what is left
is reduced and tested, so the check stays exact.  Ranks come from an
insertion echelon: each row is reduced against the pivots found so far,
keyed by their leading (largest) column, and becomes a new pivot if
anything is left.  Rows are big-integer bitmasks at p = 2 and {column:
coefficient} dicts otherwise.  All routines are deterministic: identical
inputs give identical pivot choices and results.

Stored pivots are never changed, so the echelon after k rows does not
depend on any row after them, and the bounded and seeded passes below keep
exactly the echelon a full pass keeps.  A full pass here means one that
inserts every row in the engine's order, which at p = 2 is not row order.
Over F_p with p > 2 a new pivot is also tail-reduced: before it is stored it
is cleared at every pivot column below its leading one, largest first.  A
pivot's entries at other pivot columns cost a further step in every row it
reduces, and over F_p every row is still reduced, most of them to zero, so
clearing those entries once pays.  At p = 2 only the rows that add a pivot
are reduced (below), so a pivot is stored as it stands.

At p = 2 rows go in in two phases (the structural pivots of Faugère and
Lachartre, PASCO 2010, and of Bouillaguet, Delaplace and Voge, ISSAC 2017).
The structural phase comes first.  For each leading column c that no seed
leads, it inserts the first row whose leading column is c, in ascending order
of c.  One ``np.minimum.at`` over the rows' last CSR indices finds these
rows, with no sort.  When such a row goes in, every stored pivot leads at a
seed or at a smaller column, so its own lead is no pivot column.  It
becomes a pivot as it stands, with no reduction at all.  The other rows
then go in in row order.  Rows with distinct leads are independent, so the
echelon's span is large from the start.
On the three degree-3 boundaries below, 493 of 505, 1,219 of 1,244 and 1,479
of 1,538 pivots are structural.  Over F_p with p > 2 rows go in in row order:
the order alone gained nothing there, since no span filter profits from the
early span (50.8 s structural-first against 50.3 s on the sym:4, p = 3
transporter-poset ∂_4).

``FpMatrix.rank`` keeps that echelon, unless it certifies the rank (below).  A
matrix may declare that below its stored rows come the rows ``[0 | block]``
of another matrix ``block``, starting at a column offset; a mapping cone
declares the target's boundary this way.  Those tail rows are referenced,
never stored: ``csr`` holds the leading rows only, while ``shape`` and
``nnz`` count the tail too.  So the tail is ``[0 | block]`` by
construction, and a block whose prime or width does not fit raises when
the matrix is built.  If ``block`` already holds its echelon, ``rank``
seeds its echelon with block's pivots shifted by the offset, and inserts
only the leading rows.  The shifted pivots are the ones inserting the tail
rows first would store, reduced the same way, since the shift keeps the
order of the columns.  Otherwise, unless the rank is certified, it stacks
the leading rows over ``[0 | block]`` into one CSR and eliminates every
row, as for any other matrix, in the same order and so with the same
echelon.  An echelon is reused only when it already exists: computing one
for the block just to seed from it can cost far more than the whole matrix,
because the leading rows often span most of it early.

``rank`` may also be given an upper bound on the rank; it always caps at
``min(shape)`` too, and at 0 when the matrix has no entries.  Insertion stops
as soon as the echelon holds that many pivots, seeded ones included, and the
rows after that are never read.  The result stays exact when the bound is a
true upper bound: the rows inserted so far then span the whole row space, so
every later row would reduce to zero and add no pivot, and the stopped echelon
is the one a full pass would keep.  Every complex supplies the bound from
∂² = 0, which ``homology.FpComplex`` checks: the rows of ∂_d lie in the left
kernel of ∂_{d-1}, so rank ∂_d <= dim C_{d-1} - rank ∂_{d-1}.  Nerves,
mapping cones and functor cochain complexes are all written in that
orientation, a cochain differential C^n -> C^{n+1} transposed with rows
indexed by C^{n+1}.  For an acyclic complex (the mapping cone of an
isomorphism) that bound is the rank, and elimination ends at the row that
finds the last pivot.

Often no row need be read at all.  Before inserting any, ``rank`` counts
its seeds plus the distinct leading columns, among the rows it would
insert, that no seed leads, with the one ``np.minimum.at`` that also finds
the structural rows at p = 2.  The seeds and one row per such column have
pairwise distinct leading columns, so they are linearly independent and the
rank is at least the count.  When the count reaches the cap, the rank is
the cap, exactly, because the cap bounds it from above: the rank is
certified and no row is read.  The seeds are counted by the leads of the
block's echelon; its pivots are shifted only when they are kept.  Unseeded,
the leading columns are those of the stored rows and then the block's,
plus the offset, so no row is stacked to count them.  A certified matrix
keeps no echelon, so a cone over it inserts every row unseeded, as over a
block never ranked.
The top boundaries of acyclic cones are certified this way: on the four
boundaries of the sym:3 x cyc:3, p = 3 centric-restriction cone the counts
1, 17, 289 and 4,913 equal their ∂² bounds, and no row of the 5,220 that
elimination read is read; at p = 2 so are the transporter-to-linking cones
of sym:4 and dih:8.

At p = 2 the engine reduces, after the structural phase, only the rows
that add a pivot.  A row v lies in span(E) exactly when v y = 0 for every y
in the annihilator {y : E y = 0}.  A basis Y of it is built once, right
after the structural phase, in one ascending pass over the leads: a unit
vector at each free column, and at each lead c the XOR of Y over the other
columns of the row leading at c.  Those rows are the structural rows, read
from their CSR indices, and the seeds; they span E and have distinct
leads, all above their other columns.  Packed into uint64 words, Y tests a
chunk of rows with one gather and one XOR reduction per word.  A row's
syndrome, the XOR of Y over its columns, is 0 exactly when the row lies in
span(E); an empty row lies in every span.  Within a chunk, the nonzero
syndromes are eliminated in row order, and a row whose syndrome is
independent of those before it is reduced and becomes a pivot; the others
lie in the span of E and the rows before them, and would reduce to zero.
Each new pivot, with b the top bit of its syndrome v, is folded into Y:
every column of Y with bit b set takes ^= v.  That clears bit b and keeps
Y a basis of the annihilator of the grown echelon, so a later row in its
span tests 0.  The test is exact linear algebra, with no hashing and no
randomness, and the kept echelon is the one a full pass in the same order
keeps, in keys, values and insertion order, whatever the seeds, bound or
cap.  Rows are reduced in blocks, the first as long as the matrix is wide
and each later one half as long as the rows tested so far, and a block is
tested in chunks of at most 2^18 entries and 2^18 syndrome words.  After
the structural phase Y is narrow: ncols - rank is 36, 79 and 141 columns
on the three degree-3 boundaries of the sym:4, p = 2 homology checks, one
to three words.  Those boundaries never reach their ∂² bound, because
H_2 ≠ 0, and they reduce 505, 1,244 and 1,538 rows: their ranks.  Memory:
Y takes ncols * ceil((ncols - rank) / 64) words, and it is built only when
that is at most 2 nnz, about the size of the CSR itself; a gather holds
one word per entry of its chunk.  When Y would be larger every block is
reduced whole.  The F_p path has no filter: a dense annihilator takes at
least a byte per entry, so even an int8 one would take 8 times the memory
of a packed bit plane.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy import sparse

from .errors import PLocalError


class FpMatrix:
    """A sparse matrix over F_p with row-major (CSR) storage.

    An int64 ``csr`` is taken over, not copied: its entries are mapped to
    symmetric residues in place, and left untouched when they already are.
    ``tail`` optionally appends the rows ``[0 | block]`` below the rows of
    ``csr``, given as ``(block, column offset)``.  They are referenced, not
    stored: ``csr`` holds the leading rows only, and ``shape`` and ``nnz``
    count both.  See the module docstring.
    """

    def __init__(self, csr: sparse.csr_matrix, prime: int,
                 tail: tuple["FpMatrix", int] | None = None):
        self.prime = prime
        csr = sparse.csr_matrix(csr, dtype=np.int64)
        if not csr.has_canonical_format:
            csr.sum_duplicates()
        _symmetric(csr, prime)
        if tail is not None:
            block, offset = tail
            if block.prime != prime or offset < 0 or csr.shape[1] != offset + block.shape[1]:
                raise PLocalError("declared block does not fit the matrix")
        self.csr = csr
        self.tail = tail
        self.echelon: dict | None = None
        self._rank: int | None = None

    @property
    def shape(self) -> tuple[int, int]:
        nrows, ncols = self.csr.shape
        if self.tail is not None:
            nrows += self.tail[0].shape[0]
        return nrows, ncols

    @property
    def nnz(self) -> int:
        # the entries held, not ``csr.nnz``: that reads the row pointer
        return self.csr.data.size + (0 if self.tail is None else self.tail[0].nnz)

    def rank(self, bound: int | None = None) -> int:
        """The rank over F_p.  ``bound``, if given, must be an upper bound on
        it; elimination stops once ``min(bound, *shape)`` pivots are found
        (0 when there are no entries), and does not start when the seeds and
        the rows' distinct unseeded leads already number that many (see the
        module docstring)."""
        if self._rank is None:
            cap = min(self.shape) if bound is None else min(bound, *self.shape)
            if not self.nnz:  # no entries (``__init__`` pruned them)
                cap = 0  # rank 0, and no row is read
            seeds, offset, stacked = {}, 0, self.tail is not None
            if stacked and self.tail[0].echelon is not None:
                block, offset = self.tail
                seeds, stacked = block.echelon, False  # only the stored rows go in
            leads = self._stacked_leads() if stacked else _leads(self.csr)
            if len(seeds) < cap:
                structural = _structural_rows(leads, [c + offset for c in seeds], self.shape[1])
                if len(seeds) + len(structural) >= cap:
                    self._rank = cap  # certified: no row read, no echelon kept
                    return cap
            # the seeds are shifted only now, when they are kept or eliminated against
            pivots = _shifted_echelon(seeds, offset, self.prime)
            if len(pivots) < cap:
                # neither certified nor seeded: only now are the tail rows stacked
                csr = self._stacked() if stacked else self.csr
                if self.prime == 2:
                    _insert_rows_gf2(csr, len(leads), structural, pivots, cap)
                else:
                    _insert_rows_modp(csr, range(len(leads)), self.prime, pivots, cap)
            self.echelon = pivots
            self._rank = len(pivots)
        return self._rank

    def _stacked_leads(self) -> np.ndarray:
        """The leading column of every row, the tail's included, -1 for an
        empty row."""
        leads = _leads(self.csr)
        if self.tail is None:
            return leads
        block, offset = self.tail
        below = block._stacked_leads()
        below[below >= 0] += offset
        return np.concatenate([leads, below])

    def _stacked(self) -> sparse.csr_matrix:
        """Every row as one CSR: the stored rows over ``[0 | block]``."""
        if self.tail is None:
            return self.csr
        block, offset = self.tail
        head, below = self.csr, block._stacked()
        return sparse.csr_matrix(
            (
                np.concatenate([head.data, below.data]),
                np.concatenate([head.indices, below.indices + offset]),
                np.concatenate([head.indptr, head.indptr[-1] + below.indptr[1:]]),
            ),
            shape=self.shape,
        )

    def matmul(self, other: "FpMatrix") -> "FpMatrix":
        """``self @ other`` over F_p; other's tail block is multiplied as it
        stands, never stacked."""
        return FpMatrix(_times(self._stacked(), other), self.prime)

    def is_zero(self) -> bool:
        return self.nnz == 0

    def equals(self, other: "FpMatrix") -> bool:
        if self.shape != other.shape or self.prime != other.prime:
            return False
        return ((self._stacked() - other._stacked()).data % self.prime == 0).all()


def _times(a: sparse.csr_matrix, m: FpMatrix) -> sparse.csr_matrix:
    """``a @ m`` over the integers, on the stored residues.  A tail
    ``[0 | block]`` of m meets the columns of ``a`` past m's stored rows,
    and their product lands ``offset`` columns to the right."""
    if m.tail is None:
        return a @ m.csr
    block, offset = m.tail
    split = m.csr.shape[0]
    low = _times(a[:, split:], block).tocsr()
    low = sparse.csr_matrix((low.data, low.indices + offset, low.indptr),
                            shape=(a.shape[0], m.shape[1]))
    return a[:, :split] @ m.csr + low


def _symmetric(csr: sparse.csr_matrix, p: int) -> None:
    """Map the entries of ``csr`` in place to symmetric residues, |x| <= p//2,
    and drop the zeros.  Entries already in that range are not written, and
    the zeros are dropped only when there is one."""
    data = csr.data
    if not data.size:
        return
    half = p // 2
    if data.min() < -half or data.max() > half:
        out = np.flatnonzero((data < -half) | (data > half))
        data[out] = (data[out] + half) % p - half
    if not data.all():
        csr.eliminate_zeros()


def _shifted_echelon(pivots: dict, offset: int, p: int) -> dict:
    """An echelon moved ``offset`` columns to the right."""
    if p == 2:
        return {c + offset: m << offset for c, m in pivots.items()}
    return {
        c + offset: {k + offset: v for k, v in row.items()} for c, row in pivots.items()
    }


def _leads(csr: sparse.csr_matrix) -> np.ndarray:
    """The leading column of each row of ``csr``, -1 for an empty row."""
    indptr = np.asarray(csr.indptr)
    ends = indptr[1:]
    full = ends > indptr[:-1]
    leads = np.full(csr.shape[0], -1, dtype=np.int64)
    # canonical CSR: a row's last index is its leading column
    leads[full] = csr.indices[ends[full] - 1]
    return leads


def _structural_rows(leads: np.ndarray, seeded, ncols: int) -> np.ndarray:
    """For each leading column in ``leads`` (one per row, -1 for an empty
    row) not in ``seeded`` (the leads of the pivots), the first row leading
    there, in ascending order of that column: one ``np.minimum.at`` into a
    row per column, with no sort.  The rows have distinct leads, none a
    pivot's, so they and the pivots are linearly independent."""
    n = len(leads)
    first = np.full(ncols, n, dtype=np.int64)  # n: no row leads there
    rows = np.flatnonzero(leads >= 0)
    np.minimum.at(first, leads[rows], rows)
    first[list(seeded)] = n
    return first[first < n]


def _insert_rows_gf2(csr: sparse.csr_matrix, nrows: int, structural: np.ndarray,
                     pivots: dict[int, int], cap: int) -> None:
    """Insert the first ``nrows`` rows into a GF(2) echelon of bitmask rows,
    stopping once it holds ``cap`` pivots.

    Structural phase: the rows ``structural`` (``_structural_rows`` of the
    rows' leads and ``pivots``) go in first, each a new pivot as it stands.
    The remaining rows then go in their order, in blocks of growing size: a
    block's rows are tested by their syndromes (``_SpanTest``), and only
    the rows that add a pivot are reduced.  When the annihilator does not
    fit, a block's rows are all reduced.

    Stored pivots never change, so stopping at a cap that bounds the rank,
    or starting from seeds, keeps the echelon that a pass over every row
    in this order keeps: the rows never read would reduce to zero."""
    seeds = list(pivots)
    _reduce_rows_gf2(csr, structural.tolist(), pivots, cap)
    ids = np.delete(np.arange(nrows), structural)
    span = _SpanTest(csr, pivots, seeds, structural)
    done = 0
    while len(pivots) < cap and done < len(ids):
        size = max(csr.shape[1], done // 2, 1)
        block = ids[done:done + size]
        if span.basis is not None:
            block = span.new_pivots(block, cap - len(pivots))
        _reduce_rows_gf2(csr, block.tolist(), pivots, cap)
        done += size


def _reduce_rows_gf2(csr: sparse.csr_matrix, rows, pivots: dict[int, int], cap: int) -> None:
    """Insert ``rows`` in order, each reduced at its leading column until
    that column leads no pivot, and then stored as it stands; stops once
    the echelon holds ``cap`` pivots."""
    indptr, indices = csr.indptr, csr.indices
    for i in rows:
        m = 0
        for c in indices[indptr[i]:indptr[i + 1]].tolist():
            m |= 1 << c
        while m:
            b = m.bit_length() - 1
            piv = pivots.get(b)
            if piv is None:
                pivots[b] = m
                if len(pivots) >= cap:
                    return
                break
            m ^= piv


_GATHER = 1 << 18  # entries, and syndrome words, tested at a time by ``_SpanTest.new_pivots``
_BATCH = 1024  # bigints converted to bytes at a time


class _SpanTest:
    """Which rows of a GF(2) matrix add a pivot to an echelon E.

    A row lies in span(E) exactly when it is orthogonal to every y with
    E y = 0.  ``basis`` holds a basis Y of that annihilator, packed as one
    array of uint64 words over the columns per 64 basis vectors; a row's
    syndrome is the XOR of Y over its columns, and it is 0 exactly when the
    row lies in the span.  Empty rows lie in every span.  Y is built once,
    and only when it fits in ``2 * nnz`` words; otherwise ``basis`` is None.
    ``new_pivots`` folds each row it passes on into Y, so Y stays a basis
    of the annihilator of the growing echelon.  Rows are tested one word
    and at most ``_GATHER`` entries and ``_GATHER`` syndrome words at a
    time, so no gather holds more than one word per entry of the matrix.
    """

    def __init__(self, csr: sparse.csr_matrix, pivots: dict[int, int], seeds: list[int],
                 structural: np.ndarray):
        """``pivots`` are ``seeds`` and the structural pivots, which are the
        rows ``structural`` of ``csr`` as they stand."""
        self.indptr = np.asarray(csr.indptr)
        self.indices = csr.indices
        ncols = csr.shape[1]
        words = -(-(ncols - len(pivots)) // 64)
        self.basis = None
        if ncols * words <= 2 * int(self.indptr[-1]):  # 2 nnz
            lo = self.indptr[structural]
            pos, first = _positions(lo, self.indptr[structural + 1] - lo)
            cols = self.indices[pos].tolist()
            below = _read_pivots(seeds, pivots, ncols)
            # canonical CSR: a row's columns ascend, its lead last
            for a, b in zip(first.tolist(), first[1:].tolist() + [len(cols)]):
                below[cols[b - 1]] = cols[a:b - 1]
            self.basis = _annihilator(ncols, words, below)

    def new_pivots(self, ids: np.ndarray, need: int) -> np.ndarray:
        """The rows of ``ids``, in order, that lie outside the span of E and
        of the rows of ``ids`` before them, at most ``need`` of them; each is
        folded into Y.  Each chunk of rows is tested against Y as the chunks
        before it left it."""
        lo = self.indptr[ids]
        lens = self.indptr[ids + 1] - lo
        full = np.flatnonzero(lens)
        if not len(full):
            return ids[:0]
        words = len(self.basis)
        step = max(1, _GATHER // words)
        ends = np.cumsum(lens[full])
        cuts = np.union1d(np.searchsorted(ends, np.arange(_GATHER, ends[-1], _GATHER)),
                          np.arange(step, len(full), step))
        taken: list[int] = []
        for rows in np.split(full, cuts):
            if len(taken) >= need:
                break
            if not len(rows):  # a row of more than _GATHER entries was split on
                continue
            pos, first = _positions(lo[rows], lens[rows])
            cols = self.indices[pos]
            syn = np.empty((words, len(rows)), dtype=np.uint64)
            for w, y in enumerate(self.basis):
                syn[w] = np.bitwise_xor.reduceat(y[cols], first)
            nonzero = np.flatnonzero(syn.any(axis=0))
            fresh = self._eliminate(syn[:, nonzero], need - len(taken))
            taken.extend(rows[nonzero[fresh]].tolist())
        return ids[taken]

    def _eliminate(self, syn: np.ndarray, need: int) -> list[int]:
        """The columns of ``syn``, nonzero syndromes in row order, that are
        independent of those before them, at most ``need`` of them.  Each
        is folded into Y as it is found: with b the top bit of its syndrome
        v, Y's columns with bit b set take ``^= v``, which clears bit b
        everywhere and keeps Y orthogonal to its row.  The later syndromes
        take the same step, so they stay the syndromes against the folded
        Y, and one is 0 exactly when its row lies in the grown span."""
        basis = self.basis
        alive = np.ones(syn.shape[1], dtype=bool)
        taken: list[int] = []
        k = 0
        while len(taken) < need and k < len(alive):
            k += int(alive[k:].argmax())
            if not alive[k]:
                break
            v = syn[:, k].copy()
            w = int(np.flatnonzero(v)[-1])
            top = np.uint64(1 << (int(v[w]).bit_length() - 1))
            hit = np.flatnonzero(syn[w, k + 1:] & top) + (k + 1)
            syn[:, hit] ^= v[:, None]
            alive[hit] = syn[:, hit].any(axis=0)
            hit = np.flatnonzero(basis[w] & top)
            basis[:, hit] ^= v[:, None]
            taken.append(k)
            k += 1
        return taken


def _positions(lo: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR positions of the rows that start at ``lo`` and hold ``n``
    entries each, concatenated, and where each row's first one falls."""
    first = np.cumsum(n) - n
    pos = np.repeat(lo - first, n)
    pos += np.arange(len(pos))
    return pos, first


def _annihilator(ncols: int, words: int, below: dict[int, list[int]]) -> np.ndarray:
    """A basis of {y : E y = 0}, packed into ``words`` rows of uint64, for
    an echelon E spanned by one row per key c of ``below``, leading at c
    with its other columns ``below[c]``: a unit vector at each free column,
    and at each lead c the XOR of the basis over ``below[c]``, all of which
    lie below c."""
    free = np.ones(ncols, dtype=bool)
    free[list(below)] = False
    free = np.flatnonzero(free).tolist()
    leads = sorted(below)
    basis = np.empty((words, ncols), dtype=np.uint64)
    # 32 words at a time, so that no int outgrows the small-object allocator
    for w0 in range(0, words, 32):
        group = min(32, words - w0)
        Y = [0] * ncols
        for k, f in enumerate(free[64 * w0:64 * (w0 + group)]):
            Y[f] = 1 << k
        for c in leads:
            y = 0
            for j in below[c]:
                y ^= Y[j]
            Y[c] = y
        for a in range(0, ncols, _BATCH):
            part = b"".join(y.to_bytes(8 * group, "little") for y in Y[a:a + _BATCH])
            basis[w0:w0 + group, a:a + _BATCH] = \
                np.frombuffer(part, dtype=np.uint64).reshape(-1, group).T
    return basis


def _read_pivots(leads: list[int], pivots: dict[int, int], ncols: int) -> dict[int, list[int]]:
    """The columns below the lead of each pivot in ``leads``."""
    words = -(-ncols // 64)
    below = {}
    for s in range(0, len(leads), _BATCH):
        batch = leads[s:s + _BATCH]
        raw = np.frombuffer(b"".join(pivots[c].to_bytes(8 * words, "little") for c in batch),
                            dtype=np.uint64).reshape(len(batch), words)
        r, w = np.nonzero(raw)
        bits = np.unpackbits(raw[r, w].view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little")
        k, bit = np.nonzero(bits)
        bounds = np.searchsorted(r[k], np.arange(len(batch) + 1)).tolist()
        cols = (w[k] * 64 + bit).tolist()
        # each pivot's columns come in ascending order, its lead last
        for i, c in enumerate(batch):
            below[c] = cols[bounds[i]:bounds[i + 1] - 1]
    return below


def _insert_rows_modp(csr: sparse.csr_matrix, rows, p: int,
                      pivots: dict[int, dict[int, int]], cap: int) -> None:
    """Insert ``rows``, in order, into an F_p echelon of monic {column: coeff}
    rows, stopping once it holds ``cap`` pivots.  A new pivot is first
    cleared at every pivot column it has, largest first."""
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for i in rows:
        lo, hi = indptr[i], indptr[i + 1]
        row = dict(zip(indices[lo:hi].tolist(), data[lo:hi].tolist()))
        while row:
            c = max(row)
            piv = pivots.get(c)
            if piv is None:
                if not pivots.keys().isdisjoint(row):
                    _reduce_tail_modp(row, p, pivots)
                inv = pow(row[c], -1, p)
                pivots[c] = {k: (v * inv) % p for k, v in row.items()}
                if len(pivots) >= cap:
                    return
                break
            f = row[c]
            for k, v in piv.items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)


def _reduce_tail_modp(row: dict[int, int], p: int, pivots: dict[int, dict[int, int]]) -> None:
    """Clear ``row`` at every pivot column it has, largest first, in place;
    its leading column is not a pivot column, so it stays."""
    below = [-k for k in row if k in pivots]
    heapq.heapify(below)
    while below:
        k = -heapq.heappop(below)
        f = row.get(k)
        if f is None:  # a repeat, cleared when first popped
            continue
        for j, v in pivots[k].items():
            nv = (row.get(j, 0) - f * v) % p
            if not nv:
                row.pop(j, None)
            else:
                if j not in row and j in pivots:
                    heapq.heappush(below, -j)
                row[j] = nv


# -- dense routines (small matrices: cocycle bases and their coordinates) ----


def rref_dense(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p, entries in [0, p), and its pivot
    columns, A's column rank profile: each pivot row is the first row at or
    below it nonzero in its column.  A pivot clears its column by one outer
    product over the rows nonzero there, itself included (then written back),
    at columns >= c only, since the pivot row is zero before c."""
    R = np.asarray(A, dtype=np.int64) % p
    pivots: list[int] = []
    for c in range(R.shape[1]):
        r = len(pivots)
        if r == R.shape[0]:
            break
        nz = np.flatnonzero(R[r:, c])
        if not nz.size:
            continue
        R[[r, r + nz[0]]] = R[[r + nz[0], r]]
        pivot = R[r, c:] * pow(int(R[r, c]), -1, p) % p
        rows = np.flatnonzero(R[:, c])
        R[rows, c:] = (R[rows, c:] - R[rows, c, None] * pivot) % p
        R[r, c:] = pivot
        pivots.append(c)
    return R, pivots


def nullspace_dense(A: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : A x = 0 mod p}, one row per free column of A's RREF, in
    column order: 1 at its free column and minus the RREF's entries in that
    column at the pivot columns."""
    R, pivots = rref_dense(A, p)
    free = np.delete(np.arange(R.shape[1]), pivots)
    basis = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[:len(pivots), free].T % p
    return basis


class EchelonCoords:
    """Coordinates over F_p modulo a fixed subspace, for whole matrices.

    ``add_silent`` sets the subspace modded out; ``add_tracked`` then picks
    a basis of the rest from tracked rows, in one call, and ``coords``
    writes vectors in that basis, failing if one lies outside.  Every
    product sums at most ``ambient`` products of residues, so it is exact
    in int64 while ambient·(p-1)² < 2^63.
    """

    def __init__(self, ambient: int, p: int):
        if ambient * (p - 1) ** 2 >= 2 ** 63:
            raise PLocalError(f"F_{p} products of length {ambient} overflow int64")
        self.p = p
        self.silent = np.zeros((0, ambient), dtype=np.int64)  # an RREF, pivots at ``lead``
        self.lead: list[int] = []

    def add_silent(self, rows: np.ndarray) -> None:
        """Mod out the span of ``rows`` too; before any tracked rows."""
        R, self.lead = rref_dense(np.vstack([self.silent, rows]), self.p)
        self.silent = R[:len(self.lead)]

    def add_tracked(self, rows: np.ndarray) -> list[int]:
        """Keep, and return the indices of, the rows independent of the rows
        before them modulo the silent span: the pivot columns of the reduced
        rows' transpose, the rows an incremental pass would keep."""
        rows = np.asarray(rows, dtype=np.int64) % self.p
        reduced = (rows - rows[:, self.lead] @ self.silent) % self.p
        kept = rref_dense(reduced.T, self.p)[1]
        self.basis = np.vstack([self.silent, reduced[kept]])  # silent rows first
        # [basis | I] reduces to [RREF | the inverse of basis at its pivot columns]
        eye = np.eye(len(self.basis), dtype=np.int64)
        R, self._at = rref_dense(np.hstack([self.basis, eye]), self.p)
        self._inv = R[:, rows.shape[1]:]
        return kept

    def coords(self, vecs: np.ndarray) -> np.ndarray:
        """Coordinates of each row of ``vecs`` in the kept rows, modulo the
        silent span, one column per vector; raises if a vector lies outside
        their span plus the silent one."""
        vecs = np.asarray(vecs, dtype=np.int64) % self.p
        z = vecs[:, self._at] @ self._inv % self.p
        if ((z @ self.basis - vecs) % self.p).any():
            raise PLocalError("vector lies outside the tracked span")
        return z[:, len(self.lead):].T
