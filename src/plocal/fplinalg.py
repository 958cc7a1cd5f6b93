"""Exact sparse and dense linear algebra over the field with p elements.

Every complex is written over the integers, with its real signs, at every
p; ``FpMatrix`` alone reduces mod p.  Its CSR (scipy) is canonical, with
int64 entries stored as symmetric residues, |x| <= p//2: unique at odd p
(-1 and 1 at p = 3), while at p = 2 both -1 and 1 stand for 1 (the GF(2)
engine reads only the indices, and ``equals`` tests differences mod p).
Duplicates are summed first and the sums reduced once; an array already
in range is not written.  A product, as in every ∂² check, is taken over
the integers on the stored entries, with no copy, so the product of two
nerve boundaries cancels before it is sorted, and what is left is tested
entry by entry mod p, with no matrix built for it, so the check stays
exact.  All routines are deterministic: identical inputs give identical
results.

One loop reduces rows: an insertion echelon of {column: coefficient}
dicts.  Each row is reduced against the pivots found so far, keyed by
their leading (largest) column, and becomes a new pivot if anything is
left: monic, and cleared first at every pivot column below its lead,
largest first, since over F_p most rows reduce to zero and each such entry
would cost a step in every one of them.  Stored pivots are never changed,
so the echelon after k rows does not depend on any row after them.  Over
F_p with p > 2 every row goes through this loop in row order.  At p = 2 a
matrix is ranked by its annihilator instead, and reduces no row at all;
only one whose annihilator would not fit (below) goes through the loop.

At p = 2 the structural rows come first (the structural pivots of Faugère
and Lachartre, PASCO 2010, and of Bouillaguet, Delaplace and Voge, ISSAC
2017): for each leading column, the first row leading there, in ascending
order of that column.  One ``np.minimum.at`` over the rows' last CSR
indices finds them, with no sort.  Rows with distinct leads are
independent, so they span an echelon E of that many pivots as they stand.
A basis Y of its annihilator {y : E y = 0} is built in one ascending pass
over the leads: bit k of Y is the unit vector at the k-th free column (one
that leads no structural row) and, at each lead c, Y takes the XOR of Y
over the other columns of the row leading at c, all below c.  A row's
syndrome, the XOR of Y over its columns, is 0 exactly when the row lies in
span(E); an empty row lies in every span.  Then every row is tested, in
row order, by contiguous CSR ranges [a, b): Y, packed into uint64 words,
is gathered over the column slice ``indices[indptr[a]:indptr[b]]`` and
XOR-reduced once per word at the offsets of the range's nonempty rows.
The nonzero syndromes are eliminated in row order, and a row whose
syndrome is independent of those before it adds one to the rank; the
others lie in the span of E and the rows before them.  Each such row is
folded into Y: with b the top bit of its syndrome v, every column of Y
with bit b set takes ^= v.  That zeroes bit b and keeps Y a basis of the
annihilator of the grown echelon, so a later row in its span tests 0.
The test is exact linear algebra, with no hashing and no randomness.
Testing the structural rows again changes nothing: each is a row of E, and
every fold keeps Y the annihilator of an echelon that holds E, so each
tests 0, adds no lead and folds nothing.  So the folds, the leads, Y and
the rank are those of testing only the other rows in row order, wherever
the chunks are cut, since every syndrome is taken against Y as the rows
before it left it.

On the free columns each live bit of Y stays the unit vector at its own
free column: a fold adds to bit k a bit b above it, whose free column is
then a lead.  So a row's syndrome, reduced to the free columns, is the set
of free columns of the row reduced by E, whose largest is its lead: the
fold's top bit sits at the new pivot's lead.  The matrix keeps Y and
``leads``, the structural leads and then that of each fold, which are the
keys, in insertion order, of the echelon a plain pass in the same order
keeps; every other column is the free column of a live bit.  On the three
degree-3 boundaries of the sym:4, p = 2 homology checks, 493 of 505, 1,219
of 1,244 and 1,479 of 1,538 pivots are structural.  Those boundaries never
reach their ∂² bound, because H_2 ≠ 0, and Y is narrow there: 36, 79 and
141 columns lead no structural row, one to three words.  Memory: Y takes
ncols * ceil((ncols - #structural) / 64) words, and it is built only when
that is at most 2 nnz, about the size of the CSR itself.  Otherwise the
dict loop ranks the matrix, in row order, and it keeps that echelon.  Over
F_p with p > 2 there is no annihilator: a dense one takes at least a byte
per entry, so even an int8 one would take 8 times the memory of a packed
bit plane.  The structural order alone gained nothing there (50.8 s
structural-first against 50.3 s on the sym:4, p = 3 transporter-poset
∂_4).

A matrix may declare that below its stored rows come the rows ``[0 |
block]`` of another matrix ``block``, starting at a column offset; a
mapping cone declares the target's boundary this way.  Those tail rows are
referenced, never stored: ``csr`` holds the leading rows only, while
``shape`` and ``nnz`` count the tail too.  So the tail is ``[0 | block]``
by construction, and a block whose prime or width does not fit raises when
the matrix is built.  ``rank`` seeds from what the block keeps, when it
keeps anything, and inserts only the leading rows:
- a dict echelon: its pivots shifted by the offset, which are the ones
  inserting the tail rows first would store, since the shift keeps the
  order of the columns.  Odd p seeds this way, and it pays: on sym:4, p =
  3, max-degree 4 the seeded 652,879 x 28,373 centric-restriction cone
  ranks in 0.057 s, against 31.4 s stacked;
- an annihilator Y_B: the annihilator of the rows ``[0 | block]`` is
  spanned by the unit vectors at the offset left columns and Y_B shifted,
  and each of them is the unit vector at its own free column there.  When
  that basis fits the same rule (2 nnz words, the tail's entries counted)
  every leading row is tested against it, with no structural phase.  The
  sym:5, p = 2, max-degree 3 centric-restriction cone's ∂_3 at budget 12M
  tests its 1,298 leading rows this way, in 0.04 s, where stacking would
  rank all 11,142,749.
Before a matrix reads its block's annihilator, ``rank`` checks that the
block's leads and Y_B's live bits number its columns, and raises
``PLocalError`` if not, so that a broken state fails its stage instead of
giving a wrong rank.
Otherwise, unless the rank is certified, it stacks the leading rows over
``[0 | block]`` into one CSR and ranks every row, as for any other matrix.
A block's state is reused only when it already exists: ranking the block
just to seed from it can cost far more than the whole matrix, because the
leading rows often span most of it early.

``rank`` may also be given an upper bound on the rank; it always caps at
``min(shape)`` too, and at 0 when the matrix has no entries.  Insertion
stops as soon as that many pivots are found, seeded ones included, and the
rows after that are never read.  The result stays exact when the bound is
a true upper bound: the rows inserted so far then span the whole row space,
so every later row would add no pivot, and the stopped state is the one a
full pass would keep.  Every complex supplies the bound from ∂² = 0, which
``homology.FpComplex`` checks: the rows of ∂_d lie in the left kernel of
∂_{d-1}, so rank ∂_d <= dim C_{d-1} - rank ∂_{d-1}.  Nerves, mapping cones
and functor cochain complexes are all written in that orientation, a
cochain differential C^n -> C^{n+1} transposed with rows indexed by
C^{n+1}.  For an acyclic complex (the mapping cone of an isomorphism) that
bound is the rank.

Often no row need be read at all.  Before inserting any, ``rank`` counts
its seeds plus the distinct leading columns, among the rows it would
insert, that no seed leads, with the one ``np.minimum.at`` that also finds
the structural rows.  The seeds and one row per such column have pairwise
distinct leading columns, so they are linearly independent and the rank is
at least the count.  When the count reaches the cap, the rank is the cap,
exactly, because the cap bounds it from above: the rank is certified, no
row is read and nothing is kept.  The seeds are counted by the block's
``leads``; unseeded, the leading columns are those of the stored rows and
then the block's, plus the offset, so no row is stacked to count them.  A
cone over a certified block inserts every row unseeded, as over a block
never ranked.  The top boundaries of acyclic cones are certified this way:
on the four boundaries of the sym:3 x cyc:3, p = 3 centric-restriction cone
the counts 1, 17, 289 and 4,913 equal their ∂² bounds, and no row of the
5,220 that elimination read is read; at p = 2 so are the
transporter-to-linking cones of sym:4 and dih:8.
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
    count both.  Once ranked, unless the rank was certified, the matrix
    keeps its ``leads`` and either its ``annihilator`` (p = 2) or its dict
    ``echelon``.  See the module docstring.
    """

    def __init__(self, csr: sparse.csr_matrix, prime: int,
                 tail: tuple["FpMatrix", int] | None = None):
        self.prime = prime
        csr = csr.tocsr()  # as given: scipy would prune a short row pointer silently
        ptr, idx = csr.indptr, csr.indices
        if ptr[0] or ptr[-1] != len(idx) or (ptr[1:] < ptr[:-1]).any() \
                or idx.min(initial=0) < 0 or idx.max(initial=-1) >= csr.shape[1]:
            raise PLocalError("a CSR row pointer or column index is out of bounds")
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
        self.leads: list[int] | None = None
        self.echelon: dict | None = None
        self.annihilator: _Annihilator | None = None
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
            block, offset = self.tail if self.tail is not None else (None, 0)
            if block is not None and block.leads is None:
                block = None  # never ranked, or certified: nothing to seed from
            y = None if block is None else block.annihilator
            if y is not None and len(block.leads) + y.live_bits() != block.shape[1]:
                raise PLocalError("a kept annihilator does not match its leads")
            seeds = [] if block is None else [c + offset for c in block.leads]
            structural = None
            if len(seeds) < cap:
                leads = self._stacked_leads() if block is None else _leads(self.csr)
                structural = _structural_rows(leads, seeds, self.shape[1])
                if len(seeds) + len(structural) >= cap:
                    self._rank = cap  # certified: no row read, nothing kept
                    return cap
            self.leads = self._insert(block, seeds, structural, cap)
            self._rank = len(self.leads)
        return self._rank

    def _insert(self, block: "FpMatrix | None", seeds: list[int],
                structural: np.ndarray | None, cap: int) -> list[int]:
        """Rank the rows from ``block``'s state shifted (``seeds`` its
        leads), or unseeded, keep the new state and return its leads.
        ``structural``, if given, are the structural rows unseeded."""
        offset = 0 if block is None else self.tail[1]
        if block is not None and block.annihilator is not None:
            self.annihilator = block.annihilator.shifted(offset, self.shape[1], self.nnz)
            if self.annihilator is not None:
                return seeds + self.annihilator.new_leads(self.csr, cap - len(seeds))
            block = structural = None  # too wide to seed from: stack
        if block is not None:
            csr, self.echelon = self.csr, _shifted_echelon(block.echelon, offset)
        else:
            csr = self._stacked()
            if self.prime == 2 and cap:
                if structural is None:
                    structural = _structural_rows(_leads(csr), [], csr.shape[1])
                made = _Annihilator.of_rows(csr, structural)
                if made is not None:
                    self.annihilator, leads = made
                    return leads + self.annihilator.new_leads(csr, cap - len(leads))
            self.echelon = {}
        if len(self.echelon) < cap:
            _insert_rows_modp(csr, range(csr.shape[0]), self.prime, self.echelon, cap)
        return list(self.echelon)

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

    def matmul(self, other: "FpMatrix", head_only: bool = False) -> bool:
        """Whether ``self @ other`` vanishes over F_p, or with ``head_only``
        the product of self's stored rows alone; other's tail block is
        multiplied as it stands, never stacked.  The integer product holds
        one entry per (row, column), so it vanishes mod p exactly when every
        entry is 0 mod p, and no matrix is built for it."""
        rows = self.csr if head_only else self._stacked()
        return not (_times(rows, other).data % self.prime).any()

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


def _shifted_echelon(pivots: dict, offset: int) -> dict:
    """A dict echelon moved ``offset`` columns to the right."""
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
    row) not in ``seeded`` (the leads of the seeds), the first row leading
    there, in ascending order of that column: one ``np.minimum.at`` into a
    row per column, with no sort.  The rows have distinct leads, none a
    seed's, so they and the seeds are linearly independent."""
    n = len(leads)
    first = np.full(ncols, n, dtype=np.int64)  # n: no row leads there
    rows = np.flatnonzero(leads >= 0)
    np.minimum.at(first, leads[rows], rows)
    first[list(seeded)] = n
    return first[first < n]


_GATHER = 1 << 18  # entries, and syndrome words, tested at a time by ``_Annihilator``
_BATCH = 1024  # bigints converted to bytes at a time


class _Annihilator:
    """A basis Y of the annihilator {y : E y = 0} of a GF(2) echelon E.

    ``basis`` packs Y as one array of uint64 words over the columns per 64
    bits.  ``free[k]`` is the free column of bit k (-1 for a padding bit):
    while bit k is live, it is the unit vector at that column among the
    columns that lead no pivot of E.  A row's syndrome, the XOR of Y over
    its columns, is 0 exactly when the row lies in span(E).  ``new_leads``
    folds each row outside the span into Y, so Y stays a basis of the
    annihilator of the growing echelon; see the module docstring.
    """

    def __init__(self, basis: np.ndarray, free: np.ndarray):
        self.basis, self.free = basis, free

    @classmethod
    def of_rows(cls, csr: sparse.csr_matrix,
                rows: np.ndarray) -> tuple["_Annihilator", list[int]] | None:
        """The annihilator of the rows ``rows`` of ``csr``, which lead at
        distinct columns in ascending order, and their leads; None when it
        would take more than ``2 * nnz`` words."""
        ncols = csr.shape[1]
        words = -(-(ncols - len(rows)) // 64)
        if ncols * words > 2 * csr.data.size:
            return None
        lo = csr.indptr[rows]
        n = csr.indptr[rows + 1] - lo
        first = np.cumsum(n) - n
        cols = csr.indices[np.repeat(lo - first, n) + np.arange(n.sum())].tolist()
        # canonical CSR: a row's columns ascend, its lead last
        below = {cols[b - 1]: cols[a:b - 1]
                 for a, b in zip(first.tolist(), first[1:].tolist() + [len(cols)])}
        return cls(*_annihilator(ncols, words, below)), list(below)

    def shifted(self, offset: int, ncols: int, nnz: int) -> "_Annihilator | None":
        """The annihilator of the rows ``[0 | E]`` over ``ncols`` columns:
        the unit vectors at the ``offset`` left columns, in words of their
        own, then Y moved ``offset`` columns to the right; None when it
        would take more than ``2 * nnz`` words."""
        left = -(-offset // 64)
        if ncols * (left + len(self.basis)) > 2 * nnz:
            return None
        basis = np.zeros((left + len(self.basis), ncols), dtype=np.uint64)
        cols = np.arange(offset)
        basis[cols // 64, cols] = np.left_shift(np.uint64(1), (cols % 64).astype(np.uint64))
        basis[left:, offset:] = self.basis
        free = np.full(64 * left + len(self.free), -1, dtype=np.int64)
        free[:offset] = cols
        free[64 * left:] = np.where(self.free < 0, -1, self.free + offset)
        return _Annihilator(basis, free)

    def live_bits(self) -> int:
        """The number of bits set in some column: dim Y."""
        return int(np.bitwise_count(np.bitwise_or.reduce(self.basis, axis=1)).sum())

    def new_leads(self, csr: sparse.csr_matrix, need: int) -> list[int]:
        """The leads of the rows of ``csr`` that lie outside the span of E
        and of the rows before them, in row order, at most ``need`` of them;
        each is folded into Y.  Rows go in blocks, the first as long as the
        matrix is wide and each later one half as long as the rows tested so
        far, so that no row after the one that finds the last lead needed is
        read far ahead of it; a block's row pointer is read as one slice.
        Its rows are tested at most ``_GATHER`` entries (or one longer row)
        and ``_GATHER`` syndrome words at a time, so no gather holds more
        than one word per entry of the matrix."""
        leads: list[int] = []
        done, nrows = 0, csr.shape[0]
        while len(leads) < need and done < nrows:
            ptr = csr.indptr[done:min(nrows, done + max(csr.shape[1], done // 2, 1)) + 1]
            a, step = 0, max(1, _GATHER // len(self.basis))
            while len(leads) < need and a < len(ptr) - 1:
                fit = int(np.searchsorted(ptr, ptr[a] + _GATHER, "right")) - 1
                b = min(max(fit, a + 1), a + step, len(ptr) - 1)
                leads += self._test(csr.indices, ptr[a:b + 1], need - len(leads))
                a = b
            done += len(ptr) - 1
        return leads

    def _test(self, indices: np.ndarray, ptr: np.ndarray, need: int) -> list[int]:
        """``new_leads`` on the rows whose row pointer is ``ptr``: Y reduced
        at the offsets of the nonempty rows only (an empty row tests 0, and
        ``reduceat`` takes no offset equal to the length), then
        ``_eliminate`` only when some syndrome is nonzero."""
        starts = ptr[:-1]
        first = starts[starts < ptr[1:]] - ptr[0]
        if not len(first):
            return []
        cols = indices[ptr[0]:ptr[-1]]
        syn = np.empty((len(self.basis), len(first)), dtype=np.uint64)
        for w, y in enumerate(self.basis):
            syn[w] = np.bitwise_xor.reduceat(y[cols], first)
        live = syn.any(axis=0)
        return self._eliminate(syn[:, live], need) if live.any() else []

    def _eliminate(self, syn: np.ndarray, need: int) -> list[int]:
        """The leads of the columns of ``syn``, nonzero syndromes in row
        order, that are independent of those before them, at most ``need``
        of them.  Each is folded into Y as it is found: with b the top bit
        of its syndrome v, Y's columns with bit b set take ``^= v``, which
        zeroes bit b and keeps Y orthogonal to its row, and its lead is the
        free column of bit b.  The later syndromes take the same step, so
        they stay the syndromes against the folded Y, and one is 0 exactly
        when its row lies in the grown span."""
        basis = self.basis
        alive = np.ones(syn.shape[1], dtype=bool)
        leads: list[int] = []
        k = 0
        while len(leads) < need and k < len(alive):
            k += int(alive[k:].argmax())
            if not alive[k]:
                break
            v = syn[:, k].copy()
            w = int(np.flatnonzero(v)[-1])
            b = int(v[w]).bit_length() - 1
            top = np.uint64(1 << b)
            hit = np.flatnonzero(syn[w, k + 1:] & top) + (k + 1)
            syn[:, hit] ^= v[:, None]
            alive[hit] = syn[:, hit].any(axis=0)
            hit = np.flatnonzero(basis[w] & top)
            basis[:, hit] ^= v[:, None]
            leads.append(int(self.free[64 * w + b]))
            k += 1
        return leads


def _annihilator(ncols: int, words: int,
                 below: dict[int, list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """A basis of {y : E y = 0}, packed into ``words`` rows of uint64, and
    the free column of each bit, for an echelon E spanned by one row per
    key c of ``below``, leading at c with its other columns ``below[c]``:
    bit k is the unit vector at the k-th free column, in ascending order,
    and at each lead c the basis is the XOR of the basis over ``below[c]``,
    all of which lie below c."""
    lead = np.zeros(ncols, dtype=bool)
    lead[list(below)] = True
    free = np.full(64 * words, -1, dtype=np.int64)
    free[:ncols - len(below)] = np.flatnonzero(~lead)
    basis = np.empty((words, ncols), dtype=np.uint64)
    # 32 words at a time, so that no int outgrows the small-object allocator
    for w0 in range(0, words, 32):
        group = min(32, words - w0)
        Y = [0] * ncols
        for k, f in enumerate(free[64 * w0:64 * (w0 + group)].tolist()):
            if f >= 0:
                Y[f] = 1 << k
        for c in sorted(below):
            y = 0
            for j in below[c]:
                y ^= Y[j]
            Y[c] = y
        for a in range(0, ncols, _BATCH):
            part = b"".join(y.to_bytes(8 * group, "little") for y in Y[a:a + _BATCH])
            basis[w0:w0 + group, a:a + _BATCH] = \
                np.frombuffer(part, dtype=np.uint64).reshape(-1, group).T
    return basis, free


def _insert_rows_modp(csr: sparse.csr_matrix, rows, p: int,
                      pivots: dict[int, dict[int, int]], cap: int) -> None:
    """Insert ``rows``, in order, into an F_p echelon of monic {column: coeff}
    rows, stopping once it holds ``cap`` pivots.  A new pivot is first
    cleared at every pivot column it has, largest first.  The one loop that
    reduces rows, at every p."""
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


_DENSE_BLOCK = 1 << 22  # entries of a sparse matrix densified at a time by ``nullspace_dense``


def nullspace_dense(A: sparse.csr_matrix, p: int) -> np.ndarray:
    """Basis of {x : A x = 0 mod p}, one row per free column of A's RREF, in
    column order: 1 at its free column and minus the RREF's entries in that
    column at the pivot columns.  A is densified a block of rows at a time,
    each reduced with the pivot rows of the RREF so far: an RREF depends
    only on the row space.  A block has about ``_DENSE_BLOCK`` entries but at
    least ncols rows, so a matrix of at most ``_DENSE_BLOCK`` is one block."""
    n = A.shape[1]
    step = max(n, _DENSE_BLOCK // max(n, 1))
    R, pivots = np.zeros((0, n), dtype=np.int64), []
    for lo in range(0, A.shape[0], step):
        block = A[lo:lo + step].toarray()
        R, pivots = rref_dense(np.vstack([R[:len(pivots)], block]) if pivots else block, p)
    free = np.delete(np.arange(n), pivots)
    basis = np.zeros((len(free), n), dtype=np.int64)
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
