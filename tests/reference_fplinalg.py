"""Reference eliminations for the sparse rank engine (``plocal.fplinalg``).

Each ranks a whole CSR matrix over F_p by plain insertion, in row order:
no bound, no seeding, no tail reduction and no span test,
and it keeps no echelon.  The tests check the engine's ranks against them.
``insert_rows_gf2`` is the same plain insertion at p = 2 on given rows,
keeping its echelon of bitmask rows, whose keys the tests check the
engine's leads against.
``symmetric`` gives the form in which ``FpMatrix`` stores its entries.

``new_leads_by_ids`` is the GF(2) span test as it once read rows: by an
array of row ids, the structural rows left out, gathered through each
row's CSR positions and cut into chunks at the union of the entry and row
cuts.  The tests check ``_Annihilator.new_leads``, which reads contiguous
row ranges and tests the structural rows again, against it.

``rref_loop``, ``nullspace_loop`` and ``EchelonLoop`` are the dense routines
as per-row and per-vector loops: one row operation per pivot and row, and
one tracked or silent vector, or one vector's coordinates, per call.  The
tests check ``rref_dense``, ``nullspace_dense`` and ``EchelonCoords``, which
work on whole matrices, against them.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from plocal import PLocalError, fplinalg


def symmetric(a, p: int) -> np.ndarray:
    """The entries of ``a`` in the form ``FpMatrix`` stores them: an entry
    with |x| <= p//2 as it stands, any other as (x + p//2) % p - p//2.  At
    odd p that is the one symmetric residue of x; at p = 2 it keeps -1, 0
    and 1, and sends any other odd entry to -1."""
    a = np.asarray(a, dtype=np.int64)
    return np.where(np.abs(a) <= p // 2, a, (a + p // 2) % p - p // 2)


def _rank_csr_gf2(csr: sparse.csr_matrix) -> int:
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    pivots: dict[int, int] = {}
    rank = 0
    for i in range(csr.shape[0]):
        m = 0
        for c, v in zip(
            indices[indptr[i]:indptr[i + 1]].tolist(),
            data[indptr[i]:indptr[i + 1]].tolist(),
        ):
            if v % 2:
                m |= 1 << c
        while m:
            b = m.bit_length() - 1
            piv = pivots.get(b)
            if piv is None:
                pivots[b] = m
                rank += 1
                break
            m ^= piv
    return rank


def insert_rows_gf2(csr: sparse.csr_matrix, rows, pivots: dict[int, int], cap) -> dict:
    """Insert ``rows`` in order into ``pivots``, bitmask rows keyed by their
    leading (largest) column: each is reduced at its leading column until
    that column leads no pivot, and then stored as it stands.  Stops once
    there are ``cap`` pivots; returns ``pivots``."""
    indptr, indices = np.asarray(csr.indptr), csr.indices
    for i in rows:
        if len(pivots) >= cap:
            break
        m = 0
        for c in indices[indptr[i]:indptr[i + 1]].tolist():
            m |= 1 << c
        while m:
            b = m.bit_length() - 1
            if b not in pivots:
                pivots[b] = m
                break
            m ^= pivots[b]
    return pivots


def new_leads_by_ids(y, csr: sparse.csr_matrix, ids: np.ndarray, need: int) -> list[int]:
    """The leads of the rows ``ids`` of ``csr`` outside the span of the
    echelon that the annihilator ``y`` annihilates and of the rows before
    them, in order, at most ``need`` of them, each folded into ``y`` by its
    ``_eliminate``.  Blocks grow as in ``new_leads``; each is read through
    the ids' row starts and ends."""
    leads: list[int] = []
    done = 0
    while len(leads) < need and done < len(ids):
        size = max(csr.shape[1], done // 2, 1)
        leads += _test_by_ids(y, csr, ids[done:done + size], need - len(leads))
        done += size
    return leads


def _test_by_ids(y, csr: sparse.csr_matrix, ids: np.ndarray, need: int) -> list[int]:
    lo = csr.indptr[ids]
    lens = csr.indptr[ids + 1] - lo
    full = np.flatnonzero(lens)
    if not len(full):
        return []
    words, gather = len(y.basis), fplinalg._GATHER
    step = max(1, gather // words)
    ends = np.cumsum(lens[full])
    cuts = np.union1d(np.searchsorted(ends, np.arange(gather, ends[-1], gather)),
                      np.arange(step, len(full), step))
    leads: list[int] = []
    for rows in np.split(full, cuts):
        if len(leads) >= need:
            break
        if not len(rows):  # a row of more than ``gather`` entries was split on
            continue
        n = lens[rows]
        first = np.cumsum(n) - n
        pos = np.repeat(lo[rows] - first, n) + np.arange(n.sum())
        cols = csr.indices[pos]
        syn = np.empty((words, len(rows)), dtype=np.uint64)
        for w, basis in enumerate(y.basis):
            syn[w] = np.bitwise_xor.reduceat(basis[cols], first)
        leads += y._eliminate(syn[:, syn.any(axis=0)], need - len(leads))
    return leads


def _rank_csr_modp(csr: sparse.csr_matrix, p: int) -> int:
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for i in range(csr.shape[0]):
        row = {
            int(c): int(v) % p
            for c, v in zip(
                indices[indptr[i]:indptr[i + 1]], data[indptr[i]:indptr[i + 1]]
            )
            if v % p
        }
        while row:
            c = max(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: (v * inv) % p for k, v in row.items()}
                rank += 1
                break
            f = row[c]
            for k, v in piv.items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        # fully reduced to zero: move on
    return rank


def rref_loop(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p with deterministic first-nonzero pivots."""
    R = np.array(A, dtype=np.int64) % p
    nrows, ncols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * pow(int(R[r, c]), -1, p)) % p
        for k in range(nrows):
            if k != r and R[k, c]:
                R[k] = (R[k] - R[k, c] * R[r]) % p
        pivots.append(c)
        r += 1
    return R, pivots


def nullspace_loop(A: np.ndarray, p: int) -> np.ndarray:
    """Deterministic basis of {x : A x = 0 mod p}, one row per basis vector."""
    A = np.asarray(A, dtype=np.int64)
    if A.shape[1] == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if A.shape[0] == 0:
        return np.eye(A.shape[1], dtype=np.int64)
    R, pivots = rref_loop(A, p)
    ncols = A.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-R[r, c]) % p
    return basis


class EchelonLoop:
    """Echelon reduction against a fixed subspace with coordinate tracking.

    Seeded with "silent" rows (a known subspace modded out) and then grown by
    tracked rows; ``coords`` expresses a vector in terms of the tracked rows
    modulo the silent span, failing if the vector lies outside.
    """

    def __init__(self, ambient: int, p: int):
        self.p = p
        self.ambient = ambient
        self.rows: list[tuple[np.ndarray, np.ndarray | None]] = []  # (vector, coords)
        self.lead: list[int] = []
        self.tracked = 0

    def _reduce(self, vec: np.ndarray, coords: np.ndarray | None):
        p = self.p
        vec = vec.copy() % p
        for (rvec, rcoords), c in zip(self.rows, self.lead):
            if vec[c]:
                f = int(vec[c])
                vec = (vec - f * rvec) % p
                if coords is not None and rcoords is not None:
                    coords = (coords - f * rcoords) % p
        return vec, coords

    def add_silent(self, vec: np.ndarray) -> bool:
        vec, _ = self._reduce(vec, None)
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        vec = (vec * pow(int(vec[c]), -1, self.p)) % self.p
        self.rows.append((vec, None))
        self.lead.append(c)
        return True

    def add_tracked(self, vec: np.ndarray) -> bool:
        vec2, coords = self._reduce(vec, np.zeros(self.tracked, dtype=np.int64))
        nz = np.nonzero(vec2)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        inv = pow(int(vec2[c]), -1, self.p)
        vec2 = (vec2 * inv) % self.p
        # extend stored coordinate vectors by one slot for the new tracked row
        newrows = []
        for rvec, rcoords in self.rows:
            if rcoords is not None:
                rcoords = np.concatenate([rcoords, [0]])
            newrows.append((rvec, rcoords))
        self.rows = newrows
        coords = (np.concatenate([coords, [1]]) * inv) % self.p
        self.rows.append((vec2, coords))
        self.lead.append(c)
        self.tracked += 1
        return True

    def coords(self, vec: np.ndarray) -> np.ndarray:
        residue, coords = self._reduce(vec, np.zeros(self.tracked, dtype=np.int64))
        if np.any(residue):
            raise PLocalError("vector lies outside the tracked span")
        return (-coords) % self.p
