"""Reference eliminations for the sparse rank engine (``plocal.fplinalg``).

Each ranks a whole CSR matrix over F_p by plain insertion, in row order:
no bound, no seeding, no tail reduction and no span filter,
and it keeps no echelon.  The tests check the engine's ranks against them.
``symmetric`` gives the form in which ``FpMatrix`` stores its entries.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


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
