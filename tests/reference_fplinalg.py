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
    """The entries of ``a`` as symmetric residues mod p, in
    -(p-1)//2 .. p//2: reduced into 0..p-1, then those above p/2 less p."""
    r = np.asarray(a, dtype=np.int64) % p
    return np.where(r > p // 2, r - p, r)


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
