"""Dict-based reference builders for the chain kernel (``plocal.chains``)
and the composition store (``plocal.categories``).

These are the loop implementations the kernel replaced: chains are tuples,
faces are found through {chain: row} dicts and every row is assembled as a
{column: coefficient} dict.  ``test_chains.py`` requires the kernel's
matrices to equal theirs entry for entry, and ``test_categories.py``
requires the store to hold exactly the composites of the {(t1, t2): t3}
table that ``reference_compose_table`` fills.  ``reference_mor`` and
``reference_by_witness`` rebuild the dicts the token store replaced from
its ``src``/``tgt``/``witness`` arrays alone, never calling ``mor`` or
``tokens_of``, so they check those lookups independently.

``walk``, ``find`` and ``reference_faces`` are the index walk the chain
kernel used before it derived faces and chain-map images from the parent
chain's: a chain's row is found from its head, ``idx = row0[head]``, then
``idx = starts[k][idx] + pos[t_k]`` for k = 1..d, over the token rows and
heads that ``tokens`` and ``heads`` read back along parents; the kernel
itself never builds them.

The functor references build {token: matrix} dicts by the per-token loops
that the flat functor store (``plocal.limits.LinearFunctor``) replaced: a
pullback or ``rho[g]`` where a token's ends both carry the functor and a
zero matrix elsewhere.  They read matrices out of a functor only through
``token_matrix``, which slices ``entries`` by ``offsets``, never through
``LinearFunctor.blocks``.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse

from plocal.categories import Functor
from plocal.errors import PLocalError
from plocal.fplinalg import FpMatrix
from plocal.limits import LinearFunctor
from reference_categories import compose
from reference_fplinalg import symmetric
from reference_groups import coset, product


def from_row_entries(nrows: int, ncols: int, prime: int, rows) -> FpMatrix:
    """An FpMatrix from an iterable of per-row {col: integer coeff} dicts,
    each coefficient stored in the form ``symmetric`` gives."""
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    for entries in rows:
        for c in sorted(entries):
            v = int(symmetric(entries[c], prime))
            if v:
                indices.append(c)
                data.append(v)
        indptr.append(len(indices))
    csr = sparse.csr_matrix(
        (
            np.asarray(data, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(nrows, ncols),
    )
    return FpMatrix(csr, prime)


def nonidentity_by_source(C) -> list[list[int]]:
    """The non-identity tokens leaving each object, ascending."""
    out: list[list[int]] = [[] for _ in range(C.object_count)]
    for t, (a, ident) in enumerate(zip(C.src.tolist(), C.is_id.tolist())):
        if not ident:
            out[a].append(t)
    return out


def identity_functor(C) -> Functor:
    return Functor(C, C, list(range(C.object_count)), list(range(C.morphism_count)))


def reference_mor(C) -> dict[tuple[int, int], list[int]]:
    """{(i, j): the tokens from i to j, ascending}, by one loop over tokens."""
    mor: dict[tuple[int, int], list[int]] = {}
    for t, (a, b) in enumerate(zip(C.src.tolist(), C.tgt.tolist())):
        mor.setdefault((a, b), []).append(t)
    return mor


def reference_by_witness(C) -> dict[tuple[int, int, int], int]:
    """{(i, j, witness): token}, by one loop over tokens."""
    tokens = zip(C.src.tolist(), C.tgt.tolist(), C.witness.tolist())
    return {key: t for t, key in enumerate(tokens)}


def reference_compose_table(C) -> dict[tuple[int, int], int]:
    """The composition table as a dict, filled by the loop over pairs of
    morphism sets that the store replaced: by the coset rule for a category
    built from G (its full subcategories and skeleta included), with cosets
    of ``Permutation`` products.  Reads no composite."""
    table: dict[tuple[int, int], int] = {}
    mor, by_witness = reference_mor(C), reference_by_witness(C)
    witness = C.witness.tolist()
    for (a, b), lhs in mor.items():
        for (b2, c), rhs in mor.items():
            if b2 != b:
                continue
            for t1 in lhs:
                for t2 in rhs:
                    w = min(coset(C, a, c, product(C.group, witness[t1], witness[t2])))
                    table[(t1, t2)] = by_witness[(a, c, w)]
    return table


def tokens(chains, d: int) -> np.ndarray:
    """The (dims[d], d) token rows of degree d, read back along parents."""
    rows = np.empty((chains.dims[d], d), dtype=np.int64)
    at = np.arange(chains.dims[d])
    for k in range(d, 0, -1):
        rows[:, k - 1] = chains.last[k][at]
        at = chains.parent[k][at]
    return rows


def heads(chains, d: int) -> np.ndarray:
    """The head object of each degree-d chain, read back along parents."""
    at = np.arange(chains.dims[d])
    for k in range(d, 0, -1):
        at = chains.parent[k][at]
    return chains.heads[at]


def walk(chains, heads: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row numbers of the given chains, by the index walk from their heads."""
    idx = chains.row0[heads]
    for k in range(rows.shape[1]):
        idx = chains.starts[k + 1][idx] + chains.pos[rows[:, k]]
    return idx


def find(chains, heads: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row numbers of the given chains; raises unless each row is a chain
    of non-identity tokens leaving its head, and that head starts chains."""
    ok = chains.row0[heads] >= 0
    if rows.shape[1]:
        ok &= (chains.pos[rows] >= 0).all(axis=1) & (chains.src[rows[:, 0]] == heads)
        ok &= (chains.tgt[rows[:, :-1]] == chains.src[rows[:, 1:]]).all(axis=1)
    if not ok.all():
        raise PLocalError("image is not a chain of composable non-identity morphisms")
    return walk(chains, heads, rows)


def reference_faces(chains, d: int) -> np.ndarray:
    """The (dims[d], d+1) face table of degree d by composing and walking
    every face of the token rows: column i is the row of the face that drops
    vertex c_i, -1 where it goes through an identity or starts at no head."""
    C = chains.category
    T, head = tokens(chains, d), heads(chains, d)
    table = np.full((len(T), d + 1), -1, dtype=np.int64)
    head0 = C.tgt[T[:, 0]]
    rows = np.flatnonzero(chains.row0[head0] >= 0)
    table[rows, 0] = walk(chains, head0[rows], T[rows, 1:])
    for i in range(1, d):
        u = C.composites(T[:, i - 1], T[:, i])
        assert (u >= 0).all()
        rows = np.flatnonzero(~C.is_id[u])
        face = np.concatenate([T[rows, :i - 1], u[rows, None], T[rows, i + 1:]], axis=1)
        table[rows, i] = walk(chains, head[rows], face)
    table[:, d] = walk(chains, head, T[:, :-1])
    return table


def reference_images(F, source, target, dmax: int) -> list[np.ndarray]:
    """For d = 0..dmax, the row in ``target`` of each degree-d chain's image
    under the functor F, -1 where an image token is an identity, found by
    mapping the token rows and walking them."""
    object_map = np.asarray(F.object_map, dtype=np.int64)
    morphism_map = np.asarray(F.morphism_map, dtype=np.int64)
    out = []
    for d in range(dmax + 1):
        image = morphism_map[tokens(source, d)]
        rows = np.flatnonzero(~target.is_id[image].any(axis=1))
        cols = np.full(source.dims[d], -1, dtype=np.int64)
        cols[rows] = find(target, object_map[heads(source, d)[rows]], image[rows])
        out.append(cols)
    return out


def move_an_image(images: list[np.ndarray], target, d: int) -> int:
    """Move the first live degree-d image row, in place, to the first chain
    of the target complex whose boundary differs from its image's mod p,
    and return the source row moved: a fault in a chain map's image rows
    that the ∂² check of its mapping cone must catch."""
    B, p = target.boundaries[d].csr, target.prime

    def boundary(j):
        lo, hi = B.indptr[j], B.indptr[j + 1]
        return {c: v % p for c, v in zip(B.indices[lo:hi].tolist(), B.data[lo:hi].tolist()) if v % p}

    cols = images[d]
    k = int(np.flatnonzero(cols >= 0)[0])
    cols[k] = next(j for j in range(B.shape[0]) if boundary(j) != boundary(cols[k]))
    return k


def nerve_basis(C, dmax: int) -> list[list]:
    """Objects, then composable tuples of non-identity tokens, in lexicographic order."""
    nonid = nonidentity_by_source(C)
    basis: list[list] = [list(range(C.object_count))]
    for d in range(1, dmax + 1):
        cur = []
        if d == 1:
            for toks in nonid:
                cur.extend((t,) for t in toks)
            cur.sort()
        else:
            for chain in basis[d - 1]:
                tail = int(C.tgt[chain[-1]])
                for t in nonid[tail]:
                    cur.append(chain + (t,))
        basis.append(cur)
    return basis


def nerve_boundaries(C, prime: int, dmax: int) -> tuple[list[list], list]:
    """The tuple basis and ``[None, boundary_1, ..., boundary_dmax]``."""
    basis = nerve_basis(C, dmax)
    dims = [len(b) for b in basis]
    boundaries: list = [None]

    def row_entries_for(chain, d, index_prev):
        entries: dict[int, int] = {}
        if d == 1:
            a, b = int(C.src[chain[0]]), int(C.tgt[chain[0]])
            entries[b] = entries.get(b, 0) + 1
            entries[a] = entries.get(a, 0) - 1
            return entries

        def add(label, coeff):
            col = index_prev[label]
            entries[col] = entries.get(col, 0) + coeff

        add(chain[1:], 1)
        add(chain[:-1], -1 if d % 2 else 1)
        for i in range(1, d):
            u = compose(C, chain[i - 1], chain[i])
            if C.is_id[u]:
                continue
            add(chain[: i - 1] + (u,) + chain[i + 1:], -1 if i % 2 else 1)
        return entries

    for d in range(1, dmax + 1):
        index_prev = {label: i for i, label in enumerate(basis[d - 1])} if d >= 2 else {}
        rows = (row_entries_for(chain, d, index_prev) for chain in basis[d])
        boundaries.append(from_row_entries(dims[d], dims[d - 1], prime, rows))
    return basis, boundaries


def chain_map(F, source_basis: list[list], target_basis: list[list], prime: int) -> list:
    """Degree-wise matrices sending a chain to its image chain, or to 0."""
    D = min(len(source_basis), len(target_basis)) - 1
    mats = [from_row_entries(
        len(source_basis[0]), len(target_basis[0]), prime,
        [{F.object_map[i]: 1} for i in source_basis[0]],
    )]
    for d in range(1, D + 1):
        index = {label: i for i, label in enumerate(target_basis[d])}
        rows = []
        for chain in source_basis[d]:
            image = tuple(F.morphism_map[t] for t in chain)
            if any(F.target.is_id[t] for t in image):
                rows.append({})
            else:
                rows.append({index[image]: 1})
        mats.append(from_row_entries(
            len(source_basis[d]), len(target_basis[d]), prime, rows))
    return mats


def cochain_differentials(F, nmax: int) -> tuple[list[int], list]:
    """Degree sizes and the differentials of the normalized functor cochain complex."""
    C = F.category
    p = F.prime
    nonid = nonidentity_by_source(C)
    chains = [[(i, ()) for i in range(C.object_count) if F.dims[i] > 0]]
    for n in range(1, nmax + 1):
        cur = []
        for head, toks in chains[n - 1]:
            tail = int(C.tgt[toks[-1]]) if toks else head
            for t in nonid[tail]:
                cur.append((head, toks + (t,)))
        chains.append(cur)
    offsets, dims = [], []
    for n in range(nmax + 1):
        offs = {}
        total = 0
        for head, toks in chains[n]:
            offs[(head, toks)] = total
            total += F.dims[head]
        offsets.append(offs)
        dims.append(total)

    diffs = []
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
                        v = int(M[r, c])
                        if v:
                            row_block[r][base + c] = row_block[r].get(base + c, 0) + v

            first = toks[0]
            add_block((int(C.tgt[first]), toks[1:]), token_matrix(F, first))
            eye = np.eye(k, dtype=np.int64)
            for i in range(1, n + 1):
                u = compose(C, toks[i - 1], toks[i])
                if C.is_id[u]:
                    continue
                face = (head, toks[: i - 1] + (u,) + toks[i + 1:])
                add_block(face, (-1 if i % 2 else 1) * eye)
            add_block((head, toks[:-1]), (-1 if (n + 1) % 2 else 1) * eye)
            rows.extend(row_block)
        diffs.append(from_row_entries(dims[n + 1], dims[n], p, rows))
    return dims, diffs


def bar_tuples(P, n: int) -> list[tuple]:
    nonid = [x for x in P.ids if x != 0]
    return [tuple(t) for t in itertools.product(nonid, repeat=n)]


def bar_coboundary(G, P, n: int) -> np.ndarray:
    """Dense d: C^n -> C^{n+1} on normalized bar cochains of P, trivial
    coefficients, over the integers."""
    tuples_n, tuples_n1 = bar_tuples(P, n), bar_tuples(P, n + 1)
    index_n = {t: k for k, t in enumerate(tuples_n)}
    D = np.zeros((len(tuples_n1), len(tuples_n)), dtype=np.int64)
    for r, tup in enumerate(tuples_n1):
        D[r, index_n[tup[1:]]] += 1
        for i in range(1, n + 1):
            prod = G.mult(tup[i - 1], tup[i])
            if prod == 0:
                continue
            D[r, index_n[tup[: i - 1] + (prod,) + tup[i + 1:]]] += -1 if i % 2 else 1
        D[r, index_n[tup[:-1]]] += -1 if (n + 1) % 2 else 1
    return D


def pullback_matrix(basis, other, point_map) -> np.ndarray:
    """``CohomologyBasis.pullback_matrix`` through tuple bases."""
    M = np.zeros((basis.dim, other.dim), dtype=np.int64)
    if basis.dim == 0 or other.dim == 0:
        return M
    tuples_i = bar_tuples(basis.P, basis.i)
    other_index = {t: k for k, t in enumerate(bar_tuples(other.P, other.i))}
    for j, rep in enumerate(other.reps):
        w = np.zeros(len(tuples_i), dtype=np.int64)
        for k, tup in enumerate(tuples_i):
            w[k] = rep[other_index[tuple(point_map(x) for x in tup)]]
        M[:, j] = basis.coords(w[None])[:, 0]
    return M


# -- the functor store ----------------------------------------------------------


def token_matrix(F, t: int) -> np.ndarray:
    """Token t's matrix, sliced out of the functor's entries by its offsets."""
    C = F.category
    shape = (F.dims[C.src[t]], F.dims[C.tgt[t]])
    return F.entries[F.offsets[t]:F.offsets[t + 1]].reshape(shape)


def constant_functor(C, prime: int, dim: int = 1) -> LinearFunctor:
    """F_p^dim at every object, with the identity matrix on every token."""
    eye = np.eye(dim, dtype=np.int64).ravel()
    return LinearFunctor(C, prime, [dim] * C.object_count, np.tile(eye, C.morphism_count))


def supported_mats(cat, support, i: int, cache) -> tuple[list[int], dict]:
    """The dimensions and {token: matrix} of the cohomology functor H^i
    supported on the listed objects: a pullback where both ends lie in the
    support, a zero matrix elsewhere."""
    supp = set(support)
    bases = {k: cache.basis(cat.objects[k], i) for k in supp}
    dims = [bases[k].dim if k in supp else 0 for k in range(cat.object_count)]
    mats: dict[int, np.ndarray] = {}
    tokens = zip(cat.src.tolist(), cat.tgt.tolist(), cat.witness.tolist())
    for tid, (a, b, g) in enumerate(tokens):
        if a in supp and b in supp:
            mats[tid] = bases[a].pullback_matrix(bases[b], g)
        else:
            mats[tid] = np.zeros((dims[a], dims[b]), dtype=np.int64)
    return dims, mats


def restricted_mats(mats: dict, inclusion) -> dict:
    """{token: matrix} of a functor restricted along an inclusion."""
    return {tid: mats[t] for tid, t in enumerate(inclusion.morphism_map)}


def zeroed_mats(cat, dims: list[int], mats: dict, kill) -> tuple[list[int], dict]:
    """The dimensions and {token: matrix} with the listed objects set to 0."""
    dead = set(kill)
    dims = [0 if k in dead else d for k, d in enumerate(dims)]
    out: dict[int, np.ndarray] = {}
    for tid, (a, b) in enumerate(zip(cat.src.tolist(), cat.tgt.tolist())):
        if a in dead or b in dead:
            out[tid] = np.zeros((dims[a], dims[b]), dtype=np.int64)
        else:
            out[tid] = mats[tid]
    return dims, out


def atomic_mats(cat, triv: int, rho, dim: int) -> tuple[list[int], dict]:
    """The dimensions and {token: matrix} of the atomic functor: ``rho[g]``
    on the endomorphisms g of the trivial subgroup, a zero matrix elsewhere."""
    dims = [dim if k == triv else 0 for k in range(cat.object_count)]
    mats: dict[int, np.ndarray] = {}
    tokens = zip(cat.src.tolist(), cat.tgt.tolist(), cat.witness.tolist())
    for tid, (a, b, g) in enumerate(tokens):
        if a == triv and b == triv:
            mats[tid] = rho[g]
        else:
            mats[tid] = np.zeros((dims[a], dims[b]), dtype=np.int64)
    return dims, mats
