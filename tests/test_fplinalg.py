"""Differential tests for the sparse elimination engine.

A matrix that stores only its leading rows and references B as its tail
``[0 | B]`` is ranked twice: seeded from what B keeps, and from scratch.
Both must agree with the reference eliminations
``_rank_csr_gf2``/``_rank_csr_modp`` (``reference_fplinalg.py``) on the
same rows stacked into one CSR by scipy (``whole``) and, where the matrix is
small enough to hold densely, with the dense oracle.

Nerves, cones and functor cochain complexes rank each boundary with the
bound ∂² = 0 forces.  A bounded rank must equal the plain one and the
reference, it must keep what a pass over every row keeps, and no row after
the one that reaches the bound may be read.

A matrix ranked by the dict loop keeps its echelon, at every p.  Every kept
echelon is tail-reduced: each pivot is monic and zero at the leading column
of every pivot stored before it, seeds included.  It must equal, pivot for
pivot, the one the dict loop keeps inserting every row, seeded the same
way.  The references reduce no tails, so they stay an independent check of
the ranks.

At p = 2 a matrix keeps its leads and an annihilator Y instead, unless Y
would not fit.  The engine reduces no row then: it never reads a row one at
a time.  Three things are checked against it.  Its leads, in order, are
the keys of the echelon a plain max-column pass (``insert_rows_gf2``) keeps
inserting the rows in the engine's order.  ``whole @ Y`` vanishes mod 2.
Y has ncols - rank live bits, and on the columns that lead no pivot it is
the identity on them, so they are independent.  Unseeded, the engine
reads the structural rows (the first row with each leading column, in
ascending order of that column), then every row in row order, the
structural ones again, in contiguous ranges; ``structural_first`` finds
them by a scan of each row, independently of the engine's
``np.minimum.at``.  Seeded from B's annihilator, it tests the stored rows
in row order, after the rows of B.  The leads and Y also equal those of
the span test that reads rows by id and skips the structural ones
(``reference_fplinalg.new_leads_by_ids``).

A rank is certified, with no row read and nothing kept, when the seeds and
the distinct leading columns that no seed leads number at least the cap.
``certificate`` recounts them by a scan of each row.  Every matrix ranked
here must be certified exactly when that count reaches its cap.
"""

import math

import numpy as np
import pytest
from scipy import sparse

import oracle
from plocal import (
    FpComplex,
    PipelineConfig,
    PLocalError,
    all_subgroups,
    build_orbit_skeletons,
    build_transporter,
    classifying_cohomology_functor,
    functor_cochain_complex,
    induced_chain_map,
    mapping_cone,
    nerve_complex,
    quotient_projection,
    run_pipeline,
    sylow_subgroup,
)
from plocal import fplinalg, homology, limits
from plocal.catalog import build_group
from plocal.categories import group_category
from plocal.cohomology import CohomologyCache
from plocal.fplinalg import (
    EchelonCoords,
    FpMatrix,
    _Annihilator,
    _insert_rows_modp,
    _leads,
    _structural_rows,
    nullspace_dense,
    rref_dense,
)
from reference_chains import constant_functor
from reference_fplinalg import (
    EchelonLoop,
    _rank_csr_gf2,
    _rank_csr_modp,
    insert_rows_gf2,
    new_leads_by_ids,
    nullspace_loop,
    rref_loop,
    symmetric,
)
from reference_omega import centric_subgroups

DENSE_ORACLE_MAX_ENTRIES = 2_000_000


def whole(m: FpMatrix) -> sparse.csr_matrix:
    """Every row of ``m`` as one CSR: its stored rows over ``[0 | block]``
    for a tail, stacked by scipy, independently of the engine."""
    if m.tail is None:
        return m.csr
    block, offset = m.tail
    below = whole(block)
    zeros = sparse.csr_matrix((below.shape[0], offset), dtype=np.int64)
    out = sparse.vstack([m.csr, sparse.hstack([zeros, below])]).tocsr()
    out.sum_duplicates()
    return out


def reference_rank(m: FpMatrix) -> int:
    if m.prime == 2:
        return _rank_csr_gf2(whole(m))
    return _rank_csr_modp(whole(m), m.prime)


def structural_first(csr, rows, seeds) -> tuple[list[int], list[int]]:
    """The structural rows of ``rows`` for an echelon seeded with ``seeds``
    (for each leading column that no seed leads, the first row leading
    there, in ascending order of that column) and the others in their
    order, found by a scan of each row.  It reads the row pointer through
    ``np.asarray``, so a spy on it records nothing."""
    first = {}
    indptr = np.asarray(csr.indptr)
    for i in rows:
        cols = csr.indices[indptr[i]:indptr[i + 1]].tolist()
        if cols and max(cols) not in seeds:
            first.setdefault(max(cols), i)
    structural = [first[c] for c in sorted(first)]
    taken = set(structural)
    return structural, [i for i in rows if i not in taken]


def rows_read(read: list) -> list[int]:
    """The rows read, in order, from a spy's record: a row range read as
    one slice, or a row's start and then its end, one row or an array of
    rows at a time."""
    rows, k = [], 0
    while k < len(read):
        if isinstance(read[k], range):
            rows += read[k]
            k += 1
            continue
        start, end = read[k:k + 2]
        assert not isinstance(end, range) and np.array_equal(np.add(start, 1), end)
        rows += [int(i) for i in np.atleast_1d(start)]
        k += 2
    return rows


def read_in_bulk(read: list) -> bool:
    """Whether no row was read one at a time: every record is an array of
    rows or a row range."""
    return all(isinstance(k, (np.ndarray, range)) for k in read)


def assert_reads_a_prefix(read: list, order: list[int]) -> list[int]:
    """The rows read, which must be the first ones of ``order``, each read
    once; returns them."""
    rows = rows_read(read)
    assert rows == list(order[:len(rows)])
    return rows


def plain_pass_gf2(csr, rows, pivots: dict, cap) -> dict:
    """Insert every row of ``rows`` into ``pivots``, up to ``cap`` pivots,
    in the unseeded engine's order (structural rows first) but with no span
    test: a plain max-column pass."""
    structural, others = structural_first(csr, rows, pivots)
    return insert_rows_gf2(csr, structural + others, pivots, cap)


def fits(m: FpMatrix) -> bool:
    """Whether ``m`` seeds from its block's annihilator: the unit vectors
    at the offset left columns, in words of their own, and the block's Y
    take at most 2 nnz words, the tail's entries counted."""
    block, offset = m.tail
    return m.shape[1] * (-(-offset // 64) + len(block.annihilator.basis)) <= 2 * m.nnz


def seeds_of(m: FpMatrix) -> tuple[dict, sparse.csr_matrix, bool]:
    """The echelon ``m.rank()`` starts from, the rows it inserts, and
    whether it seeds: the block's dict echelon shifted, or the bitmask
    echelon a plain pass keeps over the block's rows, shifted, when ``m``
    seeds from the block's annihilator; then it inserts the stored rows.
    Otherwise it inserts every row, unseeded."""
    block, offset = m.tail if m.tail is not None else (None, 0)
    if block is not None and block.echelon is not None:
        return fplinalg._shifted_echelon(block.echelon, offset), m.csr, True
    if block is not None and block.annihilator is not None and fits(m):
        below = whole(block)
        pivots = plain_pass_gf2(below, range(below.shape[0]), {}, math.inf)
        return {c + offset: row << offset for c, row in pivots.items()}, m.csr, True
    return {}, whole(m), False


def full_echelon(m: FpMatrix) -> dict:
    """The echelon a pass over every row keeps, in ``m.rank()``'s order and
    seeded the same way, with no bound and no cap: the dict loop's when
    ``m`` keeps a dict echelon, and otherwise a plain pass of bitmask rows,
    structural rows first unless seeded."""
    pivots, csr, seeded = seeds_of(m)
    rows = range(csr.shape[0])
    if m.echelon is not None:
        _insert_rows_modp(csr, rows, m.prime, pivots, math.inf)
    elif seeded:
        insert_rows_gf2(csr, rows, pivots, math.inf)
    else:
        plain_pass_gf2(csr, rows, pivots, math.inf)
    return pivots


def certificate(m: FpMatrix) -> tuple[int, int]:
    """The number of seeds of ``m`` (its block's leads), and that number
    plus the distinct leading columns of the rows it inserts that no seed
    leads, counted by a scan of each row."""
    block, offset = m.tail if m.tail is not None else (None, 0)
    if block is not None and block.leads is not None:
        seeds, csr = {c + offset for c in block.leads}, m.csr
    else:
        seeds, csr = set(), whole(m)
    return len(seeds), len(seeds) + len(structural_first(csr, range(csr.shape[0]), seeds)[0])


def assert_certified_exactly(m: FpMatrix, cap: int):
    """``m``, ranked under ``cap``, kept nothing exactly when its seeds fall
    short of the cap and its certificate reaches it, and then its rank is
    the cap."""
    seeds, count = certificate(m)
    assert (m.leads is None) == (seeds < cap <= count)
    if m.leads is None:
        assert m.rank() == cap and m.echelon is None and m.annihilator is None


def unpacked(m: FpMatrix) -> np.ndarray:
    """``m``'s annihilator as a 0/1 array, one row per column of ``m`` and
    one column per bit."""
    basis = m.annihilator.basis
    raw = np.ascontiguousarray(basis.T).view(np.uint8).reshape(m.shape[1], 8 * len(basis))
    return np.unpackbits(raw, axis=1, bitorder="little")


def assert_annihilates(m: FpMatrix):
    """``m`` keeps an annihilator Y and no echelon: ``whole(m) @ Y`` is 0
    mod 2, Y has ncols - rank live bits, and on the columns that lead no
    pivot, in ascending order, Y is the identity on its live bits, each of
    which is the unit vector at its free column there."""
    assert m.echelon is None
    Y = unpacked(m).astype(np.int64)
    rows = whole(m)
    rows = sparse.csr_matrix((rows.data % 2, rows.indices, rows.indptr), shape=rows.shape)
    assert not (rows @ Y % 2).any()
    live = np.flatnonzero(Y.any(axis=0))
    assert len(live) == m.shape[1] - m.rank()
    free = np.setdiff1d(np.arange(m.shape[1]), m.leads)
    assert np.array_equal(Y[free][:, live], np.eye(len(live), dtype=np.int64))
    assert np.array_equal(m.annihilator.free[live], free)


def assert_kept_state(m: FpMatrix):
    """``m``'s leads are the keys, in insertion order, of the echelon a pass
    over every row keeps.  With a dict echelon, the echelon is that pass's,
    pivot for pivot, and tail-reduced; otherwise ``m`` keeps an exact
    annihilator."""
    full = full_echelon(m)
    assert m.leads == list(full)
    if m.echelon is not None:
        assert m.annihilator is None and m.echelon == full
        assert_tail_reduced(m.echelon)
    else:
        assert_annihilates(m)


def assert_certified_or_eliminated(m: FpMatrix, cap: int, read: list | None = None):
    """``m``, ranked under ``cap``, is certified exactly when its
    certificate says so, and then read no row (``read``, from a spy).
    Otherwise it kept what a full pass keeps."""
    assert_certified_exactly(m, cap)
    if m.leads is None:
        assert not read
    else:
        assert_kept_state(m)


def assert_tail_reduced(echelon: dict):
    """Each pivot leads at its key, is monic and is zero at the leading
    column of every pivot stored before it; seeds are stored first."""
    before = set()
    for c, row in echelon.items():
        assert max(row) == c and row[c] == 1 and not before & row.keys(), c
        before.add(c)


def bound_caps(cx, ranks: list[int]) -> list[int]:
    """The cap each boundary of ``cx`` is ranked under, from its ∂² bound
    and its shape."""
    return [min(cx.dims[d - 1] - (ranks[d - 2] if d > 1 else 0), *cx.boundaries[d].shape)
            for d in range(1, len(ranks) + 1)]


def assert_bounded_ranks_exact(cx, ranks: list[int]):
    """Each boundary, ranked by its complex with the ∂² = 0 bound, against
    an unbounded rank and the reference; each is certified or keeps what a
    full pass keeps, as its certificate says."""
    for m, r, cap in zip(cx.boundaries[1:], ranks, bound_caps(cx, ranks)):
        unbounded = FpMatrix(m.csr.copy(), m.prime, m.tail)
        assert r == unbounded.rank() == reference_rank(m)
        assert_certified_or_eliminated(m, cap)
        assert_certified_or_eliminated(unbounded, min(m.shape))


class RowSpy(np.ndarray):
    """A CSR row pointer that records every row index read from it: an int,
    or an array of them at once, and a slice ``[a:b]`` as the row range
    ``range(a, b - 1)``, the rows whose start and end it holds.  Indices
    from the end are no rows, and reads from a slice taken of it are not
    recorded again."""

    def __getitem__(self, key):
        if hasattr(self, "read"):
            if isinstance(key, (int, np.integer)) and key >= 0:
                self.read.append(int(key))
            elif isinstance(key, np.ndarray) and key.dtype.kind in "iu":
                self.read.append(key.copy())
            elif isinstance(key, slice):
                a, b, step = key.indices(len(self))
                assert step == 1
                self.read.append(range(a, max(a, b - 1)))
        return super().__getitem__(key)


def spy_on_csr(csr, read: list | None = None) -> list:
    spy = csr.indptr.view(RowSpy)
    spy.read = [] if read is None else read
    csr.indptr = spy
    return spy.read


def spy_on_rows(m: FpMatrix) -> list:
    """The rows ``m.rank`` reads: its stored rows and, when it stacks its
    tail under them to rank every row, the stacked rows, numbered as in
    ``whole(m)``."""
    read = spy_on_csr(m.csr)
    if m.tail is not None:
        stack = m._stacked

        def spied():
            csr = stack()
            spy_on_csr(csr, read)
            return csr

        m._stacked = spied
    return read


def engine_order(m: FpMatrix) -> list[int]:
    """The order in which ``m.rank()`` reads the rows it inserts, numbered
    as in ``whole(m)``: the dict loop's row order, or at p = 2 with an
    annihilator, unseeded, the structural rows and then every row, the
    structural ones again among them, in row order."""
    _, csr, seeded = seeds_of(m)
    rows = list(range(csr.shape[0]))
    if m.annihilator is None or seeded:
        return rows
    return structural_first(csr, rows, {})[0] + rows


def random_sparse(rng, nrows, ncols, p, per_row):
    """A random sparse matrix over F_p with about ``per_row`` entries a row."""
    nnz = nrows * per_row
    rows = rng.integers(0, nrows, nnz)
    cols = rng.integers(0, ncols, nnz)
    vals = rng.integers(1, p, nnz)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(nrows, ncols), dtype=np.int64)


def random_stack(rng, p, t_rows, b_rows, left, right):
    """[T; 0 | B] where some T rows are combinations of other rows, so the
    seeded insertion has to reduce against pivots from both blocks."""
    B = random_sparse(rng, b_rows, right, p, 3)
    T = random_sparse(rng, t_rows, left + right, p, 4).tolil()
    bottom = sparse.hstack([sparse.csr_matrix((b_rows, left), dtype=np.int64), B]).tocsr()
    for i in range(0, t_rows, 3):
        picks = rng.integers(0, b_rows, 2) if b_rows else []
        combo = sum((int(rng.integers(1, p)) * bottom[j] for j in picks),
                    sparse.csr_matrix((1, left + right), dtype=np.int64))
        if i >= 2:
            combo = combo + int(rng.integers(1, p)) * T[i - 2].tocsr()
        T[i] = combo
    return T.tocsr(), B


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("t_rows,b_rows,left,right", [
    (0, 40, 0, 30),
    (40, 0, 10, 30),
    (60, 50, 0, 40),
    (120, 200, 30, 150),
    (300, 700, 100, 900),
])
def test_seeded_rank_matches_plain_and_oracle(p, t_rows, b_rows, left, right):
    rng = np.random.default_rng(1000 * p + t_rows + b_rows)
    T, B = random_stack(rng, p, t_rows, b_rows, left, right)
    full = sparse.vstack([T, sparse.hstack(
        [sparse.csr_matrix((b_rows, left), dtype=np.int64), B])]).tocsr()

    block = FpMatrix(B.copy(), p)
    block.rank()
    seeded = FpMatrix(T.copy(), p, tail=(block, left))
    plain = FpMatrix(T.copy(), p, tail=(FpMatrix(B.copy(), p), left))  # block never ranked

    want = reference_rank(FpMatrix(full.copy(), p))
    assert seeded.rank() == plain.rank() == want
    # seeded and bounded by the true rank: the same rank, and the same
    # leads and echelon unless the bound certifies it
    bounded = FpMatrix(T.copy(), p, tail=(block, left))
    assert bounded.rank(want) == want
    for m, cap in ((block, min(B.shape)), (seeded, min(full.shape)), (plain, min(full.shape)),
                   (bounded, want)):
        assert_certified_or_eliminated(m, cap)
    if bounded.leads is not None:
        assert bounded.leads == seeded.leads and bounded.echelon == seeded.echelon
    if full.shape[0] * full.shape[1] <= DENSE_ORACLE_MAX_ENTRIES:
        assert want == oracle.dense_rank_modp(full.toarray(), p)


def centric_linking_cone(spec, p, dmax):
    """The arguments of the mapping cone of the transporter-to-linking
    projection, as in the linking-vs-transporter check: its source and
    target nerves and its image rows."""
    G = build_group(spec)
    cents = centric_subgroups(G, p, all_subgroups(sylow_subgroup(G, p)))
    psi = quotient_projection(build_transporter(G, cents), p)
    src = nerve_complex(psi.source, p, dmax - 1)
    tgt = nerve_complex(psi.target, p, dmax)
    return src, tgt, induced_chain_map(psi, src, tgt)


@pytest.mark.parametrize("spec,p", [("sym:4", 2), ("sym:3 x cyc:3", 3), ("sym:3 x cyc:3", 5)])
def test_real_cone_ranks_seeded_and_plain(spec, p):
    """At p = 5 the Sylow subgroup is trivial: the cone compares BG with a
    point, and is acyclic because 5 does not divide |G|."""
    src, tgt, images = centric_linking_cone(spec, p, 3)
    plain = mapping_cone(src, tgt, images)
    plain_ranks = [plain.rank_boundary(d) for d in range(1, plain.dmax + 1)]
    assert all(tgt.boundaries[d].leads is None for d in range(1, tgt.dmax + 1))
    assert_bounded_ranks_exact(plain, plain_ranks)

    target_ranks = [tgt.rank_boundary(d) for d in range(1, tgt.dmax + 1)]
    assert_bounded_ranks_exact(tgt, target_ranks)
    seeded = mapping_cone(src, tgt, images)
    seeded_ranks = [seeded.rank_boundary(d) for d in range(1, seeded.dmax + 1)]
    assert seeded_ranks == plain_ranks
    assert seeded.homology() == [0] * seeded.dmax
    assert_bounded_ranks_exact(seeded, seeded_ranks)
    for d in range(1, seeded.dmax + 1):
        m = seeded.boundaries[d]
        assert np.issubdtype(m.csr.dtype, np.integer)
        want = reference_rank(m)
        assert m.rank() == plain_ranks[d - 1] == want, d
        if m.shape[0] * m.shape[1] <= DENSE_ORACLE_MAX_ENTRIES:
            assert want == oracle.dense_rank_modp(whole(m).toarray(), p)


@pytest.mark.parametrize("spec,p", [("sym:4", 2), ("sym:3 x cyc:3", 3)])
def test_elimination_stops_at_the_row_that_reaches_the_forced_rank(spec, p):
    """The top boundary of an acyclic cone has rank dims[d-1] - rank ∂_{d-1},
    and its distinct leading columns reach that bound, so ``rank`` certifies
    it without reading a row.  The engine run on it under the same cap, as
    for a matrix whose certificate falls short, stops at the row whose pivot
    reaches the bound, and most rows are never read: at p = 2 it reads its
    structural rows to build the annihilator, and no other row."""
    cone = mapping_cone(*centric_linking_cone(spec, p, 3))
    d = cone.dmax
    top = cone.boundaries[d]
    csr = whole(top)
    read = spy_on_rows(top)

    rank = cone.rank_boundary(d)
    read = list(read)  # before the checks below stack m's rows
    assert rank == cone.dims[d - 1] - cone.rank_boundary(d - 1)
    assert rank == reference_rank(FpMatrix(csr, p))
    assert certificate(top) == (0, rank)
    assert_certified_or_eliminated(top, rank, read)
    assert top.leads is None

    engine = FpMatrix(csr.copy(), p)
    read = spy_on_csr(engine.csr)
    engine.leads = engine._insert(None, [], None, rank)
    engine._rank = len(engine.leads)
    read = assert_reads_a_prefix(read, engine_order(engine))
    assert_kept_state(engine)
    if p == 2:
        assert engine.annihilator is not None
        assert read == structural_first(csr, range(csr.shape[0]), {})[0]
    last = max(read)
    assert 2 * (last + 1) < csr.shape[0]
    assert reference_rank(FpMatrix(csr[:last + 1], p)) == rank
    assert reference_rank(FpMatrix(csr[:last], p)) == rank - 1


@pytest.mark.parametrize("spec,p,index", [
    ("sym:4", 2, 1), ("sym:3 x cyc:3", 3, 1), ("sym:3 x cyc:3", 5, None),
])
def test_real_cochain_and_nerve_ranks_bounded_and_full(spec, p, index):
    """Cochain complexes of orbit-category functors (mod-p cohomology of the
    stabilizers; the constant functor where p does not divide |G|) and the
    nerve of the orbit category."""
    G = build_group(spec)
    skel = build_orbit_skeletons(G, p)
    if index is None:
        F = constant_functor(skel.omega_cat, p)
    else:
        F = classifying_cohomology_functor(skel.omega_cat, index, CohomologyCache(G, p))
    cx = functor_cochain_complex(F, 3)
    ranks = [cx.rank_boundary(d) for d in range(1, cx.dmax + 1)]
    assert_bounded_ranks_exact(cx, ranks)
    nerve = nerve_complex(skel.omega_cat, p, 3)
    ranks = [nerve.rank_boundary(d) for d in range(1, nerve.dmax + 1)]
    assert_bounded_ranks_exact(nerve, ranks)


CATALOG = ["sym:3", "sym:4", "alt:4", "dih:8", "dih:12", "cyc:6", "sym:3 x cyc:3"]
LIMIT_CHECKS = ("punctured", "normalizer-reduction", "atomic-vanishing", "restriction",
                "filtration")


def assert_cochain_ranks_exact(cx) -> int:
    """Rank a fresh cochain complex with its ∂² = 0 bounds, spying on every
    row read; returns how many boundaries were certified and how many
    stopped at their bound before their last row."""
    plain = [FpMatrix(m.csr.copy(), m.prime) for m in cx.boundaries[1:]]
    reads = [spy_on_rows(m) for m in cx.boundaries[1:]]
    ranks = [cx.rank_boundary(d) for d in range(1, cx.dmax + 1)]
    certified = stopped = 0
    for m, full, read, r, cap in zip(cx.boundaries[1:], plain, reads, ranks,
                                     bound_caps(cx, ranks)):
        read = list(read)  # before the checks below read m's rows again
        assert r == full.rank() == reference_rank(full)
        if full.shape[0] * full.shape[1] <= DENSE_ORACLE_MAX_ENTRIES:
            assert r == oracle.dense_rank_modp(full.csr.toarray(), full.prime)
        assert_certified_or_eliminated(m, cap, read)
        assert_certified_or_eliminated(full, min(full.shape))
        if m.leads is None:
            certified += 1
            continue
        assert m.leads == full.leads and m.echelon == full.echelon
        starts = assert_reads_a_prefix(read, engine_order(m))
        if r == cap and starts and starts[-1] < m.shape[0] - 1:
            stopped += 1
    return certified, stopped


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cochain_ranks_bounded_on_every_catalog_limit_complex(monkeypatch, p):
    """Every cochain complex the limit checks build for the catalog: ranks
    bounded by ∂² = 0 equal full passes, the references and the dense
    oracle, what each keeps is what a full pass keeps, some boundary is
    certified and some other stops at its bound before its last row."""
    real = limits.functor_cochain_complex
    seen, counts = [], []

    def checked(F, nmax, budget=limits.DEFAULT_BUDGET):
        cx = real(F, nmax, budget)
        counts.append(assert_cochain_ranks_exact(cx))
        seen.append(cx.dims)
        return cx

    monkeypatch.setattr(limits, "functor_cochain_complex", checked)
    for spec in CATALOG:
        rep = run_pipeline(spec, PipelineConfig(prime=p, checks=LIMIT_CHECKS,
                                                include_timings=False))
        assert "fail" not in rep.verdicts.values(), spec
    certified, stopped = map(sum, zip(*counts))
    assert seen and certified > 0 and stopped > 0


HOMOLOGY_CHECKS = ("nerve-vs-group", "centric-restriction", "centric-agreement",
                   "linking-vs-transporter", "main")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_catalog_nerve_and_cone_keeps_a_tail_reduced_echelon(monkeypatch, p):
    """Every nerve and mapping-cone boundary the homology checks rank for the
    catalog at max-degree 3, seeded cones included, is certified exactly when
    its certificate reaches its cap.  Otherwise it keeps a tail-reduced
    echelon or, at p = 2, an exact annihilator, and its leads are the
    echelon's keys or number ncols minus Y's live bits.  Its rank equals the
    reference's and the dense oracle's where those are cheap (the other
    tests here cover larger real matrices)."""
    real = FpMatrix.rank
    ranked = {"plain": 0, "seeded": 0, "certified": 0, "referenced": 0}
    kept = {"echelon": 0, "annihilator": 0}

    def checked(self, bound=None):
        if self._rank is not None:
            return real(self, bound)
        seeded = self.tail is not None and self.tail[0].leads is not None
        r = real(self, bound)
        assert_certified_exactly(self, min(self.shape) if bound is None
                                 else min(bound, *self.shape))
        if self.leads is None:
            ranked["certified"] += 1
        elif self.echelon is not None:
            assert self.leads == list(self.echelon) and self.annihilator is None
            assert_tail_reduced(self.echelon)
            kept["echelon"] += 1
        else:
            assert_annihilates(self)
            kept["annihilator"] += 1
        if self.nnz <= 60_000:
            assert r == reference_rank(self)
            ranked["referenced"] += 1
        if self.shape[0] * self.shape[1] <= 500_000:
            assert r == oracle.dense_rank_modp(whole(self).toarray(), self.prime)
        ranked["seeded" if seeded else "plain"] += 1
        return r

    monkeypatch.setattr(FpMatrix, "rank", checked)
    for spec in CATALOG:
        rep = run_pipeline(spec, PipelineConfig(prime=p, max_degree=3, checks=HOMOLOGY_CHECKS,
                                                include_timings=False))
        assert "fail" not in rep.verdicts.values(), spec
    assert all(ranked.values()), ranked
    assert kept["echelon" if p > 2 else "annihilator"] > 0
    if p > 2:
        assert not kept["annihilator"]


def test_alt4_at_p2_max_degree_4_seeds_three_cones_from_annihilators(monkeypatch):
    """A full alt:4 run at p = 2, max-degree 4: three cone boundaries read
    rows after seeding from what their block keeps, an annihilator each
    time, and each keeps the annihilator and leads a full pass keeps."""
    real = FpMatrix.rank
    seeded = []

    def checked(self, bound=None):
        if self._rank is not None:
            return real(self, bound)
        block = self.tail[0] if self.tail is not None else None
        r = real(self, bound)
        if block is not None and block.leads is not None and self.leads is not None:
            assert block.annihilator is not None and fits(self)
            assert r == reference_rank(self)
            assert_kept_state(self)
            seeded.append(self.shape)
        return r

    monkeypatch.setattr(FpMatrix, "rank", checked)
    rep = run_pipeline("alt:4", PipelineConfig(prime=2, max_degree=4, include_timings=False))
    assert rep.overall == "pass"
    assert seeded == [(132, 12)] * 3


def test_block_that_does_not_fit_raises():
    """A tail block of another prime, or whose width plus offset is not the
    matrix's, is refused when the matrix is built, ranked or not."""
    block = FpMatrix(sparse.identity(3, dtype=np.int64, format="csr"), 2)
    head = sparse.identity(4, dtype=np.int64, format="csr")
    for ranked in (False, True):
        if ranked:
            block.rank()
        for prime, offset in ((2, 0), (2, 2), (2, -1), (3, 1)):
            with pytest.raises(PLocalError, match="declared block does not fit the matrix"):
                FpMatrix(head.copy(), prime, tail=(block, offset))
    m = FpMatrix(head.copy(), 2, tail=(block, 1))
    assert m.shape == (7, 4) and m.nnz == 7 and m.rank() == 4


# -- the span test at p = 2 ----------------------------------------------------


def tall_gf2(rng, nrows, ncols, dim, late, triangular=False):
    """A GF(2) matrix whose rows are drawn from ``dim`` generator rows: sums
    of one to three generators, empty rows and repeats of earlier rows.
    ``late`` generators first appear at random rows after the first
    ``ncols``, so pivots keep arriving once the span test has started.
    With ``triangular``, generator k leads at column k (``dim <= ncols``)
    and the early generators also appear alone among the first ``ncols``
    rows, so each of the first ``dim`` columns leads some row."""
    gens = np.zeros((dim, ncols), dtype=bool)
    for k, g in enumerate(gens):
        if triangular:
            g[rng.choice(k + 1, min(k + 1, int(rng.integers(1, 6))), replace=False)] = True
            g[k] = True
        else:
            g[rng.choice(ncols, int(rng.integers(1, 6)), replace=False)] = True
    release = dict(zip(sorted(rng.choice(np.arange(ncols, nrows), late, replace=False).tolist()),
                       range(dim - late, dim)))
    known = dim - late
    alone = {}
    if triangular:
        alone = dict(zip(rng.choice(ncols, known, replace=False).tolist(), range(known)))
    rows = np.zeros((nrows, ncols), dtype=bool)
    for i in range(nrows):
        r = rng.random()
        if i in release:
            rows[i] = gens[release[i]]
            known += 1
        elif i in alone:
            rows[i] = gens[alone[i]]
        elif r < 0.1:
            continue
        elif r < 0.25 and i:
            rows[i] = rows[rng.integers(i)]
        else:
            picks = rng.choice(known, min(known, int(rng.integers(1, 4))), replace=False)
            rows[i] = np.logical_xor.reduce(gens[picks], axis=0)
    return sparse.csr_matrix(rows.astype(np.int64))


def seed_block(rng, ncols, dim) -> FpMatrix:
    """A ranked GF(2) block over ``ncols`` columns whose rows span ``dim``
    generators, tall enough to keep an annihilator, to seed a matrix that
    declares it as its tail."""
    block = FpMatrix(tall_gf2(rng, 20 * ncols, ncols, dim, 0), 2)
    block.rank()
    assert block.annihilator is not None
    return block


def ranked_gf2(csr, block: FpMatrix | None, cap) -> tuple[FpMatrix, list[int]]:
    """``csr``, over ``block`` at offset 0 if given, ranked under ``cap``,
    and the rows it read."""
    m = FpMatrix(csr.copy(), 2, None if block is None else (block, 0))
    read = spy_on_rows(m)
    m.rank(None if cap == math.inf else cap)
    return m, list(read)


@pytest.mark.parametrize("nrows,ncols,dim,late", [
    (300, 12, 10, 3),
    (2000, 40, 30, 8),
    (4000, 100, 100, 20),
    (6000, 250, 180, 30),
])
@pytest.mark.parametrize("seeded", [False, True])
def test_span_filter_keeps_the_plain_echelon_on_tall_random_matrices(nrows, ncols, dim, late,
                                                                    seeded):
    """The span test against a plain pass, unseeded and seeded from a
    block's annihilator, under infinite, loose, exact and default caps: the
    leads are the plain echelon's keys, in order, Y is exact, no row is
    read one at a time, and the rows read are a prefix of the engine's
    order, all of them when no cap stops the test."""
    rng = np.random.default_rng(7 * nrows + ncols + seeded)
    csr = tall_gf2(rng, nrows, ncols, dim, late)
    block = seed_block(rng, ncols, 3) if seeded else None
    stacked = FpMatrix(csr.copy(), 2, None if block is None else (block, 0))
    rank = _rank_csr_gf2(whole(stacked))
    if nrows * ncols <= DENSE_ORACLE_MAX_ENTRIES:
        assert rank == oracle.dense_rank_modp(whole(stacked).toarray(), 2)
    tested = False
    for cap in (math.inf, rank + 2, rank, min(nrows, ncols)):
        m, read = ranked_gf2(csr, block, cap)
        assert m.rank() == min(rank, cap)
        assert_certified_or_eliminated(m, min(cap, *m.shape), read)
        if m.leads is None:
            continue
        assert m.annihilator is not None and read_in_bulk(read)
        order = engine_order(m)
        rows = assert_reads_a_prefix(read, order)
        if m.rank() < min(cap, *m.shape):
            assert rows == order  # no cap stopped the test
        tested = True
    assert tested


def test_span_filter_never_reads_a_row_already_in_the_span():
    """After the structural rows, no row is reduced: rows in the span of the
    rows before them (sums of head rows, repeats and empty rows) and the new
    rows alike are only tested.  The leads past the structural ones are
    those of the new rows, in order, and with the cap at the rank nothing
    after the block that holds the last new row is read."""
    rng = np.random.default_rng(11)
    ncols, nrows = 64, 3000
    # the head touches only the first 48 columns; each new row leads at the
    # last column and has one more entry among the others, so only the
    # first of them is structural and the rest add their pivots late
    head = np.zeros((ncols, ncols), dtype=bool)
    head[:, :48] = tall_gf2(rng, ncols, 48, 40, 0).toarray()
    fresh = np.zeros((6, ncols), dtype=bool)
    fresh[:, -1] = True
    fresh[np.arange(6), rng.choice(np.arange(48, ncols - 1), 6, replace=False)] = True
    rows = np.zeros((nrows, ncols), dtype=bool)
    rows[:ncols] = head
    new_at = sorted(rng.choice(np.arange(ncols, nrows), 6, replace=False).tolist())
    for i in range(ncols, nrows):
        if i in new_at:
            rows[i] = fresh[new_at.index(i)]
            continue
        r = rng.random()
        if r < 0.2:
            pass  # an empty row
        elif r < 0.4:
            rows[i] = head[rng.integers(ncols)]
        else:
            rows[i] = np.logical_xor.reduce(head[rng.choice(ncols, 3, replace=False)], axis=0)
    # the trailing rows are empty, so the last block ends with empty rows
    rows[-5:] = False
    csr = sparse.csr_matrix(rows.astype(np.int64))
    rank = _rank_csr_gf2(csr)
    structural, others = structural_first(csr, range(nrows), {})
    assert new_at[0] in structural and not set(new_at[1:]) & set(structural)
    # a plain pass, one row at a time: past the structural rows and the
    # head, the new rows are the ones that add a pivot
    plain = insert_rows_gf2(csr, structural, {}, math.inf)
    adding = []
    for i in others:
        before = len(plain)
        if len(insert_rows_gf2(csr, [i], plain, math.inf)) > before:
            adding.append(i)
    assert [i for i in adding if i >= ncols] == new_at[1:]

    # after the structural rows, every row is tested in blocks, in row
    # order: the first as long as the matrix is wide, each later one half
    # as long as the rows tested so far; the cap stops the test with the
    # block that holds the last new row
    end = ncols
    while end < nrows and end - 1 < new_at[-1]:
        end += max(ncols, end // 2)
    for cap, stop in ((math.inf, nrows), (rank, min(end, nrows))):
        m, read = ranked_gf2(csr, None, cap)
        assert m.rank() == rank == len(m.leads)
        assert_certified_or_eliminated(m, min(cap, *m.shape), read)
        assert m.leads == list(plain)
        assert read_in_bulk(read)
        assert rows_read(read) == structural + list(range(stop))


def shared_lead_gf2(rng, nrows, ncols, early, late):
    """A GF(2) matrix drawn from ``early`` generators with distinct leads
    and ``late`` generators that lead where early ones do, so most late ones
    add their pivots after the structural phase.  Each late generator first
    appears alone at a random row in the first half, and about half of the
    rows after it add it to one or two other generators, so rows that join
    the span arrive in the same block as the pivot that puts them there."""
    leads = np.sort(rng.choice(np.arange(1, ncols), early, replace=False))
    gens = np.zeros((early + late, ncols), dtype=bool)
    for g, c in zip(gens, np.concatenate([leads, rng.choice(leads, late)])):
        g[rng.choice(c, min(c, int(rng.integers(2, 8))), replace=False)] = True
        g[c] = True
    release = dict(zip(sorted(rng.choice(nrows // 2, late, replace=False).tolist()),
                       range(early, early + late)))
    known = early
    rows = np.zeros((nrows, ncols), dtype=bool)
    for i in range(nrows):
        r = rng.random()
        if i in release:
            rows[i] = gens[release[i]]
            known += 1
        elif r < 0.05:
            continue
        elif r < 0.15 and i:
            rows[i] = rows[rng.integers(i)]
        else:
            picks = rng.choice(known, int(rng.integers(1, 3)), replace=False).tolist()
            if known > early and r < 0.6:
                picks.append(known - 1)  # the generator released last
            rows[i] = np.logical_xor.reduce(gens[picks], axis=0)
    return sparse.csr_matrix(rows.astype(np.int64))


def outside_span(csr, rows, pivots: dict) -> list[int]:
    """The rows of ``rows`` that do not reduce to zero against ``pivots``."""
    out = []
    for i in rows:
        m = 0
        for c in csr.indices[csr.indptr[i]:csr.indptr[i + 1]].tolist():
            m |= 1 << c
        while m and m.bit_length() - 1 in pivots:
            m ^= pivots[m.bit_length() - 1]
        if m:
            out.append(i)
    return out


@pytest.mark.parametrize("nrows,ncols,early,late", [(3000, 400, 150, 120),
                                                    (6000, 700, 300, 200)])
@pytest.mark.parametrize("seeded", [False, True])
@pytest.mark.parametrize("gather", [None, 8])
def test_rows_joining_the_span_inside_a_block_are_never_reduced(monkeypatch, nrows, ncols,
                                                                 early, late, seeded, gather):
    """Pivots that arrive inside a block put the block's later rows into the
    span.  No row is reduced, and the leads are those of a plain pass, in
    order, under the caps infinity, rank and ``min(shape)``.  The syndromes
    are more than 128 bits wide, so their top bits are found across several
    words.  With a gather of 8 entries a block is tested in chunks of one
    or two rows, some longer than the gather, each against Y as the chunks
    before it left it."""
    if gather:
        monkeypatch.setattr(fplinalg, "_GATHER", gather)
    rng = np.random.default_rng(nrows + late + seeded)
    csr = shared_lead_gf2(rng, nrows, ncols, early, late)
    block = seed_block(rng, ncols, 40) if seeded else None
    stacked = FpMatrix(csr.copy(), 2, None if block is None else (block, 0))
    seeds, _, _ = seeds_of(stacked) if seeded else ({}, None, False)
    structural, others = structural_first(csr, range(nrows), seeds)
    start = insert_rows_gf2(csr, structural, dict(seeds), math.inf)
    rank = _rank_csr_gf2(whole(stacked))
    assert ncols - len(start) > 128 and ncols - len(seeds) > 128
    if gather is None and not seeded and nrows * ncols <= DENSE_ORACLE_MAX_ENTRIES:
        assert rank == oracle.dense_rank_modp(csr.toarray(), 2)
    # far more rows lie outside the span after the structural phase than
    # add a pivot: the rest join the span later
    assert len(outside_span(csr, others, start)) > 5 * (rank - len(start))
    for cap in (math.inf, rank, min(nrows, ncols)):
        m, read = ranked_gf2(csr, block, cap)
        assert m.rank() == min(rank, cap) == len(m.leads)
        assert_certified_or_eliminated(m, min(cap, *m.shape), read)
        assert m.annihilator is not None and read_in_bulk(read)
        assert_reads_a_prefix(read, engine_order(m))


def test_span_filter_keeps_the_plain_echelon_on_the_sym4_degree3_boundaries(monkeypatch):
    """The three largest boundaries the homology checks rank for sym:4 at
    p = 2, max-degree 3: the bar ∂_3 and the transporter-poset and linking
    ∂_3, which read past their columns because H_2 ≠ 0 keeps them below the
    ∂² bound.  Each keeps an exact annihilator and the leads of a plain
    pass, and reduces no row; their ranks, structural rows and annihilator
    widths in words are pinned: 493 of 505, 1,219 of 1,244 and 1,479 of
    1,538 pivots are structural."""
    real = FpMatrix.rank
    seen = {}

    def checked(self, bound=None):
        if self._rank is not None or self.shape[0] < 10_000 or self.tail is not None:
            return real(self, bound)
        csr = self.csr.copy()
        read = spy_on_rows(self)
        r = real(self, bound)
        assert_kept_state(self)
        assert r == _rank_csr_gf2(csr) == len(plain_pass_gf2(csr, range(csr.shape[0]), {},
                                                              math.inf))
        assert read_in_bulk(read)
        assert_reads_a_prefix(read, engine_order(self))
        structural = structural_first(csr, range(csr.shape[0]), {})[0]
        seen[csr.shape] = (r, len(structural), len(self.annihilator.basis))
        return r

    monkeypatch.setattr(FpMatrix, "rank", checked)
    rep = run_pipeline("sym:4", PipelineConfig(prime=2, max_degree=3, checks=HOMOLOGY_CHECKS,
                                               include_timings=False))
    assert "fail" not in rep.verdicts.values()
    assert seen == {(12167, 529): (505, 493, 1), (30246, 1298): (1244, 1219, 2),
                    (33284, 1620): (1538, 1479, 3)}


def test_span_filter_declines_an_annihilator_larger_than_the_matrix():
    """A wide, sparse matrix: the annihilator of its structural rows would
    take more than 2 nnz words, so the dict loop ranks it, reading every
    row in row order, and it keeps that echelon and no annihilator.  A cone
    over it seeds from that echelon: it reads only its own rows."""
    ncols, nrows = 640, 2000
    rows = np.arange(nrows)
    csr = sparse.csr_matrix((np.ones(nrows, dtype=np.int64), (rows, rows % 8)),
                            shape=(nrows, ncols))
    structural = _structural_rows(_leads(csr), [], ncols)
    assert ncols * -(-(ncols - len(structural)) // 64) > 2 * csr.nnz
    assert _Annihilator.of_rows(csr, structural) is None
    m = FpMatrix(csr.copy(), 2)
    read = spy_on_rows(m)
    assert m.rank() == _rank_csr_gf2(csr) == 8
    read = list(read)  # before the checks below read m's rows again
    assert m.annihilator is None and m.echelon is not None
    assert_certified_or_eliminated(m, min(m.shape), read)
    assert rows_read(read) == list(range(nrows))

    rng = np.random.default_rng(640)
    left = 30
    head = random_sparse(rng, 50, left + ncols, 2, 3)
    cone = FpMatrix(head.copy(), 2, tail=(m, left))
    read = spy_on_rows(cone)
    assert cone.rank() == reference_rank(cone)
    read = list(read)
    assert cone.annihilator is None and cone.echelon is not None
    assert_certified_or_eliminated(cone, min(cone.shape), read)
    assert set(rows_read(read)) <= set(range(head.shape[0]))
    assert list(cone.echelon)[:8] == [c + left for c in m.leads]


def short_cycles_gf2(rng, nrows, nverts, reach) -> sparse.csr_matrix:
    """A nerve-like GF(2) boundary: one column per edge of the circulant
    graph joining each vertex u to u + 1, ..., u + ``reach`` (mod
    ``nverts``), and one row per random closed walk of 3 to 5 distinct
    edges.  Every row lies in the cycle space, so the rank falls short of
    the ``nverts * reach`` columns by at least ``nverts - 1``, and most rows
    lie in the span of the rows before them."""
    signed = [t for t in range(-reach, reach + 1) if t]
    cycles = []
    while len(cycles) < nrows:
        steps = rng.choice(signed, int(rng.integers(2, 5))).tolist()
        steps.append(-sum(steps))
        if not 0 < abs(steps[-1]) <= reach:
            continue
        u, edges = int(rng.integers(nverts)), set()
        for t in steps:
            low = u if t > 0 else (u + t) % nverts
            edges.add(low * reach + abs(t) - 1)
            u = (u + t) % nverts
        if len(edges) == len(steps):
            cycles.append(sorted(edges))
    cols = np.concatenate(cycles)
    rows = np.repeat(np.arange(nrows), [len(c) for c in cycles])
    return sparse.csr_matrix((np.ones(len(cols), dtype=np.int64), (rows, cols)),
                             shape=(nrows, nverts * reach))


@pytest.mark.parametrize("seeded", [False, True])
def test_span_filter_keeps_the_plain_echelon_on_a_tall_nerve_like_matrix(monkeypatch, seeded):
    """20,000 short cycles over 1,000 edges, ranked through ``FpMatrix``,
    seeded as a cone is (the last 10,000 rows declared as a block already
    ranked, tall enough to keep an annihilator) and unseeded.  The rank
    falls short of the columns by more than 64, so no cap stops it: the
    span test runs block after block with a Y at least two words wide.  The
    rank equals the reference's, the leads are a plain pass's, Y is exact,
    and no row is reduced."""
    rng = np.random.default_rng(26 + seeded)
    csr = short_cycles_gf2(rng, 20_000, 125, 8)
    widths = []
    real = _Annihilator._test

    def test(self, indices, ptr, need):
        widths.append(len(self.basis))
        return real(self, indices, ptr, need)

    monkeypatch.setattr(_Annihilator, "_test", test)
    m = FpMatrix(csr.copy(), 2)
    if seeded:
        block = FpMatrix(csr[-10_000:], 2)
        block.rank()
        assert block.annihilator is not None and fits(FpMatrix(csr[:-10_000], 2, (block, 0)))
        m = FpMatrix(csr[:-10_000], 2, (block, 0))
    read = spy_on_rows(m)
    widths.clear()
    assert m.rank() == _rank_csr_gf2(csr) < min(csr.shape) - 64
    assert read_in_bulk(read)
    assert_reads_a_prefix(read, engine_order(m))
    assert_kept_state(m)
    assert len(widths) >= 5 and min(widths) >= 2, widths


def ranked_by_ids(csr, block: FpMatrix | None, cap: int) -> tuple[list[int], _Annihilator]:
    """The leads and annihilator of ``csr``, over ``block`` at offset 0 or
    unseeded, under ``cap``, by the id-based span test of
    ``reference_fplinalg``: seeded, every row against the block's Y
    shifted; unseeded, the other rows against the structural rows' Y."""
    if block is not None:
        y = block.annihilator.shifted(0, csr.shape[1], csr.data.size + block.nnz)
        ids, leads = np.arange(csr.shape[0]), list(block.leads)
    else:
        structural, others = structural_first(csr, range(csr.shape[0]), {})
        y, leads = _Annihilator.of_rows(csr, np.array(structural, dtype=np.int64))
        ids = np.array(others, dtype=np.int64)
    return leads + new_leads_by_ids(y, csr, ids, cap - len(leads)), y


def assert_reads_as_by_ids(csr, block: FpMatrix | None, cap) -> FpMatrix:
    """``csr`` ranked under ``cap`` through ``FpMatrix`` keeps the rank,
    leads and Y, bit for bit, of the id-based span test, and reads its
    rows in bulk, a prefix of the engine's order; returns the matrix."""
    m, read = ranked_gf2(csr, block, cap)
    if m.leads is None:
        return m
    leads, y = ranked_by_ids(csr, block, min(cap, *m.shape))
    assert m.rank() == len(leads) and m.leads == leads
    assert np.array_equal(m.annihilator.basis, y.basis)
    assert np.array_equal(m.annihilator.free, y.free)
    assert read_in_bulk(read)
    assert_reads_a_prefix(read, engine_order(m))
    return m


@pytest.mark.parametrize("nrows,ncols,dim,late,gather", [
    (2000, 40, 30, 8, None),
    (6000, 250, 180, 30, None),
    (3000, 100, 90, 20, 8),
])
@pytest.mark.parametrize("seeded", [False, True])
def test_range_reader_keeps_the_id_readers_leads_and_annihilator(monkeypatch, nrows, ncols, dim,
                                                                 late, gather, seeded):
    """Tall random GF(2) matrices with empty rows, a run of 300 empty rows
    and 5 trailing ones, so that a chunk may hold no entry and the last
    range ends with empty rows, whose offsets ``reduceat`` must not see.
    With a gather of 8 entries some rows are longer than the gather and
    are tested alone.  Unseeded and seeded from a block's annihilator,
    under the caps infinity, the rank, one past the certificate and
    ``min(shape)``: the rank equals the reference's and the oracle's, and
    the leads and Y equal the id-based span test's."""
    if gather:
        monkeypatch.setattr(fplinalg, "_GATHER", gather)
    rng = np.random.default_rng(5 * nrows + ncols + seeded)
    rows = tall_gf2(rng, nrows, ncols, dim, late)
    empty = sparse.csr_matrix((300, ncols), dtype=np.int64)
    csr = sparse.vstack([rows[:nrows // 2], empty, rows[nrows // 2:], empty[:5]]).tocsr()
    assert not csr[-5:].nnz and not csr[nrows // 2:nrows // 2 + 300].nnz
    if gather:
        assert np.diff(csr.indptr).max() > gather
    block = seed_block(rng, ncols, 3) if seeded else None
    stacked = FpMatrix(csr.copy(), 2, None if block is None else (block, 0))
    assert not seeded or fits(stacked)
    rank = _rank_csr_gf2(whole(stacked))
    assert rank == oracle.dense_rank_modp(whole(stacked).toarray(), 2)
    count = certificate(stacked)[1]
    eliminated = 0
    for cap in (math.inf, rank, count + 1, min(csr.shape)):
        m = assert_reads_as_by_ids(csr, block, cap)
        assert m.rank() == min(rank, cap)
        eliminated += m.leads is not None
    assert eliminated >= 3


@pytest.mark.parametrize("seeded", [False, True])
def test_range_reader_keeps_the_id_readers_state_on_a_linking_sized_nerve_like_matrix(seeded):
    """33,284 short cycles over 1,620 edges, the shape of the sym:4, p = 2
    linking ∂_3, unseeded and over its last 13,284 rows declared as a
    ranked block: the rank equals the reference's, and the leads and Y
    equal the id-based span test's."""
    rng = np.random.default_rng(33_284 + seeded)
    csr = short_cycles_gf2(rng, 33_284, 180, 9)
    block = None
    if seeded:
        block = FpMatrix(csr[20_000:], 2)
        block.rank()
        csr = csr[:20_000]
        assert block.annihilator is not None and fits(FpMatrix(csr, 2, (block, 0)))
    want = _rank_csr_gf2(whole(FpMatrix(csr, 2, None if block is None else (block, 0))))
    m = assert_reads_as_by_ids(csr, block, math.inf)
    assert m.rank() == want < 1_620 - 64
    assert_annihilates(m)


# -- the structural phase at p = 2 ---------------------------------------------


def lead_of(csr, i) -> int:
    return max(csr.indices[csr.indptr[i]:csr.indptr[i + 1]].tolist())


def assert_rank_exact(csr, rank: int):
    assert rank == _rank_csr_gf2(csr) == oracle.dense_rank_modp(csr.toarray(), 2)


@pytest.mark.parametrize("nrows,ncols,dim,late", [(2000, 40, 30, 8), (6000, 250, 180, 30)])
def test_structural_phase_skips_the_leads_of_seeds(nrows, ncols, dim, late):
    """Seeds leading where structural rows lead, and mostly outside their
    row space, declared as a block: the rows leading there are not counted
    by the certificate, and the matrix keeps what a plain pass from the
    block's state keeps."""
    rng = np.random.default_rng(nrows + ncols)
    csr = tall_gf2(rng, nrows, ncols, dim, late)
    structural, _ = structural_first(csr, range(nrows), {})
    # every third structural row with one more entry below its lead
    dense = csr[structural[::3]].toarray()
    for row in dense:
        below = np.flatnonzero(row)[-1]
        if below:
            row[rng.integers(below)] ^= 1
    # and the sum of the first two, so that the seeds' own rank is not certified
    S = sparse.csr_matrix(np.vstack([dense, dense[0] ^ dense[1]]))
    block = FpMatrix(S.copy(), 2)
    block.rank()
    seeds = block.leads
    assert sorted(seeds) == sorted(lead_of(csr, i) for i in structural[::3])
    after, _ = structural_first(csr, range(nrows), seeds)
    assert after == [i for i in structural if lead_of(csr, i) not in seeds]
    assert _structural_rows(_leads(csr), seeds, ncols).tolist() == after
    both = sparse.vstack([csr, S]).tocsr()
    rank = _rank_csr_gf2(both)
    assert_rank_exact(both, rank)
    assert rank > _rank_csr_gf2(csr)

    for cap in (math.inf, rank, len(seeds) + len(after), min(nrows, ncols)):
        m = FpMatrix(csr.copy(), 2, (block, 0))
        read = spy_on_rows(m)
        assert m.rank(None if cap == math.inf else cap) == min(rank, cap)
        read = list(read)  # before the checks below read m's rows again
        assert certificate(m) == (len(seeds), len(seeds) + len(after))
        assert_certified_or_eliminated(m, min(cap, *m.shape), read)
        if m.leads is not None:
            assert_reads_a_prefix(read, engine_order(m))


def test_a_cap_inside_the_structural_phase_reads_no_later_row():
    """Structural rows have distinct leads, so they are independent, and a
    cap they reach is certified: no row is read at all."""
    rng = np.random.default_rng(23)
    nrows, ncols = 4000, 100
    csr = tall_gf2(rng, nrows, ncols, 100, 20)
    structural, _ = structural_first(csr, range(nrows), {})
    assert_rank_exact(csr, _rank_csr_gf2(csr))
    assert len(structural) < _rank_csr_gf2(csr)
    for cap in (1, len(structural) // 2, len(structural)):
        m = FpMatrix(csr.copy(), 2)
        read = spy_on_rows(m)
        assert m.rank(cap) == cap
        assert_certified_or_eliminated(m, cap, read)
        assert m.leads is None and not read
        assert_rank_exact(csr[structural[:cap]], cap)


@pytest.mark.parametrize("nrows,ncols,late", [(3000, 120, 30), (5000, 200, 40)])
def test_structural_rows_alone_reach_the_bound_of_a_full_rank_matrix(nrows, ncols, late):
    """A tall matrix of full column rank whose every column leads some row,
    late ones included, like the top boundary of an acyclic cone: ranked
    with the bound ``ncols``, it is certified and reads no row, and the
    engine under that cap reads its structural rows and nothing else, and
    keeps an annihilator of no words."""
    rng = np.random.default_rng(nrows + late)
    csr = tall_gf2(rng, nrows, ncols, ncols, late, triangular=True)
    structural, _ = structural_first(csr, range(nrows), {})
    assert len(structural) == ncols
    m = FpMatrix(csr.copy(), 2)
    read = spy_on_rows(m)
    assert m.rank(ncols) == ncols
    assert_rank_exact(csr, ncols)
    assert_certified_or_eliminated(m, ncols, read)
    assert m.leads is None

    engine = FpMatrix(csr.copy(), 2)
    read = spy_on_csr(engine.csr)
    engine.leads = engine._insert(None, [], None, ncols)
    engine._rank = len(engine.leads)
    assert rows_read(read) == structural
    assert engine.leads == list(plain_pass_gf2(csr, structural, {}, math.inf))
    assert engine.annihilator.basis.shape == (0, ncols)
    assert_kept_state(engine)


@pytest.mark.parametrize("spec", ["sym:4", "dih:8"])
def test_acyclic_cone_boundaries_read_only_their_structural_rows(spec):
    """Every boundary of the transporter-to-linking cone at p = 2 reaches
    its ∂² bound with its structural rows alone: they are as many as the
    bound, so ``rank`` certifies it and reads no row, and the engine under
    that cap reads them, in ascending order of their leads, and no other
    row."""
    cone = mapping_cone(*centric_linking_cone(spec, 2, 3))
    for d in range(1, cone.dmax + 1):
        m = cone.boundaries[d]
        csr = whole(m)
        structural, _ = structural_first(csr, range(csr.shape[0]), {})
        read = spy_on_rows(m)
        rank = cone.rank_boundary(d)
        read = list(read)  # before the checks below stack m's rows
        assert rank == cone.dims[d - 1] - (cone.rank_boundary(d - 1) if d > 1 else 0)
        assert len(structural) == rank
        assert_certified_or_eliminated(m, rank, read)
        assert m.leads is None
        assert rank == reference_rank(FpMatrix(csr, 2))
        if csr.shape[0] * csr.shape[1] <= DENSE_ORACLE_MAX_ENTRIES:
            assert rank == oracle.dense_rank_modp(csr.toarray(), 2)

        engine = FpMatrix(csr.copy(), 2)
        read = spy_on_csr(engine.csr)
        engine.leads = engine._insert(None, [], None, rank)
        engine._rank = len(engine.leads)
        assert engine.annihilator is not None
        assert rows_read(read) == structural
        assert_kept_state(engine)


# -- the rank certificate ------------------------------------------------------


def led_generators(rng, p, ncols, leads) -> np.ndarray:
    """One dense row over F_p per column of ``leads`` (ascending), 1 there
    and with up to three random nonzero entries below it."""
    gens = np.zeros((len(leads), ncols), dtype=np.int64)
    for k, c in enumerate(leads):
        below = rng.choice(c, min(c, int(rng.integers(0, 4))), replace=False)
        gens[k, below] = rng.integers(1, p, len(below))
        gens[k, c] = 1
    return gens


def combinations(rng, p, gens, nrows, hidden=()) -> sparse.csr_matrix:
    """``nrows`` random combinations of the rows of ``gens`` (ascending
    leads), about 5% of them empty.  A row's largest generator sets its
    lead; up to three smaller ones join it.  The generators ``hidden`` are
    never the largest, so no row leads at their column, but each of them
    appears under a larger one."""
    shown = [k for k in range(len(gens)) if k not in hidden]
    rows = np.zeros((nrows, gens.shape[1]), dtype=np.int64)
    for i in range(nrows):
        if rng.random() < 0.05:
            continue
        top = shown[int(rng.integers(len(shown)))]
        for k in [top, *rng.choice(top, min(top, int(rng.integers(0, 4))), replace=False)]:
            rows[i] += int(rng.integers(1, p)) * gens[k]
    for i, k in zip(rng.choice(nrows, len(hidden), replace=False), hidden):
        rows[i] = gens[k] + gens[shown[-1]]
    return sparse.csr_matrix(rows % p)


def tall_with_leads(rng, p, seeded, hidden):
    """A tall random matrix and the block its last rows are, or None.

    Unseeded: 2,000 rows over 120 columns, spanned by generators leading at
    84 of the columns.  Seeded: ``[T; 0 | B]``, 3,000 rows of each over 40 +
    160 columns.  B is spanned by generators leading at 96 of its columns,
    one never leading a row, so B's own certificate falls short and it
    keeps its echelon; T's rows lead both at those columns, which the seeds
    lead, and at the 30 columns of T's own generators.  ``hidden`` of the
    (unseeded, or T's own) generators never lead a row."""
    if not seeded:
        gens = led_generators(rng, p, 120, np.sort(rng.choice(120, 84, replace=False)))
        return combinations(rng, p, gens, 2000, hidden=range(40, 40 + hidden)), None
    left, right = 40, 160
    lead_b = np.sort(rng.choice(right, 96, replace=False))
    g_b = led_generators(rng, p, right, lead_b)
    B = combinations(rng, p, g_b, 3000, hidden=(50,))
    free = np.setdiff1d(np.arange(left + right), lead_b + left)
    lead_t = np.sort(rng.choice(free, 30, replace=False))
    g_t = led_generators(rng, p, left + right, lead_t)
    gens = np.vstack([g_t, np.hstack([np.zeros((len(g_b), left), dtype=np.int64), g_b])])
    order = np.argsort(np.concatenate([lead_t, lead_b + left]))
    own = np.flatnonzero(order < len(lead_t))  # T's own generators, in lead order
    T = combinations(rng, p, gens[order], 3000, hidden=own[10:10 + hidden])
    bottom = sparse.hstack([sparse.csr_matrix((B.shape[0], left), dtype=np.int64), B])
    return sparse.vstack([T, bottom]).tocsr(), (B, left)


def test_centric_restriction_on_s3c3_at_p3_reads_no_row(monkeypatch):
    """The centric-restriction check on sym:3 x cyc:3 at p = 3, max-degree
    4, ranks the four boundaries of one acyclic cone, the largest 88,434 x
    5,202.  Each one's distinct leading columns reach its ∂² bound, so all
    four ranks are certified and no row is read."""
    real = FpMatrix.rank
    reads = []

    def spied(self, bound=None):
        if self._rank is None:
            reads.append(spy_on_rows(self))
        return real(self, bound)

    monkeypatch.setattr(FpMatrix, "rank", spied)
    rep = run_pipeline("sym:3 x cyc:3", PipelineConfig(
        prime=3, max_degree=4, checks=("centric-restriction",), include_timings=False))
    assert rep.verdicts["centric_restriction_homology"] == "pass"
    assert len(reads) == 4 and not any(reads)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seeded", [False, True])
@pytest.mark.parametrize("hidden", [0, 1])
def test_certificate_on_tall_random_matrices(p, seeded, hidden):
    """Ranked under its true rank, under one more and under its smaller
    side, a matrix is certified exactly when its certificate reaches the
    cap, and its rank is the oracle's either way.  With every generator
    leading some row the certificate is just at the true rank; with one
    that leads no row it is one below.  Seeded, T's rows that lead where
    the seeds lead put the number of distinct leads above a loose cap
    while the certificate stays below it: counting those leads would
    certify a rank that is too large."""
    rng = np.random.default_rng(100 * p + 10 * seeded + hidden)
    csr, tail = tall_with_leads(rng, p, seeded, hidden)
    want = oracle.dense_rank_modp(csr.toarray(), p)
    assert want == reference_rank(FpMatrix(csr.copy(), p))
    head = csr
    if seeded:
        head = csr[:csr.shape[0] - tail[0].shape[0]]
        block = FpMatrix(tail[0].copy(), p)
        block.rank()
        assert block.leads is not None  # B's certificate falls short
        tail = (block, tail[1])
    certified = []
    for bound in (want, want + 1, None):
        m = FpMatrix(head.copy(), p, tail)
        read = spy_on_rows(m)
        assert m.rank(bound) == want
        cap = min(m.shape) if bound is None else min(bound, *m.shape)
        read = list(read)
        assert_certified_or_eliminated(m, cap, read)
        certified.append(m.leads is None)
        seeds, count = certificate(m)
        assert count == want - hidden
        if seeded and bound is None:
            leads = {lead_of(csr, i) for i in range(m.csr.shape[0]) if csr.indptr[i + 1] >
                     csr.indptr[i]}
            assert count < cap <= seeds + len(leads)
    assert certified == [not hidden, False, False]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cone_over_a_certified_block_eliminates_unseeded(p):
    """A block certified by its bound keeps nothing, so a matrix that
    declares it as its tail has no seeds: it inserts every row, the tail's
    included, and its rank is the oracle's."""
    rng = np.random.default_rng(p)
    csr, (B, left) = tall_with_leads(rng, p, True, 1)
    # a block in which every generator leads some row
    B = combinations(rng, p, led_generators(rng, p, B.shape[1], np.arange(0, B.shape[1], 2)),
                     B.shape[0])
    block = FpMatrix(B.copy(), p)
    r = oracle.dense_rank_modp(B.toarray(), p)
    assert block.rank(r) == r and block.leads is None
    head = csr[:-B.shape[0]]
    full = sparse.vstack([head, sparse.hstack(
        [sparse.csr_matrix((B.shape[0], left), dtype=np.int64), B])]).tocsr()
    m = FpMatrix(head.copy(), p, tail=(block, left))
    read = spy_on_rows(m)
    want = oracle.dense_rank_modp(full.toarray(), p)
    assert m.rank() == want == reference_rank(FpMatrix(full.copy(), p))
    read = list(read)
    assert certificate(m)[0] == 0
    assert_certified_or_eliminated(m, min(m.shape), read)
    assert max(rows_read(read)) > m.csr.shape[0]  # the tail's rows were read too


def tall_cone(rng, p, left=40):
    """``(T, B, left)``: a block B of 20,000 rows over 150 columns, spanned
    by generators leading at 100 of them, each leading some row, and 2,000
    leading rows T over ``left`` + 150 columns, combining B's generators,
    moved ``left`` columns to the right, with 20 of T's own."""
    right = 150
    lead_b = np.sort(rng.choice(right, 100, replace=False))
    g_b = led_generators(rng, p, right, lead_b)
    B = combinations(rng, p, g_b, 20_000)
    free = np.setdiff1d(np.arange(left + right), lead_b + left)
    lead_t = np.sort(rng.choice(free, 20, replace=False))
    g_t = led_generators(rng, p, left + right, lead_t)
    gens = np.vstack([g_t, np.hstack([np.zeros((len(g_b), left), dtype=np.int64), g_b])])
    order = np.argsort(np.concatenate([lead_t, lead_b + left]))
    return combinations(rng, p, gens[order], 2000), B, left


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tall_cones_rank_as_their_rows_stacked_into_one_csr(p):
    """A cone storing 2,000 rows over a 20,000-row block that was ranked
    (its state kept), certified (none kept) or never ranked has the rank
    of the same rows stacked into one CSR and the dense oracle's, bounded
    by it or not.  Unseeded, it keeps what that CSR keeps.  Seeded, it
    keeps what a full pass from the block's state keeps, which at p > 2 is
    the echelon of the CSR with the block's rows first."""
    rng = np.random.default_rng(20_000 + p)
    T, B, left = tall_cone(rng, p)
    bottom = sparse.hstack([sparse.csr_matrix((B.shape[0], left), dtype=np.int64), B]).tocsr()
    full = FpMatrix(sparse.vstack([T, bottom]).tocsr(), p)
    want = oracle.dense_rank_modp(full.csr.toarray().astype(np.int16), p)
    assert full.rank() == want == 120 and full.leads is not None
    for state in ("ranked", "certified", "never"):
        block = FpMatrix(B.copy(), p)
        if state == "ranked":
            assert block.rank() == 100 and block.leads is not None
        elif state == "certified":
            assert block.rank(100) == 100 and block.leads is None
        m = FpMatrix(T.copy(), p, tail=(block, left))
        assert m.csr.shape == T.shape and m.shape == full.shape and m.nnz == full.nnz
        assert m.rank() == want, state
        assert_kept_state(m)
        if state == "ranked":
            if p > 2:
                first = FpMatrix(sparse.vstack([bottom, T]).tocsr(), p)
                assert first.rank() == want
                assert list(m.echelon.items()) == list(first.echelon.items())
        else:
            assert m.leads == full.leads and m.echelon == full.echelon, state
        assert FpMatrix(T.copy(), p, tail=(block, left)).rank(want) == want


@pytest.mark.parametrize("case", ["annihilator", "certified", "too wide"])
def test_tall_cones_at_p2_seed_from_the_block_annihilator_when_it_fits(case):
    """A cone of 2,000 rows over a 20,000-row block at p = 2, against the
    same rows stacked, the reference and the oracle, bounded or not.  Over
    a block that keeps an annihilator the cone seeds from it: it reads only
    its stored rows and keeps the block's leads, shifted, then its own.
    Over a certified block it stacks.  So it does over a block with an
    annihilator when the unit vectors at its 10,000 left columns and the
    block's Y would take more than 2 nnz words."""
    rng = np.random.default_rng(2)
    T, B, left = tall_cone(rng, 2, 10_000 if case == "too wide" else 40)
    bottom = sparse.hstack([sparse.csr_matrix((B.shape[0], left), dtype=np.int64), B]).tocsr()
    stacked = FpMatrix(sparse.vstack([T, bottom]).tocsr(), 2)
    want = reference_rank(stacked)
    assert stacked.rank() == want
    if case != "too wide":
        assert want == oracle.dense_rank_modp(stacked.csr.toarray().astype(np.int8), 2)
    block = FpMatrix(B.copy(), 2)
    assert block.rank(None if case != "certified" else 100) == 100
    assert (block.annihilator is not None) == (case != "certified")
    for bound in (None, want):
        m = FpMatrix(T.copy(), 2, tail=(block, left))
        read = spy_on_rows(m)
        assert m.rank(bound) == want
        read = list(read)  # before the checks below stack m's rows
        assert_certified_or_eliminated(m, min(m.shape) if bound is None else want, read)
        if m.leads is None:
            continue
        rows = assert_reads_a_prefix(read, engine_order(m))
        if case == "annihilator":
            assert fits(m) and max(rows) < T.shape[0]
            assert m.leads[:100] == [c + left for c in block.leads]
        else:
            assert case == "certified" or not fits(m)
            assert max(rows) >= T.shape[0]  # the tail's rows were read too
            assert m.leads == stacked.leads


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("shape", [(23, 1), (5000, 7)])
@pytest.mark.parametrize("bound", [1, None])
def test_a_matrix_with_no_entries_has_rank_0_and_reads_no_row(monkeypatch, p, shape, bound):
    """No row is read and no annihilator is built: the rank is 0 and the
    echelon and leads are empty, under the caps 1 and infinity.  A tail's
    entries count: over a block with one nonzero row the rank is 1."""
    built = []
    real = _Annihilator.of_rows
    monkeypatch.setattr(_Annihilator, "of_rows", lambda *args: built.append(args) or real(*args))
    m = FpMatrix(sparse.csr_matrix(shape, dtype=np.int64), p)
    read = spy_on_rows(m)
    assert m.rank(bound) == 0
    assert m.echelon == {} and m.leads == [] and not read and not built
    assert reference_rank(m) == 0
    over = FpMatrix(sparse.csr_matrix(shape, dtype=np.int64), p,
                    tail=(FpMatrix(sparse.csr_matrix(np.ones((1, shape[1]), np.int64)), p), 0))
    assert over.nnz == shape[1]
    assert over.rank(bound) == 1 == reference_rank(over)


# -- construction --------------------------------------------------------------


def sum_first(csr, p: int) -> sparse.csr_matrix:
    """Canonical form by scipy alone: duplicates summed over the integers,
    then put in the form ``symmetric`` gives and zeros dropped."""
    csr = sparse.csr_matrix(csr, dtype=np.int64, copy=True)
    csr.sum_duplicates()
    csr.data = symmetric(csr.data, p)
    csr.eliminate_zeros()
    return csr


@pytest.mark.parametrize("array,at,value", [
    ("indptr", 0, 1),  # the row pointer starts past 0
    ("indptr", 2, 1),  # and decreases
    ("indptr", -1, 5),  # ends short of the indices
    ("indices", 3, -1),
    ("indices", 3, 4),  # past the last column
])
def test_construction_rejects_csr_arrays_out_of_bounds(array, at, value):
    """A CSR whose arrays were written after scipy built it: each fault
    raises ``PLocalError``, where scipy would prune the short row pointer
    silently and checks no column index, and the intact matrix builds."""
    csr = sparse.csr_matrix(np.array([[1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 0, 1]]))
    assert FpMatrix(csr.copy(), 3).csr.nnz == 6
    getattr(csr, array)[at] = value
    with pytest.raises(PLocalError, match="out of bounds"):
        FpMatrix(csr, 3)


@pytest.mark.parametrize("p", [2, 3])
def test_construction_sums_duplicates_before_reducing(p):
    """Unsorted indices, explicit zeros, entries that vanish mod p, and
    duplicates that cancel only once summed (2 + 2 -> 1 and 1 + 2 -> 0 at
    p = 3, 1 + 3 -> 0 at p = 2), given as COO and as raw CSR arrays: the
    matrix is canonical and equal, array for array, to the sum-first one,
    and the -1 it is given is kept as it stands, at p = 2 too."""
    if p == 3:
        row0 = ([3, 2, 0, 1, 2, 0, 4], [2, 2, 1, 0, 3, 2, -1])  # (cols, vals)
    else:
        row0 = ([3, 1, 0, 1, 4, 2], [1, 1, 0, 3, 2, -1])
    cols = row0[0] + [4, 0, 4]
    vals = row0[1] + [p, 1, -1]
    rows = [0] * len(row0[0]) + [1, 2, 2]
    n = len(row0[0])
    raw = sparse.csr_matrix((np.array(vals), np.array(cols), np.array([0, n, n + 1, n + 3])),
                            shape=(3, 5))
    coo = sparse.coo_matrix((vals, (rows, cols)), shape=(3, 5))
    for given in (coo, raw):
        want = sum_first(given, p)
        got = FpMatrix(given.copy(), p).csr
        assert got.has_canonical_format
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert FpMatrix(raw.copy(), p).csr.toarray().tolist() == symmetric(raw.toarray(), p).tolist()
    assert FpMatrix(raw.copy(), p).csr[2].toarray().tolist() == [[1, 0, 0, 0, -1]]


@pytest.mark.parametrize("p", [2, 3])
def test_square_check_rejects_a_boundary_that_squares_to_nonzero_mod_p(p):
    """p edges from one point to another, and a face whose boundary is the
    sum of the edges plus c times the first: its square is (p + c) times an
    edge's boundary, a nonzero integer product that vanishes mod p exactly
    when p divides c."""
    d1 = FpMatrix(sparse.csr_matrix(np.tile([-1, 1], (p, 1))), p)
    for c in (0, p, 1, p + 1):
        d2 = FpMatrix(sparse.csr_matrix(np.array([[1 + c] + [1] * (p - 1)])), p)
        if c % p:
            with pytest.raises(PLocalError, match="boundary squared is nonzero in degree 2"):
                FpComplex(p, 2, [2, p, 1], [None, d1, d2])
        else:
            assert FpComplex(p, 2, [2, p, 1], [None, d1, d2]).homology() == [1, p - 2]


def unsigned(m: FpMatrix) -> FpMatrix:
    """m with every entry 1, its tail's too: the form in which p = 2 once
    stored a boundary, with the signs of its faces dropped."""
    csr = sparse.csr_matrix((np.ones_like(m.csr.data), m.csr.indices, m.csr.indptr),
                            shape=m.csr.shape)
    return FpMatrix(csr, m.prime, None if m.tail is None else (unsigned(m.tail[0]), m.tail[1]))


def test_products_of_lifted_nerve_boundaries_cancel_over_the_integers():
    """The ∂² check multiplies the stored boundaries, whose entries are -1
    and 1 at every p, with no copy.  On the bar complex of sym:3 x cyc:3,
    ∂_4 ∂_3 keeps 28 integer entries at p = 3 and at p = 2, all 0 mod p,
    where residues in 1..p-1 would give 778,764, and the stored boundaries
    are not written.  On the p = 2 cone of the transporter-to-linking
    projection of sym:4, the leading rows of ∂_3 times ∂_2 (tail included)
    cancel outright, where entries that are all 1 give 6,616."""
    G = build_group("sym:3 x cyc:3")
    for p in (3, 2):
        cx = nerve_complex(group_category(G, G.full_subgroup()), p, 4)
        top, below = cx.boundaries[4], cx.boundaries[3]
        stored = [m.csr.data.copy() for m in (top, below)]
        residues = (top.csr @ below.csr).tocsr()
        residues.data %= p
        residues.eliminate_zeros()
        lifted = [sparse.csr_matrix((m.csr.data % p, m.csr.indices, m.csr.indptr), shape=m.shape)
                  for m in (top, below)]
        raw = lifted[0] @ lifted[1]
        raw.eliminate_zeros()
        product = fplinalg._times(top.csr, below)
        product.eliminate_zeros()
        assert (raw.nnz, product.nnz, residues.nnz) == (778_764, 28, 0), p
        assert not (product.data % p).any()
        assert top.matmul(below)
        for m, data in zip((top, below), stored):
            assert np.array_equal(m.csr.data, data) and set(data.tolist()) == {-1, 1}

    G = build_group("sym:4")
    cents = centric_subgroups(G, 2, all_subgroups(sylow_subgroup(G, 2)))
    psi = quotient_projection(build_transporter(G, cents), 2)
    src, tgt = nerve_complex(psi.source, 2, 2), nerve_complex(psi.target, 2, 3)
    cone = mapping_cone(src, tgt, induced_chain_map(psi, src, tgt))
    top, below = cone.boundaries[3], cone.boundaries[2]
    assert below.tail is not None and top.csr.shape == (1_620, 1_704)
    assert fplinalg._times(top.csr, below).nnz == 0
    raw = fplinalg._times(unsigned(top).csr, unsigned(below))
    raw.eliminate_zeros()
    assert raw.nnz == 6_616 and not (raw.data % 2).any()


def noisy_csr(rng, canonical: sparse.csr_matrix, p: int, noise: int) -> sparse.csr_matrix:
    """A raw int64 CSR equal to ``canonical`` mod p, in rows unchanged: its
    entries moved by random multiples of p up to about 2^40, and ``noise``
    more entries of each kind that change nothing mod p: explicit zeros,
    multiples of p, and pairs of duplicates that cancel mod p only once
    summed.  Each row's indices come in random order."""
    nrows, ncols = canonical.shape
    coo = canonical.tocoo()
    big = 1 << 40
    lift = rng.integers(-big // p, big // p, coo.nnz) * p
    r = rng.integers(0, nrows, noise)
    c = rng.integers(0, ncols, noise)
    x = rng.integers(-big, big, noise)
    x[x % p == 0] += 1  # a pair that cancels only once summed
    rows = np.concatenate([coo.row, r, r, r, r])
    cols = np.concatenate([coo.col, c, c, rng.integers(0, ncols, noise), rng.integers(0, ncols, noise)])
    vals = np.concatenate([coo.data + lift, x, p * rng.integers(-3, 3, noise) - x,
                           np.zeros(noise, np.int64), p * rng.integers(-big // p, big // p, noise)])
    order = np.lexsort((rng.random(len(rows)), rows))  # by row, indices shuffled
    indptr = np.zeros(nrows + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
    return sparse.csr_matrix((vals[order], cols[order], indptr), shape=(nrows, ncols))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_symmetric_residues_at_size(p):
    """More than 10^5 raw int64 entries, up to about 2^40 in size: negatives,
    explicit zeros, multiples of p, unsorted indices and duplicates that
    cancel.  The stored CSR equals, array for array, scipy's sum of the
    duplicates in the form ``symmetric`` gives, and it equals the matrix
    mod p (entry for entry at odd p, where that form is unique).  Built again
    from that canonical CSR, whose entries are made read-only, the matrix
    keeps the same buffer and writes nothing into it.  Its rank equals the
    references' and the dense oracle's."""
    rng = np.random.default_rng(p)
    ncols = 800
    rows = np.repeat(np.arange(500), 6)
    free = sparse.csr_matrix((rng.integers(1, p, len(rows)), (rows, rng.integers(0, ncols, len(rows)))),
                             shape=(500, ncols), dtype=np.int64)
    base = sparse.vstack([free, free[:100] + (p - 1) * free[100:200]]).tocsr()  # 100 dependent rows
    nrows = base.shape[0]
    raw = noisy_csr(rng, base, p, 25_000)
    assert raw.nnz > 100_000 and not raw.has_canonical_format and (raw.data < 0).any()

    want = sparse.csr_matrix(raw, copy=True)
    want.sum_duplicates()
    want.data = symmetric(want.data, p)
    want.eliminate_zeros()
    m = FpMatrix(raw.copy(), p)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(m.csr, name), getattr(want, name)), name
    assert m.csr.has_canonical_format
    assert not ((m.csr.toarray() - base.toarray()) % p).any()
    if p > 2:  # the symmetric residue is unique only at odd p
        assert np.array_equal(m.csr.toarray(), symmetric(base.toarray(), p))

    data = want.data.copy()
    data.flags.writeable = False
    given = sparse.csr_matrix((data, want.indices, want.indptr), shape=want.shape)
    again = FpMatrix(given, p)
    assert again.csr.data is data or again.csr.data.base is data
    assert np.array_equal(again.csr.data, want.data)

    rank = m.rank()
    ref = _rank_csr_gf2(want) if p == 2 else _rank_csr_modp(want, p)
    assert rank == ref == oracle.dense_rank_modp(raw.toarray(), p)
    assert 0 < rank <= nrows - 100


def structural_rows_by_sort(leads: np.ndarray, seeded, ncols: int) -> np.ndarray:
    """``_structural_rows`` as it was once written, with a sort: the first
    row per lead by ``np.unique``, the seeded leads dropped."""
    full = np.flatnonzero(leads >= 0)
    cols, first = np.unique(leads[full], return_index=True)
    led = np.zeros(ncols, dtype=bool)
    led[list(seeded)] = True
    return full[first[~led[cols]]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_structural_rows_match_the_sorted_first_rows(seed):
    """The first row per leading column, found with no sort, equals the one
    ``np.unique`` finds, on 2 * 10^5 random leads with empty rows and with
    seeded leads, some of which no row has."""
    rng = np.random.default_rng(seed)
    ncols = 50_000
    leads = rng.integers(-1, ncols, 200_000)
    leads[rng.random(len(leads)) < 0.2] = -1
    for seeded in ([], rng.choice(ncols, 10_000, replace=False).tolist(), list(range(ncols))):
        got = _structural_rows(leads, seeded, ncols)
        want = structural_rows_by_sort(leads, seeded, ncols)
        assert np.array_equal(got, want)
        assert (np.diff(leads[got]) > 0).all()
    assert len(_structural_rows(np.full(5, -1), [], 3)) == 0


def assert_symmetric_canonical(csr: sparse.csr_matrix, p: int) -> None:
    """Columns strictly ascending within each row, and every entry a nonzero
    symmetric residue, |x| <= p//2: checked on the arrays."""
    indptr, indices, data = np.asarray(csr.indptr), csr.indices, csr.data
    row = np.repeat(np.arange(csr.shape[0]), np.diff(indptr))
    assert (np.diff(indices)[row[1:] == row[:-1]] > 0).all()
    assert data.all()
    if data.size:
        assert data.min() >= -(p // 2) and data.max() <= p // 2


@pytest.mark.parametrize("p", [2, 3])
def test_catalog_matrices_store_symmetric_residues(monkeypatch, p):
    """Every matrix the catalog runs build, with the settings of the
    determinism criterion (nerve boundaries, chain maps, mapping cones,
    functor cochain differentials, lim^0 systems and the ∂² products),
    stores canonical symmetric residues and nothing else."""
    real_init = FpMatrix.__init__
    built = {"nerve": 0, "cone": 0, "cochain": 0, "all": 0}

    def checked_init(self, csr, prime, tail=None):
        real_init(self, csr, prime, tail)
        assert_symmetric_canonical(self.csr, prime)
        built["all"] += 1

    def counting(module, name, kind, of):
        real = getattr(module, name)

        def wrapper(*args):
            out = real(*args)
            built[kind] += sum(m is not None for m in of(out))
            return out
        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(FpMatrix, "__init__", checked_init)
    counting(homology, "nerve_boundaries", "nerve", lambda out: out)
    counting(homology, "mapping_cone", "cone", lambda out: out.boundaries)
    counting(limits, "cochain_differentials", "cochain", lambda out: out[1])
    for spec in CATALOG:
        rep = run_pipeline(spec, PipelineConfig(prime=p, max_degree=3, max_limit_degree=3,
                                                cohomology_index_max=1, include_timings=False))
        assert rep.overall == "pass", spec
    assert all(built.values()), built


# -- dense routines, against their per-vector loops ---------------------------


def low_rank(rng, p: int, nrows: int, ncols: int, rank: int) -> np.ndarray:
    """A random integer matrix of rank at most ``rank`` mod p, with entries
    of both signs, and a zero row and a zero column where it has any."""
    A = rng.integers(0, p, (nrows, rank)) @ rng.integers(0, p, (rank, ncols)) % p
    A -= p * rng.integers(0, 2, A.shape)
    if nrows and ncols:
        A[rng.integers(nrows)] = 0
        A[:, rng.integers(ncols)] = 0
    return A


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("nrows,ncols,rank", [
    (0, 0, 0), (0, 7, 0), (7, 0, 0), (1, 1, 1), (12, 9, 4), (60, 90, 35), (90, 60, 60),
    (300, 280, 120),
])
def test_dense_rref_and_nullspace_match_their_loops(p, nrows, ncols, rank):
    """The RREF is unique, so R and its pivots equal the loop's; the rank is
    the oracle's, and the nullspace basis is the loop's, with ncols - rank
    rows, each killed by A."""
    A = low_rank(np.random.default_rng(p * nrows + ncols), p, nrows, ncols, rank)
    R, pivots = rref_dense(A, p)
    want_R, want_pivots = rref_loop(A, p)
    assert pivots == want_pivots and np.array_equal(R, want_R)
    assert len(pivots) == oracle.dense_rank_modp(A, p)
    N = nullspace_dense(sparse.csr_matrix(A), p)
    assert N.shape == (ncols - len(pivots), ncols)
    assert not (A @ N.T % p).any()
    assert np.array_equal(N, nullspace_loop(A, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("nrows,ncols,rank", [
    (0, 0, 0), (0, 7, 0), (7, 0, 0), (40, 6, 3), (90, 60, 60), (300, 25, 12), (500, 40, 40),
])
@pytest.mark.parametrize("block", [1, 100])
def test_nullspace_by_blocks_of_rows_is_the_whole_matrix_one(monkeypatch, p, nrows, ncols,
                                                             rank, block):
    """With the densified block cut to ``block`` entries, a block holds
    max(ncols, block // ncols) rows, so the tall matrices take many blocks,
    each reduced with the pivot rows so far: the nullspace basis is the one
    the whole matrix gives in one block, and the loop's."""
    A = low_rank(np.random.default_rng(p * nrows + ncols + block), p, nrows, ncols, rank)
    whole_basis = nullspace_dense(sparse.csr_matrix(A), p)
    calls = []

    def counted(M, q):
        calls.append(M.shape)
        return rref_dense(M, q)

    monkeypatch.setattr(fplinalg, "_DENSE_BLOCK", block)
    monkeypatch.setattr(fplinalg, "rref_dense", counted)
    N = nullspace_dense(sparse.csr_matrix(A), p)
    assert len(calls) == -(-nrows // max(ncols, block // max(ncols, 1)))
    assert np.array_equal(N, whole_basis)
    assert np.array_equal(N, nullspace_loop(A, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("ambient,silent,tracked", [
    (0, 0, 0), (6, 0, 4), (6, 3, 0), (40, 15, 30), (250, 80, 200),
])
def test_echelon_coords_match_the_per_vector_loop(p, ambient, silent, tracked):
    """Silent rows of half rank, and tracked rows of rank ambient/3 plus
    silent combinations, go into the batch object at once and into the loop
    one at a time.  The kept rows and the coordinates of vectors in the span
    are the loop's, and a vector outside it raises in both."""
    rng = np.random.default_rng(p * ambient + silent + tracked)
    S = low_rank(rng, p, silent, ambient, silent // 2)
    T = low_rank(rng, p, tracked, ambient, ambient // 3) + low_rank(rng, p, tracked, silent, silent) @ S
    ech, loop = EchelonCoords(ambient, p), EchelonLoop(ambient, p)
    ech.add_silent(S)
    for row in S:
        loop.add_silent(row)
    kept = ech.add_tracked(T)
    assert kept == [j for j, row in enumerate(T) if loop.add_tracked(row)]
    V = low_rank(rng, p, 9, tracked, tracked) @ T + low_rank(rng, p, 9, silent, silent) @ S
    X = ech.coords(V)
    assert X.shape == (len(kept), 9)
    assert np.array_equal(X, np.array([loop.coords(v) for v in V]).reshape(9, len(kept)).T)
    span = rref_dense(np.vstack([S, T]), p)[1]
    outside = np.setdiff1d(np.arange(ambient), span)
    if ambient > 6:
        assert outside.size
    for c in outside[:2].tolist():
        e = np.zeros(ambient, dtype=np.int64)
        e[c] = p - 1
        with pytest.raises(PLocalError, match="outside the tracked span"):
            ech.coords(np.vstack([V, e]))
        with pytest.raises(PLocalError, match="outside the tracked span"):
            loop.coords(e)


@pytest.mark.parametrize("ambient,p", [(2 ** 61, 3), (2 ** 63 // 36 + 1, 7)])
def test_echelon_coords_refuses_products_that_overflow_int64(ambient, p):
    """A product sums up to ``ambient`` products of residues, each at most
    (p-1)^2, so from ambient·(p-1)² = 2^63 on it could wrap."""
    with pytest.raises(PLocalError, match="overflow int64"):
        EchelonCoords(ambient, p)
