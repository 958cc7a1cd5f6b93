"""Differential tests for the sparse elimination engine.

A matrix whose last rows are declared as ``[0 | B]`` is ranked twice: seeded
from B's kept echelon, and from scratch.  Both must agree with the reference
eliminations ``_rank_csr_gf2``/``_rank_csr_modp`` (``reference_fplinalg.py``)
and, where the matrix is small enough to hold densely, with the dense oracle.

Nerves and cones rank each boundary with the bound ∂² = 0 forces, and
cochain complexes clear the rows at the previous differential's pivots.  A
bounded or cleared rank must equal the plain one and the reference, its
echelon must equal the one a pass over every row keeps, and no row after the
one that reaches the bound, and no cleared row, may be read.

Every kept echelon is tail-reduced: each pivot is zero at the leading column
of every pivot stored before it, seeds included.  The references reduce no
tails, so they stay an independent check of the ranks.

At p = 2 the engine skips the rows that already lie in the span of its
echelon, once it has read as many rows as the matrix has columns.  Its
echelon must equal, key for key and in insertion order, the one a plain
pass keeps, which inserts every row; a skipped row is never read.
"""

import math

import numpy as np
import pytest
from scipy import sparse

import oracle
from plocal import (
    PipelineConfig,
    PLocalError,
    all_subgroups,
    build_orbit_skeletons,
    build_transporter,
    classify_centric,
    classifying_cohomology_functor,
    functor_cochain_complex,
    induced_chain_map,
    mapping_cone,
    nerve_complex,
    quotient_projection,
    run_pipeline,
    sylow_subgroup,
)
from plocal import limits
from plocal.catalog import build_group
from plocal.cohomology import CohomologyCache
from plocal.fplinalg import (
    FpMatrix,
    _insert_rows_gf2,
    _insert_rows_modp,
    _reduce_rows_gf2,
    _shifted_echelon,
    _SpanTest,
)
from reference_chains import constant_functor
from reference_fplinalg import _rank_csr_gf2, _rank_csr_modp
from reference_omega import centric_subgroups

DENSE_ORACLE_MAX_ENTRIES = 2_000_000


def reference_rank(m: FpMatrix) -> int:
    if m.prime == 2:
        return _rank_csr_gf2(m.csr)
    return _rank_csr_modp(m.csr, m.prime)


def plain_pass_gf2(csr, rows, pivots: dict, cap) -> dict:
    """Insert every row of ``rows`` into ``pivots``, up to ``cap`` pivots,
    without the span filter."""
    lead = 0
    for c in pivots:
        lead |= 1 << c
    _reduce_rows_gf2(csr, rows, pivots, lead, cap)
    return pivots


def full_echelon(m: FpMatrix) -> dict:
    """The echelon ``m.rank()`` builds, seeded the same way, but with every
    row inserted: no bound, no cap and, at p = 2, no span filter."""
    pivots, nrows = {}, m.shape[0]
    if m.tail is not None and m.tail[0].echelon is not None:
        nrows = m._check_tail()
        pivots = _shifted_echelon(m.tail[0].echelon, m.tail[1], m.prime)
    if m.prime == 2:
        plain_pass_gf2(m.csr, range(nrows), pivots, math.inf)
    else:
        _insert_rows_modp(m.csr, range(nrows), m.prime, pivots, math.inf)
    return pivots


def assert_tail_reduced(echelon: dict, p: int):
    """Each pivot leads at its key (monic for p > 2) and is zero at the
    leading column of every pivot stored before it; seeds are stored
    first."""
    if p == 2:
        before = 0
        for c, m in echelon.items():
            assert m.bit_length() - 1 == c and not m & before, c
            before |= 1 << c
    else:
        before = set()
        for c, row in echelon.items():
            assert max(row) == c and row[c] == 1 and not before & row.keys(), c
            before.add(c)


def assert_bounded_ranks_exact(mats: list[FpMatrix], ranks: list[int]):
    """Each matrix, ranked by its complex with the ∂² = 0 bound (nerves and
    cones) or with clearing (cochains), against an unbounded rank, the
    reference and a full pass; its echelon is tail-reduced."""
    for m, r in zip(mats, ranks):
        unbounded = FpMatrix(m.csr.copy(), m.prime, m.tail)
        assert r == unbounded.rank() == reference_rank(m)
        assert m.echelon == unbounded.echelon == full_echelon(m)
        assert_tail_reduced(m.echelon, m.prime)


class RowSpy(np.ndarray):
    """A CSR row pointer that records every row index read from it."""

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)) and hasattr(self, "read"):
            self.read.append(int(key))
        return super().__getitem__(key)


def spy_on_csr(csr) -> list[int]:
    spy = csr.indptr.view(RowSpy)
    spy.read = []
    csr.indptr = spy
    return spy.read


def spy_on_rows(m: FpMatrix) -> list[int]:
    return spy_on_csr(m.csr)


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
    seeded = FpMatrix(full.copy(), p, tail=(block, left))
    plain = FpMatrix(full.copy(), p, tail=(FpMatrix(B.copy(), p), left))  # block never ranked

    want = reference_rank(FpMatrix(full.copy(), p))
    assert seeded.rank() == plain.rank() == want
    assert len(seeded.echelon) == want
    # seeded and bounded by the true rank: the same rank and echelon
    bounded = FpMatrix(full.copy(), p, tail=(block, left))
    assert bounded.rank(want) == want
    assert bounded.echelon == seeded.echelon == full_echelon(bounded)
    for m in (block, seeded, plain):
        assert_tail_reduced(m.echelon, p)
    if full.shape[0] * full.shape[1] <= DENSE_ORACLE_MAX_ENTRIES:
        assert want == oracle.dense_rank_modp(full.toarray(), p)


def centric_linking_cone(spec, p, dmax):
    """The mapping cone of the transporter-to-linking projection, as in the
    linking-vs-transporter check."""
    G = build_group(spec)
    cents = centric_subgroups(classify_centric(G, p, all_subgroups(sylow_subgroup(G, p))))
    psi = quotient_projection(build_transporter(G, cents), p)
    src = nerve_complex(psi.source, p, dmax - 1)
    tgt = nerve_complex(psi.target, p, dmax)
    return induced_chain_map(psi, src, tgt), tgt


@pytest.mark.parametrize("spec,p", [("sym:4", 2), ("sym:3 x cyc:3", 3), ("sym:3 x cyc:3", 5)])
def test_real_cone_ranks_seeded_and_plain(spec, p):
    """At p = 5 the Sylow subgroup is trivial: the cone compares BG with a
    point, and is acyclic because 5 does not divide |G|."""
    cm, tgt = centric_linking_cone(spec, p, 3)
    plain = mapping_cone(cm)
    plain_ranks = [plain.rank_boundary(d) for d in range(1, plain.dmax + 1)]
    assert all(tgt.boundaries[d].echelon is None for d in range(1, tgt.dmax + 1))
    assert_bounded_ranks_exact(plain.boundaries[1:], plain_ranks)

    target_ranks = [tgt.rank_boundary(d) for d in range(1, tgt.dmax + 1)]
    assert_bounded_ranks_exact(tgt.boundaries[1:], target_ranks)
    seeded = mapping_cone(cm)
    seeded_ranks = [seeded.rank_boundary(d) for d in range(1, seeded.dmax + 1)]
    assert seeded_ranks == plain_ranks
    assert seeded.homology().dims == [0] * seeded.dmax
    assert_bounded_ranks_exact(seeded.boundaries[1:], seeded_ranks)
    for d in range(1, seeded.dmax + 1):
        m = seeded.boundaries[d]
        assert np.issubdtype(m.csr.dtype, np.integer)
        want = reference_rank(m)
        assert m.rank() == plain_ranks[d - 1] == want, d
        if m.shape[0] * m.shape[1] <= DENSE_ORACLE_MAX_ENTRIES:
            assert want == oracle.dense_rank_modp(m.csr.toarray(), p)


@pytest.mark.parametrize("spec,p", [("sym:4", 2), ("sym:3 x cyc:3", 3)])
def test_elimination_stops_at_the_row_that_reaches_the_forced_rank(spec, p):
    """The top boundary of an acyclic cone has rank dims[d-1] - rank ∂_{d-1};
    the last row read is the one whose pivot reaches it, and most rows are
    never read."""
    cm, _ = centric_linking_cone(spec, p, 3)
    cone = mapping_cone(cm)
    d = cone.dmax
    top = cone.boundaries[d]
    csr = top.csr.copy()
    read = spy_on_rows(top)

    rank = cone.rank_boundary(d)
    assert rank == cone.dims[d - 1] - cone.rank_boundary(d - 1)
    assert rank == reference_rank(FpMatrix(csr, p))
    last = max(read) - 1  # row i reads indptr[i] and indptr[i + 1]
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
        F = classifying_cohomology_functor(G, p, skel.omega_cat, index, CohomologyCache(G, p))
    cx = functor_cochain_complex(F, 3)
    ranks = [cx.rank_diff(n) for n in range(len(cx.diffs))]
    assert_bounded_ranks_exact(cx.diffs, ranks)
    nerve = nerve_complex(skel.omega_cat, p, 3)
    ranks = [nerve.rank_boundary(d) for d in range(1, nerve.dmax + 1)]
    assert_bounded_ranks_exact(nerve.boundaries[1:], ranks)


CATALOG = ["sym:3", "sym:4", "alt:4", "dih:8", "dih:12", "cyc:6", "sym:3 x cyc:3"]
LIMIT_CHECKS = ("punctured", "normalizer-reduction", "atomic-vanishing", "restriction",
                "filtration")


def assert_clearing_exact(cx) -> int:
    """Rank a fresh cochain complex with clearing, spying on every row read;
    returns the number of rows cleared."""
    plain = [FpMatrix(m.csr.copy(), m.prime) for m in cx.diffs]
    reads = [spy_on_rows(m) for m in cx.diffs]
    ranks = [cx.rank_diff(n) for n in range(len(cx.diffs))]
    cleared_total = 0
    for n, (m, full, read, r) in enumerate(zip(cx.diffs, plain, reads, ranks)):
        assert r == full.rank() == reference_rank(full)
        if full.shape[0] * full.shape[1] <= DENSE_ORACLE_MAX_ENTRIES:
            assert r == oracle.dense_rank_modp(full.csr.toarray(), full.prime)
        assert m.echelon == full.echelon == full_echelon(full)
        assert_tail_reduced(m.echelon, m.prime)
        # row i reads indptr[i] and then indptr[i + 1]
        starts = read[::2]
        assert read[1::2] == [i + 1 for i in starts]
        assert starts == sorted(set(starts))
        cleared = set(cx.diffs[n - 1].echelon) if n else set()
        assert not cleared & set(starts)
        cleared_total += len(cleared)
    return cleared_total


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cochain_clearing_on_every_catalog_limit_complex(monkeypatch, p):
    """Every cochain complex the limit checks build for the catalog: cleared
    ranks equal plain ones, the references and the dense oracle, the kept
    echelons equal full passes, and no cleared row is read."""
    real = limits.functor_cochain_complex
    seen, cleared = [], []

    def checked(F, nmax, budget=limits.DEFAULT_BUDGET):
        cx = real(F, nmax, budget)
        cleared.append(assert_clearing_exact(cx))
        seen.append(cx.dims)
        return cx

    monkeypatch.setattr(limits, "functor_cochain_complex", checked)
    for spec in CATALOG:
        rep = run_pipeline(spec, PipelineConfig(prime=p, checks=LIMIT_CHECKS,
                                                include_timings=False))
        assert "fail" not in rep.verdicts.values(), spec
    assert seen and sum(cleared) > 0


HOMOLOGY_CHECKS = ("nerve-vs-group", "centric-restriction", "centric-agreement",
                   "linking-vs-transporter", "main")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_catalog_nerve_and_cone_keeps_a_tail_reduced_echelon(monkeypatch, p):
    """Every nerve and mapping-cone boundary the homology checks rank for the
    catalog at max-degree 3, seeded cones included, keeps a tail-reduced
    echelon; its rank equals the reference's and the dense oracle's where
    those are cheap (the other tests here cover larger real matrices)."""
    real = FpMatrix.rank
    ranked = {"plain": 0, "seeded": 0, "referenced": 0}

    def checked(self, bound=None, skip=()):
        if self._rank is not None:
            return real(self, bound, skip)
        seeded = self.tail is not None and self.tail[0].echelon is not None
        r = real(self, bound, skip)
        assert_tail_reduced(self.echelon, self.prime)
        if self.nnz <= 60_000:
            assert r == reference_rank(self)
            ranked["referenced"] += 1
        if self.shape[0] * self.shape[1] <= 500_000:
            assert r == oracle.dense_rank_modp(self.csr.toarray(), self.prime)
        ranked["seeded" if seeded else "plain"] += 1
        return r

    monkeypatch.setattr(FpMatrix, "rank", checked)
    for spec in CATALOG:
        rep = run_pipeline(spec, PipelineConfig(prime=p, max_degree=3, checks=HOMOLOGY_CHECKS,
                                                include_timings=False))
        assert "fail" not in rep.verdicts.values(), spec
    assert ranked["plain"] > 0 and ranked["seeded"] > 0 and ranked["referenced"] > 0


def test_cone_block_mismatch_raises():
    cm, tgt = centric_linking_cone("sym:3 x cyc:3", 3, 3)
    tgt.homology()
    cone = mapping_cone(cm)
    m = cone.boundaries[2]
    csr = m.csr.copy()
    csr.data[-1] = csr.data[-1] % 2 + 1  # a different nonzero entry mod 3
    forged = FpMatrix(csr, 3, tail=m.tail)
    with pytest.raises(PLocalError):
        forged.rank()


def test_block_that_does_not_fit_raises():
    block = FpMatrix(sparse.identity(3, dtype=np.int64, format="csr"), 2)
    block.rank()
    m = FpMatrix(sparse.identity(4, dtype=np.int64, format="csr"), 2, tail=(block, 0))
    with pytest.raises(PLocalError):
        m.rank()


# -- the span filter at p = 2 --------------------------------------------------


def tall_gf2(rng, nrows, ncols, dim, late):
    """A GF(2) matrix whose rows are drawn from ``dim`` generator rows: sums
    of one to three generators, empty rows and repeats of earlier rows.
    ``late`` generators first appear at random rows after the first
    ``ncols``, so pivots keep arriving once the span filter has started."""
    gens = np.zeros((dim, ncols), dtype=bool)
    for g in gens:
        g[rng.choice(ncols, int(rng.integers(1, 6)), replace=False)] = True
    release = dict(zip(sorted(rng.choice(np.arange(ncols, nrows), late, replace=False).tolist()),
                       range(dim - late, dim)))
    known = dim - late
    rows = np.zeros((nrows, ncols), dtype=bool)
    for i in range(nrows):
        r = rng.random()
        if i in release:
            rows[i] = gens[release[i]]
            known += 1
        elif r < 0.1:
            continue
        elif r < 0.25 and i:
            rows[i] = rows[rng.integers(i)]
        else:
            picks = rng.choice(known, min(known, int(rng.integers(1, 4))), replace=False)
            rows[i] = np.logical_xor.reduce(gens[picks], axis=0)
    return sparse.csr_matrix(rows.astype(np.int64))


def echelon_gf2(rng, ncols, nrows) -> dict:
    """A tail-reduced GF(2) echelon, to seed an insertion with."""
    seeds = {}
    plain_pass_gf2(tall_gf2(rng, nrows, ncols, nrows, 0), range(nrows), seeds, math.inf)
    return seeds


@pytest.mark.parametrize("nrows,ncols,dim,late", [
    (300, 12, 10, 3),
    (2000, 40, 30, 8),
    (4000, 100, 100, 20),
    (6000, 250, 180, 30),
])
@pytest.mark.parametrize("seeded", [False, True])
def test_span_filter_keeps_the_plain_echelon_on_tall_random_matrices(nrows, ncols, dim, late,
                                                                    seeded):
    """Filtered insertion against a plain pass, with and without seeds and
    skipped rows, under infinite, loose, exact and default caps."""
    rng = np.random.default_rng(7 * nrows + ncols + seeded)
    csr = tall_gf2(rng, nrows, ncols, dim, late)
    seeds = echelon_gf2(rng, ncols, 3 if seeded else 0)
    kept = sorted(rng.choice(nrows, nrows * 4 // 5, replace=False).tolist())
    filtered_any = False
    for rows in (range(nrows), kept):
        rank = len(plain_pass_gf2(csr, rows, dict(seeds), math.inf))
        if not seeded and rows == range(nrows):
            assert rank == _rank_csr_gf2(csr)
        for cap in (math.inf, rank + 2, rank, min(nrows, ncols)):
            plain = plain_pass_gf2(csr, rows, dict(seeds), cap)
            spied = csr.copy()
            read = spy_on_csr(spied)
            filtered = dict(seeds)
            _insert_rows_gf2(spied, rows, filtered, cap)
            assert list(filtered.items()) == list(plain.items()), (rows, cap)
            assert_tail_reduced(filtered, 2)
            filtered_any |= len(read) < 2 * len(rows)
    assert filtered_any


def test_span_filter_never_reads_a_row_already_in_the_span():
    """After the first ``ncols`` rows, rows in their span (sums of them,
    repeats and empty rows) are skipped; rows that add a pivot are read,
    and nothing after the row that reaches the cap."""
    rng = np.random.default_rng(11)
    ncols, nrows = 64, 3000
    # the head touches only the first 48 columns, and each new row is a
    # unit vector at one of the others
    head = np.zeros((ncols, ncols), dtype=bool)
    head[:, :48] = tall_gf2(rng, ncols, 48, 40, 0).toarray()
    fresh = np.zeros((6, ncols), dtype=bool)
    fresh[np.arange(6), rng.choice(np.arange(48, ncols), 6, replace=False)] = True
    rows = np.zeros((nrows, ncols), dtype=bool)
    rows[:ncols] = head
    in_span = []
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
        in_span.append(i)
    # the trailing rows are empty, so the last block ends with empty rows
    rows[-5:] = False
    csr = sparse.csr_matrix(rows.astype(np.int64))
    rank = _rank_csr_gf2(csr)

    for cap, last in ((math.inf, nrows - 1), (rank, new_at[-1])):
        spied = csr.copy()
        read = spy_on_csr(spied)
        pivots = {}
        _insert_rows_gf2(spied, range(nrows), pivots, cap)
        assert list(pivots.items()) == list(plain_pass_gf2(csr, range(nrows), {}, cap).items())
        starts = read[::2]  # row i reads indptr[i] and then indptr[i + 1]
        assert starts[:ncols] == list(range(ncols))
        assert not set(starts) & set(in_span)
        assert set(new_at) <= set(starts)
        assert max(starts) <= last
    assert max(starts) == new_at[-1]  # the row that reaches the cap


def test_span_filter_keeps_the_plain_echelon_on_the_sym4_degree3_boundaries(monkeypatch):
    """The three largest boundaries the homology checks rank for sym:4 at
    p = 2, max-degree 3: the bar ∂_3 and the transporter-poset and linking
    ∂_3, which read past their columns because H_2 ≠ 0 keeps them below the
    ∂² bound."""
    real = FpMatrix.rank
    seen = {}

    def checked(self, bound=None, skip=()):
        if self._rank is not None or self.shape[0] < 10_000 or self.tail is not None:
            return real(self, bound, skip)
        csr = self.csr.copy()
        read = spy_on_rows(self)
        r = real(self, bound, skip)
        plain = plain_pass_gf2(csr, range(csr.shape[0]), {}, min(bound, *csr.shape))
        assert list(self.echelon.items()) == list(plain.items())
        assert r == _rank_csr_gf2(csr) == len(plain_pass_gf2(csr, range(csr.shape[0]), {},
                                                                math.inf))
        seen[csr.shape] = (r, len(read) // 2)
        return r

    monkeypatch.setattr(FpMatrix, "rank", checked)
    rep = run_pipeline("sym:4", PipelineConfig(prime=2, max_degree=3, checks=HOMOLOGY_CHECKS,
                                               include_timings=False))
    assert "fail" not in rep.verdicts.values()
    assert {shape: r for shape, (r, _) in seen.items()} == {
        (12167, 529): 505, (30246, 1298): 1244, (33284, 1620): 1538}
    for (nrows, _), (_, read) in seen.items():
        assert read < nrows // 2


def test_span_filter_declines_an_annihilator_larger_than_the_matrix():
    """A wide, sparse matrix: the annihilator after the first ``ncols`` rows
    would take more than 2 nnz words, so the rows go in plainly."""
    ncols, nrows = 640, 2000
    rows = np.arange(nrows)
    csr = sparse.csr_matrix((np.ones(nrows, dtype=np.int64), (rows, rows % 8)),
                            shape=(nrows, ncols))
    pivots = {}
    plain_pass_gf2(csr, range(ncols), pivots, math.inf)
    assert ncols * -(-(ncols - len(pivots)) // 64) > 2 * csr.nnz
    assert _SpanTest(csr).outside(np.arange(ncols, nrows), pivots) is None
    read = spy_on_csr(csr)
    filtered = {}
    _insert_rows_gf2(csr, range(nrows), filtered, math.inf)
    assert list(filtered.items()) == list(pivots.items())
    assert read[::2] == list(range(nrows))
