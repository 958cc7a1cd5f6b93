"""Differential tests for the sparse elimination engine.

A matrix whose last rows are declared as ``[0 | B]`` is ranked twice: seeded
from B's kept echelon, and from scratch.  Both must agree with the reference
eliminations ``_rank_csr_gf2``/``_rank_csr_modp`` and, where the matrix is
small enough to hold densely, with the dense oracle.

Nerves and cones rank each boundary with the bound ∂² = 0 forces, and
cochain complexes clear the rows at the previous differential's pivots.  A
bounded or cleared rank must equal the plain one and the reference, its
echelon must equal the one a pass over every row keeps, and no row after the
one that reaches the bound, and no cleared row, may be read.

Every kept echelon is tail-reduced: each pivot is zero at the leading column
of every pivot stored before it, seeds included.  The references reduce no
tails, so they stay an independent check of the ranks.
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
    _rank_csr_gf2,
    _rank_csr_modp,
    _shifted_echelon,
)
from plocal.limits import constant_functor

DENSE_ORACLE_MAX_ENTRIES = 2_000_000


def reference_rank(m: FpMatrix) -> int:
    if m.prime == 2:
        return _rank_csr_gf2(m.csr)
    return _rank_csr_modp(m.csr, m.prime)


def full_echelon(m: FpMatrix) -> dict:
    """The echelon ``m.rank()`` builds, seeded the same way, but with every
    row inserted: no bound and no cap."""
    pivots, nrows = {}, m.shape[0]
    if m.tail is not None and m.tail[0].echelon is not None:
        nrows = m._check_tail()
        pivots = _shifted_echelon(m.tail[0].echelon, m.tail[1], m.prime)
    if m.prime == 2:
        _insert_rows_gf2(m.csr, range(nrows), pivots, math.inf)
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


def spy_on_rows(m: FpMatrix) -> list[int]:
    spy = m.csr.indptr.view(RowSpy)
    spy.read = []
    m.csr.indptr = spy
    return spy.read


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
    cents = classify_centric(G, p, all_subgroups(sylow_subgroup(G, p))).centric_subgroups()
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
