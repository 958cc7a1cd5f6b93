"""Faults injected into one run artifact stay in the stage that reads it.

Each test corrupts one entry of an artifact that a check reads: a chain
map's image rows, which only its mapping cone's ∂² check reads; a nerve
boundary's at p = 3, which ``FpComplex`` checks through a product of the
stored entries, -1 and 1; a coefficient functor's, which the exhaustive
functoriality check before its limits reads; a category's composition
store or witness, which its law check (and the functors into it) read; a
functor's token or object map, which the quotient check and the chain
map read; the transporter mask a category is built from; a category's
pair offsets, which its law check and its nerves read; a nerve's chain
offsets or last tokens, which its face derivation reads; or the
annihilator a nerve boundary keeps at p = 2, which the cones over it
seed from.  One more makes a check raise an exception that is no toolkit
error.  The run must still return a report, each stage reading the
artifact must read ``fail`` with a note naming the broken invariant, and
every other verdict must be the one a clean run gives.
"""

import numpy as np
import pytest

from plocal import PipelineConfig, categories, homology, limit_checks
from plocal.catalog import build_group
from plocal.chains import NOT_A_CHAIN
from plocal.fplinalg import FpMatrix
from plocal.pipeline import STAGES, PipelineRun
from reference_chains import move_an_image

HOMOLOGY_CHECKS = ("quotient", "nerve-vs-group", "centric-restriction", "centric-agreement",
                   "linking-vs-transporter", "main")
LIMIT_CHECKS = ("punctured", "normalizer-reduction", "atomic-vanishing", "restriction",
                "filtration")


def homology_run(spec: str, p: int) -> PipelineRun:
    return PipelineRun(build_group(spec), PipelineConfig(
        prime=p, max_degree=3, checks=HOMOLOGY_CHECKS, include_timings=False), spec)


def assert_only_stages_fail(report, clean, checks: tuple[str, ...]):
    keys = {k for s in STAGES if s.check in checks for k in s.keys}
    for check in checks:
        notes = [n for n in report.data["notes"] if n.startswith(f"{check}: ")]
        assert len(notes) == 1 and "boundary squared is nonzero in degree" in notes[0], notes
    assert {report.verdicts[k] for k in keys} == {"fail"}
    assert {clean.verdicts[k] for k in keys} == {"pass"}
    assert {k: v for k, v in report.verdicts.items() if k not in keys} == \
        {k: v for k, v in clean.verdicts.items() if k not in keys}


@pytest.mark.parametrize("spec,p", [("sym:4", 2), ("sym:3 x cyc:3", 3)])
def test_a_corrupted_chain_map_entry_fails_only_its_cone(monkeypatch, spec, p):
    """The image of the first degree-d chain with one under the
    transporter-to-linking chain map moves to a chain with a different
    boundary mod p.  The cone reads f_d in its degree-(d+1) boundary, and
    the product of that boundary's leading rows with the cone's ∂_d no
    longer vanishes.  On sym:3 x cyc:3 at p = 3 the linking category has one
    object, so every degree-1 chain has boundary 0 and the image moved is a
    degree-2 one."""
    d = 1 if p == 2 else 2
    clean = homology_run(spec, p).run()
    run = homology_run(spec, p)
    real = homology.induced_chain_map
    corrupted = []

    def corrupt(F, source, target):
        images = real(F, source, target)
        if F is run.linking_projection:
            corrupted.append(move_an_image(images, target, d))
        return images

    monkeypatch.setattr(homology, "induced_chain_map", corrupt)
    report = run.run()
    assert len(corrupted) == 1
    assert_only_stages_fail(report, clean, ("linking-vs-transporter",))
    assert f"boundary squared is nonzero in degree {d + 1}" in " ".join(report.data["notes"])


def test_a_corrupted_nerve_boundary_entry_fails_only_its_readers(monkeypatch):
    """One entry of ∂_2 of BG's bar complex at p = 3 takes the other nonzero
    value: its negative.  On sym:3 x cyc:3 the bar's 1 x 18 table is also
    the transporter-poset, centric transporter and linking table, so the
    entry is corrupted in every nerve built for that table.  The nerve's ∂²
    check multiplies the stored boundaries, and the product it reduces mod
    3 is no longer zero in degree 3.  A nerve that fails to build is not
    kept, so nerve-vs-group, centric-restriction, linking-vs-transporter
    and main each build, check and fail it again.  Centric-agreement reads
    degrees <= 2 only, and ∂_1 of a one-object nerve is 0, so no ∂² product
    it checks sees the entry: it keeps that nerve and passes, as quotient
    does."""
    clean = homology_run("sym:3 x cyc:3", 3).run()
    run = homology_run("sym:3 x cyc:3", 3)
    real = homology.nerve_boundaries
    corrupted = []

    def corrupt(chains, prime):
        out = real(chains, prime)
        if chains.category.table_key() == run.group_category.table_key():
            data = out[2].csr.data
            assert data[0] in (-1, 1)
            data[0] = -data[0]
            corrupted.append(chains.category)
        return out

    monkeypatch.setattr(homology, "nerve_boundaries", corrupt)
    report = run.run()
    assert len(corrupted) == 5
    assert_only_stages_fail(report, clean, ("nerve-vs-group", "centric-restriction",
                                            "linking-vs-transporter", "main"))


def test_a_corrupted_coefficient_functor_entry_fails_only_its_stage(monkeypatch):
    """One entry of the matrix of a non-identity automorphism in the functor
    P -> H^i(B P; F_2) on the poset skeleton, which only the filtration
    check reads, is flipped.  The exhaustive functoriality check before its
    limits rejects it: the stage reads ``fail`` with a note naming the
    failing composition, and every other limit verdict is a clean run's."""
    def limits_run():
        return PipelineRun(build_group("sym:3 x cyc:3"), PipelineConfig(
            prime=2, max_degree=3, max_limit_degree=3, checks=LIMIT_CHECKS,
            include_timings=False), "sym:3 x cyc:3")

    clean = limits_run().run()
    real = limit_checks.classifying_cohomology_functor
    corrupted = []

    def corrupt(cat, i, cache):
        F = real(cat, i, cache)
        sizes = np.diff(F.offsets)
        loops = np.flatnonzero((cat.src == cat.tgt) & ~cat.is_id & (sizes > 0))
        if not corrupted and len(loops):
            k = F.offsets[loops[0]]
            F.entries[k] = (F.entries[k] + 1) % cache.p
            corrupted.append((i, int(loops[0])))
        return F

    monkeypatch.setattr(limit_checks, "classifying_cohomology_functor", corrupt)
    report = limits_run().run()
    assert len(corrupted) == 1
    key = "class_filtration_limits"
    notes = [n for n in report.data["notes"] if n.startswith("filtration: ")]
    assert report.verdicts[key] == "fail" and clean.verdicts[key] == "pass"
    assert len(notes) == 1 and "composition fails at tokens" in notes[0], notes
    assert report.data["notes"] == notes and not clean.data["notes"]
    assert {k: v for k, v in report.verdicts.items() if k != key} == \
        {k: v for k, v in clean.verdicts.items() if k != key}


def sym4_run() -> PipelineRun:
    return PipelineRun(build_group("sym:4"), PipelineConfig(
        prime=2, max_degree=3, include_timings=False), "sym:4")


def assert_only_keys_fail(report, keys: set[str], notes: list[str]):
    """The verdicts ``keys`` read ``fail`` where a clean sym:4, p = 2 run
    passes, the notes are ``notes``, and every other verdict is clean."""
    clean = sym4_run().run()
    assert {report.verdicts[k] for k in keys} == {"fail"}
    assert {clean.verdicts[k] for k in keys} == {"pass"}
    assert {k: v for k, v in report.verdicts.items() if k not in keys} == \
        {k: v for k, v in clean.verdicts.items() if k not in keys}
    assert not clean.data["notes"]
    assert report.data["notes"] == notes


def test_a_corrupted_composition_store_entry_fails_only_its_readers():
    """The transporter poset's stored composite of its first pair, identity
    token 0 with itself, is set to token 1 on sym:4 at p = 2.  Its law
    check and the functor from G into it, which nerve-vs-group checks, read
    the store: each of the two stages reads ``fail`` with a note naming its
    first failure, and every other verdict is a clean run's."""
    run = sym4_run()
    store = run.transporter_omega.composite
    assert store[0] == 0
    store[0] = 1
    assert_only_keys_fail(run.run(), {"category_laws", "transporter_nerve_vs_classifying_space"}, [
        "categories: transporter_poset: left identity fails at token 0",
        "nerve-vs-group: G into the transporter poset: composition of tokens (0,0) not preserved",
    ])


@pytest.mark.parametrize("artifact,name", [("transporter_omega", "transporter_poset"),
                                           ("linking_centric", "linking_centric")])
def test_a_witness_outside_the_group_fails_only_category_laws(artifact, name):
    """Token 5's witness is set to 10^6, no element of sym:4.  The coset
    rule of the law check, which reads the witnesses, notes it and reads
    no table at it; no other stage reads it."""
    run = sym4_run()
    getattr(run, artifact).witness[5] = 10**6
    assert_only_keys_fail(run.run(), {"category_laws"},
                          [f"categories: {name}: witness of token 5 is not an element of G"])


@pytest.mark.parametrize("token", [10**6, -5])
def test_a_token_map_entry_out_of_range_fails_only_its_readers(token):
    """Token 3 of the transporter-to-linking projection is sent to no token
    of the linking category, past its end or below 0.  The quotient check
    finds Mor(0, 0) not covered, and the chain map raises rather than read
    the linking category at that index: the two stages reading the map
    fail, each with a note."""
    run = sym4_run()
    run.linking_projection.morphism_map[3] = token
    assert_only_keys_fail(run.run(), {"quotient_functor_conditions", "transporter_vs_linking_homology"}, [
        "quotient: morphism map not surjective on Mor(0,0)",
        f"linking-vs-transporter: {NOT_A_CHAIN}",
    ])


@pytest.mark.parametrize("obj", [10**6, -1])
def test_an_object_map_entry_out_of_range_fails_only_its_readers(obj):
    """Object 0 of the transporter-to-linking projection is sent to no
    object of the linking category, past its end or below 0, where numpy
    would wrap.  The quotient check names the object, and the chain map
    raises rather than read the linking category there: the two stages
    reading the map fail, each with a note."""
    run = sym4_run()
    run.linking_projection.object_map[0] = obj
    assert_only_keys_fail(run.run(), {"quotient_functor_conditions", "transporter_vs_linking_homology"}, [
        "quotient: object 0 maps to no object of the target",
        f"linking-vs-transporter: {NOT_A_CHAIN}",
    ])


def test_a_flipped_transporter_mask_entry_fails_only_its_readers(monkeypatch):
    """The first transporter mask a run builds, the transporter poset's,
    loses its last element of N(P, P) for the second object P.  That
    token's composites are then not filled: the law check and the three
    nerves of the transporter poset and of its centric part fail, each
    with a note, and every other verdict is a clean run's."""
    run = sym4_run()
    real = categories.transporters
    flipped = []

    def flip(G, sources, targets):
        out = real(G, sources, targets)
        if not flipped:
            g = int(np.flatnonzero(out[1, 1])[-1])
            out[1, 1, g] = False
            flipped.append([P.ids for P in sources])
        return out

    monkeypatch.setattr(categories, "transporters", flip)
    report = run.run()
    monkeypatch.undo()  # the clean run builds its own mask
    assert flipped == [[P.ids for P in run.transporter_omega.objects]]
    missing = "composition misses a composable pair"
    assert_only_keys_fail(report, {
        "category_laws", "transporter_nerve_vs_classifying_space",
        "centric_restriction_homology", "centric_collections_agree",
    }, [
        "categories: transporter_poset: composite (49,54) is not filled",
        f"nerve-vs-group: {missing}",
        f"centric-restriction: {missing}",
        f"centric-agreement: {missing}",
    ])


def test_a_lowered_pair_start_fails_only_the_store_readers():
    """The transporter poset's ``pair_start[51]`` is lowered from 1,368 to
    1,268.  Its nerves' ∂_2 then holds a column index past its columns,
    which scipy's CSR constructor does not check; the ∂² product on it once
    ran ``csr_matmat`` out of bounds and killed the process before any
    report was written.  ``FpMatrix`` rejects the index instead, and the
    law check names the offsets before it reads a pair through them: the
    run returns a report in which the law check and the three stages
    building a nerve of the poset fail, each with a note, and every other
    verdict is a clean run's."""
    run = sym4_run()
    start = run.transporter_omega.pair_start
    assert start[51] == 1_368
    start[51] = 1_268
    bounds = "a CSR row pointer or column index is out of bounds"
    assert_only_keys_fail(run.run(), {
        "category_laws", "transporter_nerve_vs_classifying_space",
        "centric_restriction_homology", "centric_collections_agree",
    }, [
        "categories: transporter_poset: pair_start differs from the offsets of the token arrays",
        f"nerve-vs-group: {bounds}",
        f"centric-restriction: {bounds}",
        f"centric-agreement: {bounds}",
    ])


def corrupt_poset_chains(monkeypatch, run: PipelineRun, corrupt) -> list:
    """Each nerve built for the transporter poset's composition table has
    ``corrupt`` applied to its ``Chains`` before its faces are derived; the
    returned list gains one entry per nerve so corrupted."""
    real = homology.nerve_boundaries
    corrupted = []

    def wrapped(chains, prime):
        if chains.category.table_key() == run.transporter_omega.table_key():
            corrupt(chains)
            corrupted.append(chains.dims)
        return real(chains, prime)

    monkeypatch.setattr(homology, "nerve_boundaries", wrapped)
    return corrupted


POSET_NERVE_KEYS = {"transporter_nerve_vs_classifying_space", "centric_restriction_homology",
                    "centric_collections_agree"}


def test_a_lowered_chain_offset_fails_only_the_nerve_readers(monkeypatch):
    """``starts[2][1]``, where the transporter poset's degree-2 extensions
    of its second degree-1 chain begin, is lowered below ``starts[2][0]``.
    The faces are derived one parent block at a time from these offsets, so
    the nerve's face derivation finds the blocks out of order and raises
    before it repeats anything over them: the three stages building a nerve
    of the poset fail, each with a note, and every other verdict is a clean
    run's."""
    run = sym4_run()

    def lower(chains):
        chains.starts[2][1] = chains.starts[2][0] - 1

    corrupted = corrupt_poset_chains(monkeypatch, run, lower)
    report = run.run()
    monkeypatch.undo()  # the clean run builds its own nerves
    assert len(corrupted) == 3
    note = "degree 2 chain offsets do not lay out its rows"
    assert_only_keys_fail(report, POSET_NERVE_KEYS, [
        f"nerve-vs-group: {note}", f"centric-restriction: {note}", f"centric-agreement: {note}",
    ])


def test_a_last_token_off_its_parent_fails_only_the_nerve_readers(monkeypatch):
    """The last token of the transporter poset's first degree-2 chain is
    replaced by a non-identity token leaving another object, so it does not
    extend the chain's parent.  The face derivation compares each last
    token's source with its parent's tail before it looks up a composite:
    the three stages building a nerve of the poset fail, each with a note,
    and every other verdict is a clean run's."""
    run = sym4_run()

    def replace(chains):
        tail = chains.tgt[chains.last[1][chains.parent[2][0]]]
        chains.last[2][0] = np.flatnonzero((chains.src != tail) & ~chains.is_id)[0]

    corrupted = corrupt_poset_chains(monkeypatch, run, replace)
    report = run.run()
    monkeypatch.undo()
    assert len(corrupted) == 3
    note = "a degree 2 chain's last token does not leave its parent's tail"
    assert_only_keys_fail(report, POSET_NERVE_KEYS, [
        f"nerve-vs-group: {note}", f"centric-restriction: {note}", f"centric-agreement: {note}",
    ])


def test_an_unexpected_exception_fails_only_its_stage(monkeypatch):
    """The adjunction check raises ``ValueError``, which is no toolkit
    error.  The run still returns its report: the adjunction verdict reads
    ``fail`` with a note naming the exception's type and message, and every
    other verdict is a clean run's."""
    def crash(*args):
        raise ValueError("no such coset")

    monkeypatch.setattr(categories, "verify_closure_adjunction", crash)
    report = sym4_run().run()
    monkeypatch.undo()  # the clean run checks the adjunction
    assert_only_keys_fail(report, {"closure_inclusion_adjunction"},
                          ["adjunction: internal error: ValueError: no such coset"])


def test_a_zeroed_annihilator_bit_fails_only_the_cones_seeded_from_it(monkeypatch):
    """On alt:4 at p = 2, max-degree 4, the first cone boundary over a
    block that keeps an annihilator with a live bit has that bit zeroed in
    the block's Y before it is ranked.  The block is ∂_3 of one nerve, 1,331
    x 121, which nerve-vs-group, centric-restriction and
    linking-vs-transporter share, since their categories have one
    composition table.  Each of their cones checks that the block's leads
    and its live bits number its columns, before it seeds: each of the three
    stages reads ``fail`` with a note, and every other verdict is a clean
    run's."""
    def alt4_run() -> PipelineRun:
        return PipelineRun(build_group("alt:4"), PipelineConfig(
            prime=2, max_degree=4, include_timings=False), "alt:4")

    clean = alt4_run().run()
    real = FpMatrix.rank
    zeroed = []

    def zero_a_bit(self, bound=None):
        y = None if self.tail is None else self.tail[0].annihilator
        if self._rank is None and not zeroed and y is not None and y.live_bits():
            w = int(np.flatnonzero(y.basis.any(axis=1))[0])
            live = int(np.bitwise_or.reduce(y.basis[w]))
            y.basis[w] &= ~np.uint64(live & -live)
            zeroed.append(self.tail[0].shape)
        return real(self, bound)

    monkeypatch.setattr(FpMatrix, "rank", zero_a_bit)
    report = alt4_run().run()
    assert zeroed == [(1331, 121)]
    checks = ("nerve-vs-group", "centric-restriction", "linking-vs-transporter")
    keys = {k for s in STAGES if s.check in checks for k in s.keys}
    assert report.data["notes"] == [f"{c}: a kept annihilator does not match its leads"
                                    for c in checks]
    assert {report.verdicts[k] for k in keys} == {"fail"}
    assert clean.overall == "pass" and not clean.data["notes"]
    assert {k: v for k, v in report.verdicts.items() if k not in keys} == \
        {k: v for k, v in clean.verdicts.items() if k not in keys}
