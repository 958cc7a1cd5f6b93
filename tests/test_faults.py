"""Faults injected into one run artifact stay in the stage that reads it.

Each test corrupts one entry of an artifact that a check reads: a chain
map's matrix, which only its mapping cone's ∂² check reads; a nerve
boundary's at p = 3, which ``FpComplex`` checks through a product of the
stored entries, -1 and 1; a coefficient functor's, which the exhaustive
functoriality check before its limits reads; or a category's composition
store, which its law check and the functors into it read.  The run must still return a report, each
stage reading the artifact must read ``fail`` with a note naming the
broken invariant, and every other verdict must be the one a clean run
gives.
"""

import numpy as np
import pytest

from plocal import PipelineConfig, homology, limit_checks, pipeline
from plocal.catalog import build_group
from plocal.pipeline import STAGES, PipelineRun

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
    """One entry of f_1 of the transporter-to-linking chain map moves to
    another column at p = 2, or takes another nonzero value at p = 3.  The
    cone reads f_1 in its degree-2 and degree-3 boundaries, and the
    product of the degree-3 one with the cone's ∂_2 no longer vanishes."""
    clean = homology_run(spec, p).run()
    run = homology_run(spec, p)
    real = pipeline.induced_chain_map
    corrupted = []

    def corrupt(F, source, target):
        cm = real(F, source, target)
        if F is run.linking_projection:
            csr = cm.mats[1].csr
            k = 0  # the entry of the first chain with an image
            if p == 2:
                csr.indices[k] = (csr.indices[k] + 1) % csr.shape[1]
            else:
                csr.data[k] = csr.data[k] % 2 + 1
            corrupted.append(k)
        return cm

    monkeypatch.setattr(pipeline, "induced_chain_map", corrupt)
    report = run.run()
    assert corrupted == [0]
    assert_only_stages_fail(report, clean, ("linking-vs-transporter",))


def test_a_corrupted_nerve_boundary_entry_fails_only_its_readers(monkeypatch):
    """One entry of ∂_2 of BG's bar complex at p = 3, which nerve-vs-group
    and main read, takes the other nonzero value: its negative.  The
    nerve's ∂² check multiplies the stored boundaries, and the product it
    reduces mod 3 is no longer zero.  A nerve that fails to build is not
    kept, so each reader builds, and checks, it again."""
    clean = homology_run("sym:3 x cyc:3", 3).run()
    run = homology_run("sym:3 x cyc:3", 3)
    real = homology.nerve_boundaries
    corrupted = []

    def corrupt(chains, prime):
        out = real(chains, prime)
        if chains.category is run.group_category:
            data = out[2].csr.data
            assert data[0] in (-1, 1)
            data[0] = -data[0]
            corrupted.append(chains.category)
        return out

    monkeypatch.setattr(homology, "nerve_boundaries", corrupt)
    report = run.run()
    assert len(corrupted) == 2
    assert_only_stages_fail(report, clean, ("nerve-vs-group", "main"))


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


def test_a_corrupted_composition_store_entry_fails_only_its_readers():
    """The transporter poset's stored composite of its first pair, identity
    token 0 with itself, is set to token 1 on sym:4 at p = 2.  Its law
    check and the functor from G into it, which nerve-vs-group checks, read
    the store: each of the two stages reads ``fail`` with a note naming its
    first failure, and every other verdict is a clean run's."""
    def sym4_report(corrupt: bool):
        run = PipelineRun(build_group("sym:4"), PipelineConfig(
            prime=2, max_degree=3, include_timings=False), "sym:4")
        if corrupt:
            store = run.transporter_omega.composite
            assert store[0] == 0
            store[0] = 1
        return run.run()

    clean, report = sym4_report(False), sym4_report(True)
    keys = {"category_laws", "transporter_nerve_vs_classifying_space"}
    assert {report.verdicts[k] for k in keys} == {"fail"}
    assert {clean.verdicts[k] for k in keys} == {"pass"}
    assert {k: v for k, v in report.verdicts.items() if k not in keys} == \
        {k: v for k, v in clean.verdicts.items() if k not in keys}
    assert not clean.data["notes"]
    assert report.data["notes"] == [
        "categories: transporter_poset: left identity fails at token 0",
        "nerve-vs-group: G into the transporter poset: composition of tokens (0,0) not preserved",
    ]
