"""Faults injected into one run artifact stay in the stage that reads it.

Each test corrupts one entry of a matrix that a ∂² check reads: a chain
map's, which only its mapping cone checks, or a nerve boundary's at p = 3,
which ``FpComplex`` checks through a product of lifted entries.  The run
must still return a report, each stage reading the artifact must read
``fail`` with a note naming the nonzero boundary square, and every other
verdict must be the one a clean run gives.
"""

import pytest

from plocal import PipelineConfig, homology, pipeline
from plocal.catalog import build_group
from plocal.pipeline import STAGES, PipelineRun

HOMOLOGY_CHECKS = ("quotient", "nerve-vs-group", "centric-restriction", "centric-agreement",
                   "linking-vs-transporter", "main")


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
    and main read, takes the other nonzero value.  The nerve's ∂² check
    multiplies the boundaries with entries lifted to -1 and 1, and the
    product it reduces mod 3 is no longer zero.  A nerve that fails to
    build is not kept, so each reader builds, and checks, it again."""
    clean = homology_run("sym:3 x cyc:3", 3).run()
    run = homology_run("sym:3 x cyc:3", 3)
    real = homology.nerve_boundaries
    corrupted = []

    def corrupt(chains, prime):
        out = real(chains, prime)
        if chains.category is run.group_category:
            data = out[2].csr.data
            data[0] = data[0] % 2 + 1
            corrupted.append(chains.category)
        return out

    monkeypatch.setattr(homology, "nerve_boundaries", corrupt)
    report = run.run()
    assert len(corrupted) == 2
    assert_only_stages_fail(report, clean, ("nerve-vs-group", "main"))
