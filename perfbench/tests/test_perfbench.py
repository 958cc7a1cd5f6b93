"""Tests of the benchmark itself: seed invariance, correctness gate, tracing.

    python3 -m pytest perfbench/tests -q
"""

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import plocal  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _analyze(w, seed):
    spec = workloads.presentation(w, seed)
    G = plocal.build_group(spec)
    return plocal.PipelineRun(G, plocal.PipelineConfig(**w.config_kwargs()), spec).run()


@pytest.fixture(scope="module")
def homology_report():
    return _analyze(workloads.WORKLOADS["sym4-p2-homology"], workloads.DEFAULT_SEED).data


def _sample(data):
    return {
        "verdicts": data["verdicts"],
        "digest": workloads.digest(data),
        "main_comparison": data["homology"].get("main_comparison"),
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_is_seed_invariant(name):
    w = workloads.WORKLOADS[name]
    specs = {workloads.presentation(w, s) for s in (workloads.DEFAULT_SEED, 2)}
    assert len(specs) == 2
    for seed in (workloads.DEFAULT_SEED, 2):
        data = _analyze(w, seed).data
        assert workloads.digest(data) == w.digest
        assert run.failed_verdicts(w, _sample(data), run._golden_dims(w)) == 0


def test_presentation_is_isomorphic_and_repeatable():
    w = workloads.WORKLOADS["s3c3-p2-limits"]
    assert workloads.presentation(w, 7) == workloads.presentation(w, 7)
    assert plocal.build_group(workloads.presentation(w, 7)).order == plocal.build_group(w.group).order


def test_moved_dimension_or_skipped_check_fails_every_verdict(homology_report):
    w = workloads.WORKLOADS["sym4-p2-homology"]
    golden = run._golden_dims(w)
    assert golden is not None
    n = len(w.requested_verdicts())

    moved = copy.deepcopy(homology_report)
    moved["homology"]["transporter_poset_nerve"]["dims"][2] += 1
    assert run.failed_verdicts(w, _sample(moved), golden) == n

    skipped = copy.deepcopy(homology_report)
    skipped["homology"]["group_into_transporter_iso"]["certified_through"] -= 1
    assert run.failed_verdicts(w, _sample(skipped), golden) == n

    assert run.failed_verdicts(w, None, golden) == n


def test_pair_counts_are_in_the_digest():
    w = workloads.WORKLOADS["s4c2-p2-structure"]
    data = _analyze(w, workloads.DEFAULT_SEED).data
    fewer = copy.deepcopy(data)
    fewer["limits"]["closure_pairs_checked"] -= 1
    assert workloads.digest(fewer) != workloads.digest(data)


def test_golden_mismatch_and_failed_verdict(homology_report):
    w = workloads.WORKLOADS["sym4-p2-homology"]
    golden = run._golden_dims(w)
    wrong = dict(golden, linking_dims=[1, 1, 3])
    assert run.failed_verdicts(w, _sample(homology_report), wrong) == len(w.requested_verdicts())

    sample = _sample(homology_report)
    sample["verdicts"] = dict(sample["verdicts"], main_comparison="fail")
    assert run.failed_verdicts(w, sample, golden) == 1


def test_layer_self_times_add_up_to_traced_wall():
    w = workloads.WORKLOADS["s3c3-p3-centric"]
    orig = plocal.homology.nerve_complex
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert plocal.pipeline.nerve_complex is not orig
        tracer.begin()
        _analyze(w, workloads.DEFAULT_SEED).to_json()
        tracer.end()
    finally:
        tracer.uninstall()
    assert plocal.pipeline.nerve_complex is orig
    assert plocal.homology.nerve_complex is orig

    m = tracer.layer_metrics()
    layers = sum(m[b] for b in tracing.TIME_BUCKETS) + m["pipeline.self_s"]
    assert layers == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["fplinalg.rank_calls"] > 0
    assert m["fplinalg.cone_rank_rows"] > 0
    assert m["homology.chains"] > 0
    assert 0 < m["fplinalg.rank_yield"] < 1
    assert all(m[b] >= 0 for b in tracing.TIME_BUCKETS)
