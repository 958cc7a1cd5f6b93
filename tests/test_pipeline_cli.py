import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plocal import GroupSpec, ParseError, PLocalError, PipelineConfig, analyze, run_pipeline
from plocal.catalog import build_group, parse_cycles
from plocal.errors import OutOfRangePoint
from plocal.pipeline import ALL_CHECKS, STAGES
from plocal.report import emit_report

VERDICT_KEYS = [key for stage in STAGES for key in stage.keys]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "plocal.cli", *args],
        capture_output=True,
        text=True,
    )


def test_parse_cycles_basic():
    p = parse_cycles("(1 2 3)", degree=3)
    assert p.images == (1, 2, 0)
    assert parse_cycles("()").is_identity()
    assert parse_cycles("(1 2)(2 3)").cycle_string() == "(1 3 2)"


def test_parse_cycles_whitespace_and_overlap():
    a = parse_cycles("  (1 2) ( 3 4 ) ", degree=4)
    assert a.cycle_string() == "(1 2)(3 4)"
    b = parse_cycles("(1 2)(1 3)", degree=3)
    assert b.cycle_string() == "(1 2 3)"


def test_parse_cycles_errors():
    with pytest.raises(ParseError):
        parse_cycles("(1 2")
    with pytest.raises(ParseError):
        parse_cycles("1 2)")
    with pytest.raises(ParseError):
        parse_cycles("(1 1)")
    with pytest.raises(OutOfRangePoint):
        parse_cycles("(1 5)", degree=3)


@given(st.integers(1, 6).flatmap(lambda n: st.permutations(list(range(n)))))
@settings(max_examples=50)
def test_parse_format_roundtrip(images):
    from plocal import Permutation
    p = Permutation(tuple(images))
    assert parse_cycles(p.cycle_string(), degree=p.degree) == p


def test_catalog_orders():
    import math
    for n in range(1, 7):
        assert build_group(f"sym:{n}").order == math.factorial(n)
    for n in range(3, 7):
        assert build_group(f"alt:{n}").order == math.factorial(n) // 2
    for n in (1, 2, 3, 6, 12):
        assert build_group(f"cyc:{n}").order == n
    for n in (2, 4, 6, 8, 12):
        assert build_group(f"dih:{n}").order == n
    assert build_group("sym:3 x cyc:3").order == 18
    assert build_group("cyc:2 x cyc:2 x cyc:2").order == 8


def test_explicit_generators():
    G = build_group("gens:(1 2 3)(4 5),(1 2)")
    assert G.degree == 5
    assert G.order == 12  # <(123)(45),(12)> in S_5
    H = build_group("gens:(1 2);deg=4")
    assert H.degree == 4
    assert H.order == 2


def test_report_schema_keys():
    rep = run_pipeline("sym:3", PipelineConfig(prime=2, include_timings=False))
    d = rep.data
    for key in ("schema_version", "group", "prime", "sylow", "poset",
                "categories", "homology", "limits", "verdicts", "overall"):
        assert key in d
    assert d["sylow"]["order"] == 2
    assert d["sylow"]["count"] == 3
    assert list(d["verdicts"]) == VERDICT_KEYS
    assert "timings" not in d


def test_report_text_format():
    rep = run_pipeline("sym:3", PipelineConfig(prime=2, include_timings=False))
    text = emit_report(rep, "text")
    for key in VERDICT_KEYS:
        assert key in text
    assert "overall: pass" in text


def test_check_subset_marks_others_not_certified():
    rep = run_pipeline(
        "sym:3",
        PipelineConfig(prime=2, checks=("closure", "main"), include_timings=False),
    )
    v = rep.data["verdicts"]
    assert v["closure_idempotent"] == "pass"
    assert v["main_comparison"] == "pass"
    assert v["class_filtration_limits"] == "not-certified"
    assert rep.data["overall"] == "not-certified"
    assert rep.exit_code == 0


def test_unknown_check_name_raises():
    with pytest.raises(PLocalError, match="unknown checks: closre"):
        run_pipeline("sym:3", PipelineConfig(prime=2, checks=("closre",)))


def test_stage_table_matches_benchmark_and_report(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    table = {stage.check: stage.keys for stage in STAGES}
    assert table == workloads.CHECK_VERDICTS
    assert ALL_CHECKS == tuple(table)
    rep = run_pipeline("sym:3", PipelineConfig(prime=2, checks=("closure", "main")))
    assert list(rep.verdicts) == VERDICT_KEYS
    stage_timings = [k for k in rep.data["timings"] if k.startswith("stage:")]
    assert stage_timings == ["stage:closure", "stage:main"]


def test_every_traced_benchmark_target_resolves(monkeypatch):
    """The benchmark's tracer wraps plocal functions by name, so renaming or
    deleting one would break ``perfbench/run.py --trace 1``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    for module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # ``Tracer.install`` reads a method from its class's own __dict__
        assert name in vars(owner), (module, attr)
        assert callable(getattr(owner, name)), (module, attr)


def test_degenerate_prime_not_dividing_order():
    rep = run_pipeline("cyc:3", PipelineConfig(prime=2, include_timings=False))
    d = rep.data
    assert d["sylow"]["order"] == 1
    assert d["overall"] == "pass"
    main = d["homology"]["main_comparison"]
    assert main["classifying_dims"] == [1, 0, 0]
    assert main["linking_dims"] == [1, 0, 0]


def test_trivial_group():
    rep = run_pipeline("cyc:1", PipelineConfig(prime=2, include_timings=False))
    assert rep.data["overall"] == "pass"


def test_analyze_from_group_spec():
    rep = analyze(GroupSpec("sym:3", 2), include_timings=False, checks=("main",))
    assert rep.data["verdicts"]["main_comparison"] == "pass"
    assert rep.data["prime"] == 2


def test_determinism_same_process():
    cfg = PipelineConfig(prime=2, include_timings=False)
    a = run_pipeline("sym:3", cfg).to_json()
    b = run_pipeline("sym:3", cfg).to_json()
    assert a == b


def test_budget_failure_gives_partial_report():
    rep = run_pipeline(
        "sym:4",
        PipelineConfig(prime=2, budget=500, include_timings=False,
                       checks=("closure", "nerve-vs-group")),
    )
    v = rep.data["verdicts"]
    assert v["closure_idempotent"] == "pass"
    assert v["transporter_nerve_vs_classifying_space"] == "not-certified"
    assert rep.data["overall"] == "not-certified"
    assert rep.exit_code == 0


def test_internal_error_fails_only_its_stage(monkeypatch, capsys):
    from plocal import PLocalError, cli, homology

    def broken_cone(cm):
        raise PLocalError("cone check broke")

    monkeypatch.setattr(homology, "mapping_cone", broken_cone)
    checks = ("closure", "centric-restriction", "main")
    rep = run_pipeline(
        "sym:3", PipelineConfig(prime=2, checks=checks, include_timings=False)
    )
    v = rep.data["verdicts"]
    assert v["centric_restriction_homology"] == "fail"
    assert "centric-restriction: cone check broke" in rep.data["notes"]
    assert v["closure_idempotent"] == "pass"
    assert v["closure_transporter_equality"] == "pass"
    assert v["main_comparison"] == "pass"
    assert rep.overall == "fail"
    code = cli.main(["analyze", "--group", "sym:3", "--prime", "2", "--no-timings",
                     "--check", ",".join(checks)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["verdicts"]["main_comparison"] == "pass"


def test_a_missing_token_fails_its_stage_and_later_stages_report():
    from plocal.pipeline import PipelineRun

    checks = ("nerve-vs-group", "centric-agreement", "main")
    run = PipelineRun(build_group("sym:3"),
                      PipelineConfig(prime=2, checks=checks, include_timings=False), "sym:3")
    T = run.transporter_omega
    real = T.tokens_of
    T.tokens_of = lambda i, j, w: np.where(np.asarray(w) == 1, -1, real(i, j, w))
    rep = run.run()
    v = rep.data["verdicts"]
    assert v["transporter_nerve_vs_classifying_space"] == "fail"
    assert rep.data["notes"] == [
        "nerve-vs-group: an element of G has no token at the poset minimum"]
    assert v["centric_collections_agree"] == "pass"
    assert v["main_comparison"] == "pass"


def test_centric_agreement_reuses_the_transporter_poset_nerve(monkeypatch):
    """On sym:4 at p=2 every poset member in the Sylow is centric, so the
    two transporter categories are one object and its nerve is built once;
    the report is unchanged."""
    from plocal import pipeline
    from plocal.pipeline import PipelineRun

    built = []
    real = pipeline.nerve_complex

    def nerve(C, *args):
        built.append(C)
        return real(C, *args)

    monkeypatch.setattr(pipeline, "nerve_complex", nerve)
    checks = ("nerve-vs-group", "centric-agreement")
    run = PipelineRun(build_group("sym:4"), PipelineConfig(
        prime=2, max_degree=3, checks=checks, include_timings=False), "sym:4")
    rep = run.run()
    assert run.transporter_omega_centric is run.transporter_omega
    assert sum(C is run.transporter_omega for C in built) == 1
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == "4d6042a9ac7d459ef8017317b18291da6411ab8fd91ee5553e2c11f46d1fff38"


def test_out_of_memory_marks_only_its_stage_not_certified(monkeypatch, capsys):
    """A MemoryError raised by the first elimination of one homology stage
    leaves that stage not-certified with a note; the other stages pass and
    the CLI still prints the report."""
    from plocal import cli, pipeline
    from plocal.fplinalg import FpMatrix

    def starved(run, detail):
        real = FpMatrix.rank

        def rank(self, bound=None, skip=()):
            raise MemoryError

        monkeypatch.setattr(FpMatrix, "rank", rank)
        try:
            return pipeline.PipelineRun._stage_t_vs_l(run, detail)
        finally:
            monkeypatch.setattr(FpMatrix, "rank", real)

    stages = tuple(s._replace(run=starved) if s.check == "linking-vs-transporter" else s
                   for s in pipeline.STAGES)
    monkeypatch.setattr(pipeline, "STAGES", stages)
    checks = ("nerve-vs-group", "centric-restriction", "centric-agreement",
              "linking-vs-transporter", "main")
    rep = run_pipeline("sym:4", PipelineConfig(prime=2, max_degree=3, checks=checks,
                                               include_timings=False))
    v = rep.data["verdicts"]
    assert v["transporter_vs_linking_homology"] == "not-certified"
    assert rep.data["notes"] == ["linking-vs-transporter: out of memory"]
    for key in ("transporter_nerve_vs_classifying_space", "centric_restriction_homology",
                "centric_collections_agree", "main_comparison"):
        assert v[key] == "pass", key
    assert rep.overall == "not-certified"
    code = cli.main(["analyze", "--group", "sym:4", "--prime", "2", "--max-degree", "3",
                     "--no-timings", "--check", ",".join(checks)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"] == v
    assert out["notes"] == ["linking-vs-transporter: out of memory"]


# sha256 of the sym:4, p=2 report with every check at max-degree 3, timings
# left out: the line ``scripts/run_catalog.py --max-degree 3`` prints for it
SYM4_P2_SHA256 = "5a34d67bc21e889c4eb0d7a01830585f3d3f0fb62c1d535f82383121b57d9609"


def test_each_category_and_the_quotient_are_verified_once_per_run(monkeypatch):
    """The poset-centric transporter category is the poset's own category
    here, so the six table entries are five category objects; the quotient
    verdict serves both the quotient and the linking-vs-transporter stage."""
    from plocal import categories
    laws, quotients = [], []
    real_laws, real_quotient = categories.verify_category, categories.verify_quotient_functor

    def counted_laws(C):
        laws.append(C)
        return real_laws(C)

    def counted_quotient(psi, p):
        quotients.append(psi)
        return real_quotient(psi, p)

    monkeypatch.setattr(categories, "verify_category", counted_laws)
    monkeypatch.setattr(categories, "verify_quotient_functor", counted_quotient)
    rep = run_pipeline("sym:4", PipelineConfig(prime=2, max_degree=3, include_timings=False))
    assert len(laws) == len({id(C) for C in laws}) == 5
    assert len(quotients) == 1
    entries = rep.data["categories"]
    assert entries["transporter_poset_centric"] == entries["transporter_poset"]
    assert sum("laws" in v for v in entries.values() if isinstance(v, dict)) == 6
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == SYM4_P2_SHA256


def test_broken_endomorphism_fails_only_the_quotient_stage():
    from plocal.pipeline import PipelineRun

    checks = ("closure", "quotient", "adjunction")
    run = PipelineRun(build_group("sym:3 x cyc:3"),
                      PipelineConfig(prime=2, checks=checks, include_timings=False), "")
    T, L = run.transporter_centric, run.linking_centric
    # a kernel automorphism of order 3: it maps to an identity of the linking
    # category; composing it with itself now returns it, so it never cycles
    t = next(t for t in range(T.morphism_count)
             if not T.is_id[t] and L.is_id[run.linking_projection.apply(t)])
    T.composite[T.slot(t, t)] = t
    rep = run.run()
    v = rep.data["verdicts"]
    assert v["quotient_functor_conditions"] == "fail"
    assert f"quotient: endomorphism token {t} is not invertible" in rep.data["notes"]
    assert v["closure_idempotent"] == "pass"
    assert v["closure_inclusion_adjunction"] == "pass"


def test_exit_code_on_failing_verdict():
    from plocal.report import AnalysisReport, finalize_overall

    verdicts = {"main_comparison": "fail"}
    rep = AnalysisReport({"verdicts": verdicts, "overall": finalize_overall(verdicts)})
    assert rep.overall == "fail"
    assert rep.exit_code == 1


def test_cli_parse_check():
    r = run_cli("parse-check", "(1 2)(2 3)")
    assert r.returncode == 0
    assert "(1 3 2)" in r.stdout
    bad = run_cli("parse-check", "(1 2")
    assert bad.returncode == 2


def test_cli_catalog():
    r = run_cli("catalog")
    assert r.returncode == 0
    assert "sym:n" in r.stdout


def test_cli_analyze_json_and_exit_code():
    r = run_cli(
        "analyze", "--group", "sym:3", "--prime", "2",
        "--no-timings", "--check", "closure,main",
    )
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["group"]["order"] == 6
    assert d["verdicts"]["main_comparison"] == "pass"
    assert d["sylow"] == {"order": 2, "count": 3, "p_part": 2, "label": d["sylow"]["label"]}


def test_cli_analyze_bad_prime():
    r = run_cli("analyze", "--group", "sym:3", "--prime", "4")
    assert r.returncode == 2


def test_cli_analyze_unknown_check():
    r = run_cli("analyze", "--group", "sym:3", "--prime", "2", "--check", "bogus")
    assert r.returncode == 2


def test_cli_determinism_across_processes():
    args = (
        "analyze", "--group", "sym:3", "--prime", "3",
        "--no-timings",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


# sha256 of the sym:4, p=2, max-degree-3 report over the five homology checks,
# timings masked; any change to the report's bytes changes it
GOLDEN_HOMOLOGY_REPORT_SHA256 = (
    "270593219a6de891fc9f1e6151d04d3aac65a4258e5d42f619c37b303c4b601f"
)


def test_golden_masked_homology_report():
    rep = run_pipeline(
        "sym:4",
        PipelineConfig(
            prime=2, max_degree=3, include_timings=False,
            checks=("nerve-vs-group", "centric-restriction", "centric-agreement",
                    "linking-vs-transporter", "main"),
        ),
    )
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == GOLDEN_HOMOLOGY_REPORT_SHA256


# sha256 of the sym:3 x cyc:3, p=3, max-degree-4 centric-restriction report,
# timings masked: its degree-4 cone boundaries are ranked over F_3 with the
# bound that ∂² = 0 forces, so a wrong early stop changes it
GOLDEN_CENTRIC_P3_REPORT_SHA256 = (
    "3694d75a61d91273c53fb7722fc3105c78af154c97080ed3c9c7431fcfde7476"
)


def test_golden_masked_centric_restriction_report_at_p3():
    rep = run_pipeline(
        "sym:3 x cyc:3",
        PipelineConfig(prime=3, max_degree=4, include_timings=False,
                       checks=("centric-restriction",)),
    )
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == GOLDEN_CENTRIC_P3_REPORT_SHA256


# sha256 of the sym:4 x cyc:2, p=2, max-degree-3 report over the four
# structure checks, timings masked: its coset categories are the largest the
# benchmark builds, so any change to the coset rule shows here
GOLDEN_STRUCTURE_REPORT_SHA256 = (
    "c7a4675f0838dfb3148d241c1227f2ceb7ec85f52654dbdba4bd3329ab30935e"
)


def test_golden_masked_structure_report():
    rep = run_pipeline(
        "sym:4 x cyc:2",
        PipelineConfig(prime=2, max_degree=3, include_timings=False,
                       checks=("closure", "categories", "quotient", "adjunction")),
    )
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == GOLDEN_STRUCTURE_REPORT_SHA256
