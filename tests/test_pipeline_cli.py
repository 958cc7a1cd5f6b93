import argparse
import hashlib
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plocal import ParseError, Permutation, PLocalError, PipelineConfig, run_pipeline
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
    assert parse_cycles("()") == Permutation.identity(1)
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


def test_explicit_generators_with_commas_inside_cycles(capsys):
    """Commas may separate the points of a cycle, as ``parse_cycles``
    accepts; only a comma outside the parentheses separates generators."""
    from plocal import cli

    G = build_group("gens:(1,2,3),(1,2)")
    assert (G.degree, G.order) == (3, 6)
    same = build_group("gens:(1 2 3)(4 5),(1 2)")
    assert build_group("gens:(1,2,3)(4,5),(1,2)").order == same.order == 12
    assert build_group("gens:(1, 2),(3,4);deg=5").order == 4
    code = cli.main(["analyze", "--group", "gens:(1,2,3),(1,2)", "--prime", "2",
                     "--no-timings", "--check", "closure"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["group"]["order"] == 6


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

    def broken_cone(A, B, images):
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


def test_sym4_limit_checks_at_limit_degree_4():
    """The five limit checks on sym:4 at p=2 through lim^3: every verdict
    passes and the report is pinned byte for byte."""
    checks = ("punctured", "normalizer-reduction", "atomic-vanishing", "restriction",
              "filtration")
    rep = run_pipeline("sym:4", PipelineConfig(prime=2, max_limit_degree=4, checks=checks,
                                               include_timings=False))
    v = rep.data["verdicts"]
    for key in ("punctured_limits_vanish", "normalizer_reduction",
                "atomic_vanishing_with_p_kernel", "support_restriction_limits",
                "class_filtration_limits"):
        assert v[key] == "pass", key
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == "2b93bfb64640f129b0720af83cd0604b3628c9d910920e101dbc98f80eefc5c0"


def test_out_of_memory_marks_only_its_stage_not_certified(monkeypatch, capsys):
    """A MemoryError raised by the first elimination of one homology stage
    leaves that stage not-certified with a note; the other stages pass and
    the CLI still prints the report."""
    from plocal import cli, pipeline
    from plocal.fplinalg import FpMatrix

    def starved(run, detail):
        real = FpMatrix.rank

        def rank(self, bound=None):
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


def record_calls(monkeypatch, name):
    """Wrap the function ``name`` in every plocal module that binds it; the
    returned list gets the positional arguments of each call."""
    mods = [m for k, m in list(sys.modules.items()) if k == "plocal" or k.startswith("plocal.")]
    real = next(getattr(m, name) for m in mods if hasattr(m, name))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for m in mods:
        if getattr(m, name, None) is real:
            monkeypatch.setattr(m, name, counted)
    return calls


HOMOLOGY_CHECKS = ("nerve-vs-group", "centric-restriction", "centric-agreement",
                   "linking-vs-transporter", "main")


def test_nerve_vs_group_times_the_coset_category_and_its_nerve():
    """The coset category and its nerve are run artifacts like the others,
    so a ``--check nerve-vs-group`` report times each of them."""
    r = run_cli("analyze", "--group", "sym:3", "--prime", "2", "--check", "nerve-vs-group")
    assert r.returncode == 0
    timings = json.loads(r.stdout)["timings"]
    assert "coset_category" in timings
    assert [k for k in timings if k.startswith("cx:coset:")] == ["cx:coset:4x7:4"]


def test_sym4_homology_checks_build_five_nerves_and_one_group_category(monkeypatch):
    """The bar complex is the nerve of the run's one-object group category,
    served like the transporter-poset nerve (the centric-restriction source
    is that category itself, read as a prefix), the coset nerve and the
    centric transporter and linking nerves: five nerves of five distinct
    category objects, none of them through ``bar_complex``, and the
    nerve-vs-group functor starts at that one group category.  The centric
    transporter and linking tables are equal, but the linking nerve is
    asked for at degree 3 after the transporter's at degree 2, so it is
    built again at the larger degree."""
    nerves = record_calls(monkeypatch, "nerve_complex")
    groups = record_calls(monkeypatch, "group_category")
    bars = record_calls(monkeypatch, "bar_complex")
    rep = run_pipeline("sym:4", PipelineConfig(prime=2, max_degree=3, checks=HOMOLOGY_CHECKS,
                                               include_timings=False))
    assert set(rep.verdicts[k] for s in STAGES if s.check in HOMOLOGY_CHECKS
               for k in s.keys) == {"pass"}
    assert len(nerves) == len({id(args[0]) for args in nerves}) == 5
    assert sum(P.order == G.order for G, P, *_ in groups) == 1
    assert bars == []


@pytest.mark.parametrize("spec,p,built", [
    ("sym:3 x cyc:3", 3, [(1, 18, 3), (1, 1, 3)]),
    ("sym:3", 3, [(1, 6, 3), (1, 1, 3)]),
    ("sym:4", 2, [(1, 24, 3), (2, 56, 3), (4, 7, 3), (4, 88, 2), (4, 88, 3)]),
])
def test_a_full_run_builds_one_nerve_per_composition_table(monkeypatch, spec, p, built):
    """A full max-degree-3 run builds a nerve once per composition table
    and degree, as (objects, morphisms, degree).  On sym:3 x cyc:3 and
    sym:3 at p=3 the bar, transporter-poset, centric transporter and
    linking categories are one one-object table, so only it and the
    one-object coset table are built.  On sym:4 at p=2 the equal centric
    transporter and linking tables are built twice: degree 2 first, then
    3 for the linking nerve."""
    from plocal import pipeline
    calls = []
    real = pipeline.nerve_complex

    def nerve(C, prime, dmax, budget):
        calls.append((C.object_count, C.morphism_count, dmax))
        return real(C, prime, dmax, budget)

    monkeypatch.setattr(pipeline, "nerve_complex", nerve)
    rep = run_pipeline(spec, PipelineConfig(prime=p, max_degree=3, include_timings=False))
    assert rep.overall == "pass"
    assert calls == built


def test_main_passes_at_degree_three_when_the_bar_overruns_at_degree_four():
    """Main compares homology through degree 2, so it reads the bar and the
    linking nerve through degree 3.  Under a budget below the bar's 279,841
    chains at degree 4, nerve-vs-group, which reads the bar at max degree 4,
    is not certified, and main still passes."""
    rep = run_pipeline("sym:4", PipelineConfig(prime=2, max_degree=4, budget=100_000,
                                               include_timings=False))
    assert rep.verdicts["main_comparison"] == "pass"
    assert rep.data["homology"]["main_comparison"]["classifying_dims"] == [1, 1, 2]
    assert rep.verdicts["transporter_nerve_vs_classifying_space"] == "not-certified"
    notes = rep.data["notes"]
    assert "nerve-vs-group: basis size 279841 at degree 4 exceeds budget 100000" in notes
    assert not any(n.startswith("main:") for n in notes)


def test_main_alone_builds_the_bar_and_linking_nerves_at_degree_three():
    """At max degree 4, ``--check main`` times the group category's and the
    linking category's nerves through degree 3, and no other nerve."""
    rep = run_pipeline("sym:4", PipelineConfig(prime=2, max_degree=4, checks=("main",)))
    assert rep.verdicts["main_comparison"] == "pass"
    timings = rep.data["timings"]
    assert "bar" not in timings
    assert [k for k in timings if k.startswith("cx:")] == [
        "cx:group:1x24:3", "cx:linking:4x88:3"]


def test_s3c3_centric_restriction_builds_one_nerve(monkeypatch):
    """On sym:3 x cyc:3 at p=3 every poset member is centric: the inclusion
    is the identity of the transporter-poset category, whose one nerve
    serves as target and, through its prefix, as source."""
    nerves = record_calls(monkeypatch, "nerve_complex")
    rep = run_pipeline("sym:3 x cyc:3", PipelineConfig(
        prime=3, max_degree=4, checks=("centric-restriction",), include_timings=False))
    assert rep.verdicts["centric_restriction_homology"] == "pass"
    assert len(nerves) == 1


@pytest.mark.parametrize("spec,p", [("sym:4", 2), ("sym:3 x cyc:3", 2), ("alt:4", 3)])
def test_orbit_skeletons_build_one_orbit_category(monkeypatch, spec, p):
    """The poset skeleton is a full subcategory of the p-subgroup skeleton,
    not a second orbit category."""
    from plocal import build_orbit_skeletons
    orbits = record_calls(monkeypatch, "build_orbit")
    skel = build_orbit_skeletons(build_group(spec), p)
    assert len(orbits) == 1
    assert skel.omega_cat.kind == "orbit"


def test_broken_endomorphism_fails_only_the_quotient_stage():
    from plocal.pipeline import PipelineRun

    checks = ("closure", "quotient", "adjunction")
    run = PipelineRun(build_group("sym:3 x cyc:3"),
                      PipelineConfig(prime=2, checks=checks, include_timings=False), "")
    T, L = run.transporter_centric, run.linking_centric
    # a kernel automorphism of order 3: it maps to an identity of the linking
    # category; composing it with itself now returns it, so it never cycles
    t = next(t for t in range(T.morphism_count)
             if not T.is_id[t] and L.is_id[run.linking_projection.morphism_map[t]])
    T.composite[T.pair_start[t] + t - T.first[T.src[t]]] = t
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


def test_max_degree_1_leaves_the_mapping_cone_checks_not_certified():
    """A mapping cone through degree 1 certifies no degree, so the three iso
    checks read not-certified, each with a note, and nothing reads fail."""
    r = run_cli("analyze", "--group", "sym:3", "--prime", "2", "--max-degree", "1",
                "--no-timings")
    assert r.returncode == 0, r.stderr
    d = json.loads(r.stdout)
    for check in ("nerve-vs-group", "centric-restriction", "linking-vs-transporter"):
        (stage,) = [s for s in STAGES if s.check == check]
        assert [d["verdicts"][k] for k in stage.keys] == ["not-certified"]
        assert f"{check}: needs max degree >= 2" in d["notes"]
    assert "fail" not in d["verdicts"].values()


@pytest.mark.parametrize("flag,value", [
    ("--max-degree", "0"), ("--max-limit-degree", "0"), ("--cohomology-index-max", "-1"),
    ("--budget", "0"), ("--budget", "-5"),
])
def test_cli_rejects_a_truncation_that_certifies_nothing(flag, value):
    """Max degree 0 builds no boundary, limit degree 0 no lim^n, index -1
    no coefficient functor, and a budget below 1 admits no degree-0 basis:
    a usage error, not a verdict."""
    r = run_cli("analyze", "--group", "sym:3", "--prime", "2", flag, value)
    assert r.returncode == 2
    assert "must be at least" in r.stderr


def test_cli_rejects_an_empty_check_list():
    """``--check ,`` and ``--check ""`` name no check: a usage error, not a
    report of every check or one whose verdicts all read not-certified."""
    for value in (",", ""):
        r = run_cli("analyze", "--group", "sym:3", "--prime", "2", "--check", value)
        assert r.returncode == 2
        assert "error: no checks requested" in r.stderr


def test_readme_flag_table_matches_the_analyze_parser():
    """The README's table of ``analyze`` flags names every option of the
    parser but ``-h``, ``--group`` and ``--prime``, and no other."""
    from plocal.cli import _build_parser
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Flags for `analyze`:", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1] for line in table.splitlines()[2:]]
    flags = {f for cell in rows for f in re.findall(r"`(--[a-z-]+)", cell)}
    options = {s for a in sub.choices["analyze"]._actions for s in a.option_strings}
    assert flags == options - {"-h", "--help", "--group", "--prime"}


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
