"""Acceptance suite: one test per criterion, each printing a verdict line.

The catalog set is {sym:3, sym:4, alt:4, dih:8, dih:12, cyc:6, sym:3 x cyc:3}
with p in {2, 3}.  All checks are exact (no tolerances); homology claims
carry the truncation degree they are certified at.
"""

import hashlib
import json
import pathlib
import subprocess
import sys

import numpy as np

from plocal import (
    ModuleData,
    PipelineConfig,
    all_subgroups,
    atomic_functor_limits,
    bar_complex,
    build_intersection_poset,
    build_orbit,
    build_orbit_skeletons,
    build_transporter,
    emit_report,
    homology_iso_verdict,
    nerve_complex,
    normalizer_reduction_check,
    punctured_class_vanishing,
    quotient_projection,
    run_pipeline,
    skeleton,
    support_restriction_check,
    sylow_subgroup,
    verify_category,
    verify_closure_properties,
    verify_quotient_functor,
)
from plocal.catalog import build_group
from plocal.cohomology import CohomologyCache
from plocal.report import PASS
from reference_omega import centric_subgroups

CATALOG = ["sym:3", "sym:4", "alt:4", "dih:8", "dih:12", "cyc:6", "sym:3 x cyc:3"]
PRIMES = (2, 3)

_groups: dict = {}
_posets: dict = {}
_skeletons: dict = {}


def group(spec):
    if spec not in _groups:
        _groups[spec] = build_group(spec)
    return _groups[spec]


def poset(spec, p):
    if (spec, p) not in _posets:
        _posets[(spec, p)] = build_intersection_poset(group(spec), p)
    return _posets[(spec, p)]


def skeletons(spec, p):
    if (spec, p) not in _skeletons:
        _skeletons[(spec, p)] = build_orbit_skeletons(group(spec), p, poset(spec, p))
    return _skeletons[(spec, p)]


def centric_in_sylow(spec, p):
    G = group(spec)
    subs = all_subgroups(sylow_subgroup(G, p))
    return centric_subgroups(G, p, subs)


def announce(num, ok, text):
    print(f"ACCEPTANCE #{num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_closure_properties():
    failures = []
    for spec in CATALOG:
        for p in PRIMES:
            G = group(spec)
            subs = all_subgroups(sylow_subgroup(G, p))
            v = verify_closure_properties(poset(spec, p), subs)
            if not v.passed:
                failures.append((spec, p))
    announce(
        1,
        not failures,
        "closure operator: extension, monotonicity, idempotence, transporter "
        f"compatibility and equality, exhaustive over the catalog at p=2,3"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_2_category_laws():
    failures = []
    for spec in CATALOG:
        for p in PRIMES:
            G = group(spec)
            ps = poset(spec, p)
            S = sylow_subgroup(G, p)
            members_in_s = [ps.members[i] for i in ps.members_in(S)]
            built = [
                build_transporter(G, members_in_s),
                build_orbit(G, members_in_s),
                skeletons(spec, p).p_cat,
                skeletons(spec, p).omega_cat,
            ]
            cents = centric_in_sylow(spec, p)
            if cents:
                T = build_transporter(G, cents)
                psi = quotient_projection(T, p)
                built += [T, psi.target]
            for cat in built:
                verdict = verify_category(cat)
                if not verdict.passed:
                    failures.append((spec, p, cat.kind, verdict.failures[:2]))
    announce(
        2,
        not failures,
        "associativity, identities, and coset well-definedness for every "
        "transporter/linking/orbit category in the catalog"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_3_transporter_linking_equivalence():
    failures = []
    dmax = 4
    for spec in CATALOG:
        for p in PRIMES:
            G = group(spec)
            cents = centric_in_sylow(spec, p)
            if not cents:
                continue
            T = build_transporter(G, cents)
            T, _ = skeleton(T)
            psi = quotient_projection(T, p)
            kv = verify_quotient_functor(psi, p)
            src = nerve_complex(T, p, dmax - 1)
            tgt = nerve_complex(psi.target, p, dmax)
            iso, record = homology_iso_verdict(psi, src, tgt)
            if not (kv.passed and record["certified_through"] >= 2 and iso):
                failures.append((spec, p))
    announce(
        3,
        not failures,
        "the projection from the centric transporter category to the linking "
        "category satisfies the quotient-functor conditions and induces "
        "homology isomorphisms through degree 2 (mapping-cone acyclicity, "
        "truncation 4)" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_4_transporter_nerve_matches_classifying_space():
    from plocal import Functor

    cases = [("sym:3", 2, 4), ("sym:3", 3, 4), ("sym:4", 2, 3)]
    failures = []
    for spec, p, dmax in cases:
        G = group(spec)
        ps = poset(spec, p)
        S = sylow_subgroup(G, p)
        members = [ps.members[i] for i in ps.members_in(S)]
        T = build_transporter(G, members)
        t_cx = nerve_complex(T, p, dmax)
        bar = bar_complex(G, p, dmax)
        if bar.homology()[: dmax - 1] != t_cx.homology()[: dmax - 1]:
            failures.append((spec, p, "dims"))
            continue
        min_idx = next(
            i for i, P in enumerate(T.objects)
            if P.ids == ps.members[ps.minimum].ids
        )
        bg = build_transporter(G, [G.full_subgroup()])
        F = Functor(bg, T, [min_idx], T.tokens_of(min_idx, min_idx, bg.witness).tolist())
        iso, _ = homology_iso_verdict(F, bar, t_cx)
        if not iso:
            failures.append((spec, p, "cone"))
    announce(
        4,
        not failures,
        "nerve of the transporter category on the Sylow-intersection poset "
        "matches the classifying space in mod-p homology for (sym:3, 2), "
        "(sym:3, 3), (sym:4, 2 at truncation 3)"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_5_punctured_vanishing():
    failures = []
    checked = 0
    for spec in CATALOG:
        for p in PRIMES:
            skel = skeletons(spec, p)
            cache = CohomologyCache(group(spec), p)
            for k, flag in enumerate(skel.omega_centric):
                if flag:
                    continue
                for i in range(3):
                    passed, rec = punctured_class_vanishing(skel, skel.omega_reps[k], i, 3, cache)
                    checked += 1
                    if not (passed and rec["poset_dims"] is not None):
                        failures.append((spec, p, skel.omega_reps[k].label(), i))
    announce(
        5,
        not failures,
        f"limits of functors concentrated on each non-centric poset class "
        f"(i <= 2) vanish through degree 2 over both orbit skeleta "
        f"({checked} instances)" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_6_normalizer_reduction_and_restriction():
    failures = []
    reductions = 0
    restrictions = 0
    for spec in CATALOG:
        for p in PRIMES:
            skel = skeletons(spec, p)
            cache = CohomologyCache(group(spec), p)
            for R in skel.p_reps:
                for i in range(3):
                    passed, _ = normalizer_reduction_check(skel, R, i, 3, cache)
                    reductions += 1
                    if not passed:
                        failures.append(("reduction", spec, p, R.label(), i))
            for i in range(3):
                passed, _ = support_restriction_check(skel, i, 3, cache)
                restrictions += 1
                if not passed:
                    failures.append(("restriction", spec, p, i))
    announce(
        6,
        not failures,
        f"class-supported limits reduce to the normalizer quotient "
        f"({reductions} instances) and restriction to the upward-closed "
        f"centric subcollection preserves limits ({restrictions} instances), "
        "both sides computed independently"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_7_atomic_vanishing():
    failures = []
    checked = 0
    for spec in CATALOG:
        for p in PRIMES:
            G = group(spec)
            if not any(o == p for o in G.element_orders):
                continue
            module = ModuleData(1, [np.eye(1, dtype=np.int64) for _ in G.generators])
            dims = atomic_functor_limits(skeletons(spec, p), module, 3, CohomologyCache(G, p))
            checked += 1
            if dims != [0, 0, 0]:
                failures.append((spec, p, dims))
    announce(
        7,
        not failures,
        f"atomic limits with trivial coefficients vanish through degree 2 "
        f"whenever the group has an element of order p ({checked} instances)"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_8_main_comparison_golden():
    golden = json.loads(
        (pathlib.Path(__file__).parent / "golden" / "main_comparison.json").read_text()
    )
    expected_small = {
        ("sym:3", 2): [1, 1, 1],
        ("sym:3", 3): [1, 0, 0],
    }
    failures = []
    for entry in golden["entries"]:
        spec, p = entry["group"], entry["prime"]
        rep = run_pipeline(
            spec,
            PipelineConfig(
                prime=p, max_degree=3, include_timings=False,
                checks=("main",),
            ),
        )
        main = rep.data["homology"]["main_comparison"]
        ok = (
            rep.data["verdicts"]["main_comparison"] == PASS
            and main["classifying_dims"] == entry["classifying_dims"]
            and main["linking_dims"] == entry["linking_dims"]
        )
        if (spec, p) in expected_small:
            ok = ok and main["linking_dims"] == expected_small[(spec, p)]
        if not ok:
            failures.append((spec, p, main))
    announce(
        8,
        not failures,
        "linking-system nerve homology equals classifying-space homology "
        "through degree 2, matching the frozen brute-force values for "
        "(sym:3, 2), (sym:3, 3), (sym:4, 2)"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_stable_elements_match_the_homology_of_bg_and_the_linking_nerve():
    """Over a field, dim H_i(BG; F_p) = dim H^i(BG; F_p), and H^i(BG; F_p)
    is the module of stable elements (Cartan–Eilenberg, "Homological
    Algebra", 1956, XII.10.1): lim^0 of H^i(B-; F_p) over the orbit
    category on a collection holding every intersection S ∩ S^g of Sylow
    subgroups.  Broto–Levi–Oliver ("The homotopy theory of fusion systems",
    JAMS 2003, Thm. B) identify H^*(|L|; F_p) with the stable elements of
    the fusion system.  So on every catalog run, for i = 0, 1, 2, lim^0 of
    the filtration check's full profile equals the bar's and the linking
    nerve's H_i, and the higher limits vanish: an independent route to the
    dimensions the main-comparison goldens froze."""
    for spec in CATALOG:
        for p in PRIMES:
            rep = run_pipeline(spec, PipelineConfig(
                prime=p, max_degree=3, cohomology_index_max=2, include_timings=False,
                checks=("filtration", "main")))
            main = rep.data["homology"]["main_comparison"]
            profiles = rep.data["limits"]["class_filtration"]
            assert [f["index"] for f in profiles] == [0, 1, 2]
            for i, f in enumerate(profiles):
                lim0, *higher = f["full_dims"]
                assert lim0 == main["classifying_dims"][i] == main["linking_dims"][i], (spec, p, i)
                assert higher and not any(higher), (spec, p, i)


# sha256 of the 14 timings-masked catalog reports joined by newlines, as built
# by test_criterion_9_determinism; the same under every PYTHONHASHSEED
GOLDEN_CATALOG_SHA256 = (
    "c6bd9d58122486e29fff29b12e64bbd722651ee507fae1400a25e925d62af20e"
)


def test_criterion_9_determinism():
    def run_suite():
        out = []
        for spec in CATALOG:
            for p in PRIMES:
                rep = run_pipeline(
                    spec,
                    PipelineConfig(
                        prime=p, max_degree=3, max_limit_degree=3,
                        cohomology_index_max=1, include_timings=False,
                    ),
                )
                out.append(rep.to_json())
        return "\n".join(out)

    first = run_suite()
    second = run_suite()
    announce(
        9,
        first == second,
        "two consecutive runs of the full suite produce byte-identical "
        "reports with timings masked",
    )
    assert '"overall": "fail"' not in first
    assert ": internal error: " not in first
    assert hashlib.sha256(first.encode()).hexdigest() == GOLDEN_CATALOG_SHA256


# the last line of ``scripts/run_catalog.py --max-degree 3``: the combined
# digest of the 14 catalog reports at cohomology index 2, timings masked
CATALOG_SCRIPT_SHA256 = (
    "b20d7ca3fa093c59487da71cdc50a264586655e63a01a3dcb8e19c305af76c2a"
)


def test_catalog_script_digest_is_pinned():
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_catalog.py"
    r = subprocess.run(
        [sys.executable, str(script), "--max-degree", "3"],
        capture_output=True, text=True, timeout=600,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert "INTERNAL ERROR" not in r.stdout
    assert r.stdout.splitlines()[-1] == f"combined sha256={CATALOG_SCRIPT_SHA256}"


# sha256 of ``plocal analyze --group sym:5 --prime 2 --max-degree 3 --format
# json --no-timings``: 31 poset members, 310 adjunction pairs, and 6 of the
# 17 verdicts over the default budget
SYM5_P2_REPORT_SHA256 = (
    "d6d8153f3e7159e500591b83791a61b20b726f2f3ca2c68ea0fd1b9462e2a295"
)


def test_sym5_report_at_p2_is_pinned():
    """The largest adjunction outside the catalog, byte for byte."""
    out = emit_report(run_pipeline("sym:5", PipelineConfig(
        prime=2, max_degree=3, include_timings=False)), "json")
    data = json.loads(out)
    assert data["poset"]["member_count"] == 31
    assert data["limits"]["adjunction_pairs_checked"] == 310
    assert list(data["verdicts"].values()).count("not-certified") == 6
    assert hashlib.sha256(out.encode()).hexdigest() == SYM5_P2_REPORT_SHA256


# sha256 of ``plocal analyze --group "sym:3 x cyc:3" --prime 3 --max-degree 4
# --format json --no-timings``: its largest nerve, the bar complex of the
# 18-element group, has 83,521 chains in degree 4
S3C3_P3_REPORT_SHA256 = (
    "9427dd80c6f6b2e76b8e11077db53a96f7d82a4c914714d3fa3c16f5a1f12c2e"
)


def test_s3c3_report_at_p3_degree_4_is_pinned():
    """The centric-restriction workload's group and prime at full size, byte
    for byte, with the degree-4 bar nerve among its complexes."""
    out = emit_report(run_pipeline("sym:3 x cyc:3", PipelineConfig(
        prime=3, max_degree=4, include_timings=False)), "json")
    assert hashlib.sha256(out.encode()).hexdigest() == S3C3_P3_REPORT_SHA256
