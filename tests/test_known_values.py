"""End-to-end checks against independently known homology dimensions for
groups outside the acceptance catalog."""

from plocal import PipelineConfig, run_pipeline

# quaternion group of order 8, acting on itself by left translation
Q8 = "gens:(1 2 5 6)(3 4 7 8),(1 3 5 7)(2 8 6 4)"


def test_quaternion_group_full_pipeline():
    rep = run_pipeline(Q8, PipelineConfig(prime=2, max_degree=4, include_timings=False))
    d = rep.data
    assert d["group"]["order"] == 8
    assert d["overall"] == "pass"
    # mod-2 homology of the quaternion group: the period-4 pattern 1,2,2,1
    assert d["homology"]["classifying_space"]["dims"] == [1, 2, 2, 1]
    assert d["homology"]["main_comparison"]["linking_dims"] == [1, 2, 2]


def test_quaternion_center_class_vanishes():
    # the center is not 2-centric (its centralizer is the whole group);
    # limits of the functor concentrated there must vanish
    from plocal import build_orbit_skeletons, punctured_class_vanishing
    from plocal.catalog import build_group
    from plocal.cohomology import CohomologyCache

    G = build_group(Q8)
    skel = build_orbit_skeletons(G, 2)
    center_rep = next(
        R for R in skel.p_reps
        if R.order == 2
    )
    passed, rec = punctured_class_vanishing(skel, center_rep, 1, 3, CohomologyCache(G, 2))
    assert passed
    assert rec["full_dims"] == [0, 0, 0]


def test_alternating_5_main_comparison():
    rep = run_pipeline(
        "alt:5",
        PipelineConfig(prime=2, max_degree=3, include_timings=False,
                       checks=("closure", "quotient", "main")),
    )
    d = rep.data
    # a perfect group with Schur multiplier of order 2: dims 1, 0, 1
    assert d["homology"]["main_comparison"]["classifying_dims"] == [1, 0, 1]
    assert d["homology"]["main_comparison"]["linking_dims"] == [1, 0, 1]
    assert d["verdicts"]["main_comparison"] == "pass"
    assert d["verdicts"]["quotient_functor_conditions"] == "pass"


def test_alternating_4_at_3():
    rep = run_pipeline(
        "alt:4",
        PipelineConfig(prime=3, max_degree=4, include_timings=False,
                       checks=("nerve-vs-group", "main")),
    )
    # the Sylow 3-subgroup is abelian and self-normalizing, so the mod-3
    # homology agrees with that of the cyclic Sylow subgroup in every degree
    assert rep.data["homology"]["classifying_space"]["dims"] == [1, 1, 1, 1]
    assert rep.data["verdicts"]["main_comparison"] == "pass"
    assert rep.data["verdicts"]["transporter_nerve_vs_classifying_space"] == "pass"


def test_dihedral_12_kunneth():
    rep = run_pipeline(
        "dih:12",
        PipelineConfig(prime=2, max_degree=3, include_timings=False,
                       checks=("main",)),
    )
    # dih:12 is the product of sym:3 with a central order-2 factor, so its
    # mod-2 homology dimensions grow linearly: 1, 2, 3
    assert rep.data["homology"]["main_comparison"]["classifying_dims"] == [1, 2, 3]
    assert rep.data["verdicts"]["main_comparison"] == "pass"


def test_sym3_at_3_deep_truncation():
    rep = run_pipeline(
        "sym:3", PipelineConfig(prime=3, max_degree=5, include_timings=False)
    )
    d = rep.data
    assert d["overall"] == "pass"
    # the period-4 pattern: nonzero in degrees 0, 3, 4
    assert d["homology"]["classifying_space"]["dims"] == [1, 0, 0, 1, 1]
    assert d["homology"]["linking_nerve"]["dims"] == [1, 0, 0, 1, 1]

