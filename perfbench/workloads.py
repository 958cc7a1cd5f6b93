"""Benchmark workloads: fixed (group, prime, flags) triples and their expected output.

The seed changes only the presentation of the group: ``presentation`` relabels
the points and reorders the generators, and plocal receives the result as a
``gens:...;deg=n`` spec.  Every presentation is isomorphic to the catalog
group, so verdicts and every dimension in the report are the same for all
seeds; ``digest`` hashes exactly that seed-invariant content.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field

DEFAULT_SEED = 1

STRUCTURE_CHECKS = ("closure", "categories", "quotient", "adjunction")
HOMOLOGY_CHECKS = (
    "nerve-vs-group", "centric-restriction", "centric-agreement", "linking-vs-transporter", "main",
)
LIMIT_CHECKS = ("punctured", "normalizer-reduction", "atomic-vanishing", "restriction", "filtration")

# verdict keys each check writes, as listed by plocal's report
CHECK_VERDICTS = {
    "closure": (
        "closure_extends_and_monotone",
        "closure_idempotent",
        "closure_preserves_transporters",
        "closure_transporter_equality",
    ),
    "categories": ("category_laws",),
    "quotient": ("quotient_functor_conditions",),
    "adjunction": ("closure_inclusion_adjunction",),
    "nerve-vs-group": ("transporter_nerve_vs_classifying_space",),
    "centric-restriction": ("centric_restriction_homology",),
    "centric-agreement": ("centric_collections_agree",),
    "linking-vs-transporter": ("transporter_vs_linking_homology",),
    "punctured": ("punctured_limits_vanish",),
    "normalizer-reduction": ("normalizer_reduction",),
    "atomic-vanishing": ("atomic_vanishing_with_p_kernel",),
    "restriction": ("support_restriction_limits",),
    "filtration": ("class_filtration_limits",),
    "main": ("main_comparison",),
}
ALL_CHECKS = tuple(CHECK_VERDICTS)


@dataclass(frozen=True)
class Workload:
    name: str
    group: str  # catalog spec of the group, as in tests/golden
    generators: tuple[str, ...]  # the catalog generators in cycle notation
    degree: int
    prime: int
    checks: tuple[str, ...]
    flags: dict = field(default_factory=dict)
    digest: str = ""  # expected seed-invariant digest

    def requested_verdicts(self) -> tuple[str, ...]:
        return tuple(k for c in self.checks for k in CHECK_VERDICTS[c])

    def expected_verdicts(self) -> dict[str, str]:
        return {k: "pass" for k in self.requested_verdicts()}

    def config_kwargs(self) -> dict:
        return dict(prime=self.prime, checks=self.checks, **self.flags)


# Why each workload exists, and what it leaves out: perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sym4-p2-homology",
            group="sym:4",
            generators=("(1 2 3 4)", "(1 2)"),
            degree=4,
            prime=2,
            checks=HOMOLOGY_CHECKS,
            flags={"max_degree": 3},
            digest="88268d47d813d738",
        ),
        Workload(
            name="s3c3-p3-centric",
            group="sym:3 x cyc:3",
            generators=("(1 2 3)", "(1 2)", "(4 5 6)"),
            degree=6,
            prime=3,
            checks=("centric-restriction",),
            flags={"max_degree": 4},
            digest="bde6147bfb60659d",
        ),
        Workload(
            name="s3c3-p2-limits",
            group="sym:3 x cyc:3",
            generators=("(1 2 3)", "(1 2)", "(4 5 6)"),
            degree=6,
            prime=2,
            checks=LIMIT_CHECKS,
            flags={"max_limit_degree": 3},
            digest="925a2e8314f157c1",
        ),
        Workload(
            name="s4c2-p2-structure",
            group="sym:4 x cyc:2",
            generators=("(1 2 3 4)", "(1 2)", "(5 6)"),
            degree=6,
            prime=2,
            checks=STRUCTURE_CHECKS,
            flags={"max_degree": 3},
            digest="c8fffb3697873a32",
        ),
    )
}


def presentation(w: Workload, seed: int) -> str:
    """An isomorphic presentation of the workload's group, chosen by the seed."""
    rng = random.Random(seed)
    images = list(range(1, w.degree + 1))
    rng.shuffle(images)
    gens = list(w.generators)
    rng.shuffle(gens)
    relabel = lambda m: str(images[int(m.group()) - 1])  # noqa: E731
    return "gens:" + ",".join(re.sub(r"\d+", relabel, g) for g in gens) + f";deg={w.degree}"


def _unlabeled(records: list[dict], drop: tuple[str, ...]) -> list:
    """Records without their subgroup labels, in a presentation-free order."""
    rows = [{k: v for k, v in r.items() if k not in drop} for r in records]
    return sorted(rows, key=lambda r: json.dumps(r, sort_keys=True))


def invariant_content(data: dict) -> dict:
    """The part of a report that no presentation of the group can change:
    verdicts, homology and limit dimensions, category object and morphism
    counts, and the closure and adjunction pair counts."""
    limits = dict(data["limits"])
    for key in ("punctured", "normalizer_reduction"):
        if key in limits:
            limits[key] = _unlabeled(limits[key], ("class",))
    if "class_filtration" in limits:
        limits["class_filtration"] = [
            {**rec, "stages": _unlabeled(rec["stages"], ("added",))}
            for rec in limits["class_filtration"]
        ]
    categories = dict(data["categories"])
    if "quotient_kernel_orders" in categories:
        categories["quotient_kernel_orders"] = sorted(categories["quotient_kernel_orders"])
    return {
        "order": data["group"]["order"],
        "prime": data["prime"],
        "sylow": [data["sylow"]["order"], data["sylow"]["count"]],
        "poset": [
            data["poset"][k]
            for k in ("member_count", "class_count", "chain_length", "centric_member_count")
        ],
        "verdicts": data["verdicts"],
        "categories": categories,
        "homology": data["homology"],
        "limits": limits,
        "notes": len(data["notes"]),
    }


def digest(data: dict) -> str:
    blob = json.dumps(invariant_content(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
