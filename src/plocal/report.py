"""Structured analysis reports with stable JSON serialization.

The pipeline builds ``verdicts`` in its stage order, with every verdict key
present; the text report and the overall verdict walk that dict as built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
NOT_CERTIFIED = "not-certified"


def verdict_str(value: bool | None) -> str:
    if value is None:
        return NOT_CERTIFIED
    return PASS if value else FAIL


@dataclass
class AnalysisReport:
    data: dict

    @property
    def verdicts(self) -> dict:
        return self.data["verdicts"]

    @property
    def overall(self) -> str:
        return self.data["overall"]

    @property
    def exit_code(self) -> int:
        return 1 if self.overall == FAIL else 0

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2) + "\n"

    def to_text(self) -> str:
        d = self.data
        lines = [
            f"group {d['group']['source']}  order={d['group']['order']}  "
            f"degree={d['group']['degree']}  p={d['prime']}",
            f"sylow order={d['sylow']['order']} count={d['sylow']['count']}",
            f"intersection poset: {d['poset']['member_count']} members, "
            f"{d['poset']['class_count']} classes, chain length "
            f"{d['poset']['chain_length']}, centric members "
            f"{d['poset']['centric_member_count']}",
        ]
        for section in ("categories", "homology"):
            if section in d and d[section]:
                lines.append(f"[{section}]")
                for name, info in d[section].items():
                    lines.append(f"  {name}: {json.dumps(info)}")
        lines.append("[verdicts]")
        for key, value in d["verdicts"].items():
            lines.append(f"  {key}: {value}")
        lines.append(f"overall: {d['overall']}")
        return "\n".join(lines) + "\n"


def finalize_overall(verdicts: dict) -> str:
    values = verdicts.values()
    if FAIL in values:
        return FAIL
    if all(v == PASS for v in values):
        return PASS
    return NOT_CERTIFIED


def emit_report(report: AnalysisReport, fmt: str = "json") -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "text":
        return report.to_text()
    raise ValueError(f"unknown report format {fmt!r}")
