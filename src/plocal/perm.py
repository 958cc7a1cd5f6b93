"""Permutations of {0, ..., degree-1} with left-to-right composition.

The product ``a * b`` means "apply a, then b", so ``(a * b)(i) == b(a(i))``.
All higher layers (conjugation, transporter sets, category composition)
inherit this one convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidPermutation


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection of {0, ..., degree-1}; ``images[i]`` is the image of point i."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0 or sorted(self.images) != list(range(n)):
            raise InvalidPermutation(f"images {self.images!r} are not a bijection")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise InvalidPermutation(
                f"degree mismatch: {self.degree} != {other.degree}"
            )
        a, b = self.images, other.images
        return Permutation(tuple(b[a[i]] for i in range(len(a))))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its minimal point, sorted."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))

    def cycle_string(self) -> str:
        """1-based disjoint-cycle notation; the identity prints as ``()``."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join(
            "(" + " ".join(str(pt + 1) for pt in cyc) + ")" for cyc in cycs
        )

    def __str__(self) -> str:
        return self.cycle_string()
