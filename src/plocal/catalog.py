"""Built-in group catalog and group-spec parsing.

Spec strings name a catalog entry with parameters (``sym:4``, ``dih:12``,
``cyc:6``, ``alt:5``), a direct product of entries (``sym:3 x cyc:3``), or an
explicit generator list in cycle notation
(``gens:(1 2 3)(4 5),(1 2);deg=5``).  ``build_group`` parses a spec; every
entry hands its generators straight to ``PermutationGroup``, which
enumerates the group.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .groups import DEFAULT_ORDER_BOUND, PermutationGroup, direct_product
from .perm import Permutation


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse cycle notation, composing cycles left to right.

    ``"(1 2)(2 3)"`` is the permutation 1 -> 3, 3 -> 2, 2 -> 1; ``"()"`` is
    the identity.  Points are 1-based in text.  With ``degree`` given, points
    beyond it raise OutOfRangePoint; otherwise the degree is the largest
    point mentioned.
    """
    from .errors import OutOfRangePoint

    cycles: list[list[int]] = []
    pos = 0
    n = len(text)
    maxpt = 0
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise ParseError(f"expected '(' but found {ch!r}", pos)
        end = text.find(")", pos)
        if end < 0:
            raise ParseError("unclosed cycle", pos)
        body = text[pos + 1:end].replace(",", " ").split()
        pts = []
        for tok in body:
            if not tok.isdigit():
                raise ParseError(f"bad point {tok!r}", pos)
            pt = int(tok)
            if pt < 1:
                raise ParseError(f"points are 1-based, got {pt}", pos)
            if degree is not None and pt > degree:
                raise OutOfRangePoint(
                    f"point {pt} exceeds the stated degree {degree}"
                )
            pts.append(pt)
        if len(set(pts)) != len(pts):
            raise ParseError("repeated point inside a cycle", pos)
        maxpt = max(maxpt, *pts) if pts else maxpt
        cycles.append(pts)
        pos = end + 1
    deg = degree if degree is not None else max(maxpt, 1)
    result = Permutation.identity(deg)
    for pts in cycles:
        images = list(range(deg))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b - 1
        result = result * Permutation(tuple(images))
    return result


def cyclic_group(n: int, order_bound: int = DEFAULT_ORDER_BOUND) -> PermutationGroup:
    if n < 1:
        raise ParseError("cyclic order must be >= 1", 0)
    if n == 1:
        return PermutationGroup(1, [], order_bound)
    gen = Permutation(tuple((i + 1) % n for i in range(n)))
    return PermutationGroup(n, [gen], order_bound)


def dihedral_group(order: int, order_bound: int = DEFAULT_ORDER_BOUND) -> PermutationGroup:
    """The dihedral group of the given (even) order."""
    if order < 2 or order % 2:
        raise ParseError("dihedral order must be even and >= 2", 0)
    n = order // 2
    if n == 1:
        return PermutationGroup(2, [Permutation((1, 0))], order_bound)
    if n == 2:
        gens = [Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2))]
        return PermutationGroup(4, gens, order_bound)
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    ref = Permutation(tuple((n - i) % n for i in range(n)))
    return PermutationGroup(n, [rot, ref], order_bound)


def symmetric_group(n: int, order_bound: int = DEFAULT_ORDER_BOUND) -> PermutationGroup:
    if n < 1:
        raise ParseError("symmetric degree must be >= 1", 0)
    if n == 1:
        return PermutationGroup(1, [], order_bound)
    gens = [Permutation(tuple((i + 1) % n for i in range(n)))]
    if n > 2:
        swap = list(range(n))
        swap[0], swap[1] = 1, 0
        gens.append(Permutation(tuple(swap)))
    return PermutationGroup(n, gens, order_bound)


def alternating_group(n: int, order_bound: int = DEFAULT_ORDER_BOUND) -> PermutationGroup:
    if n < 3:
        return PermutationGroup(max(n, 1), [], order_bound)
    three = list(range(n))
    three[0], three[1], three[2] = 1, 2, 0
    gens = [Permutation(tuple(three))]
    if n > 3:
        if n % 2:
            cyc = Permutation(tuple((i + 1) % n for i in range(n)))
        else:
            images = [0] + [1 + ((i + 1) % (n - 1)) for i in range(n - 1)]
            cyc = Permutation(tuple(images))
        gens.append(cyc)
    return PermutationGroup(n, gens, order_bound)


_CATALOG = {
    "cyc": (cyclic_group, "cyc:n -- cyclic group of order n"),
    "dih": (dihedral_group, "dih:n -- dihedral group of order n (n even)"),
    "sym": (symmetric_group, "sym:n -- symmetric group on n points (n <= 6)"),
    "alt": (alternating_group, "alt:n -- alternating group on n points (n <= 6)"),
}

_LIMITS = {"sym": 6, "alt": 6}


def catalog_entries() -> list[str]:
    return [desc for _, desc in _CATALOG.values()] + [
        "a x b -- direct product of catalog entries",
        "gens:<cycles>,<cycles>[;deg=k] -- explicit generators in cycle notation",
    ]


def _build_atom(text: str, order_bound: int) -> PermutationGroup:
    m = re.fullmatch(r"([a-z]+):(\d+)", text.strip())
    if not m:
        raise ParseError(f"unrecognized group spec {text!r}", 0)
    name, arg = m.group(1), int(m.group(2))
    if name not in _CATALOG:
        raise ParseError(f"unknown catalog entry {name!r}", 0)
    if name in _LIMITS and arg > _LIMITS[name]:
        raise ParseError(f"{name}:{arg} exceeds the catalog limit {name}:{_LIMITS[name]}", 0)
    return _CATALOG[name][0](arg, order_bound)


def build_group(spec: str, order_bound: int = DEFAULT_ORDER_BOUND) -> PermutationGroup:
    """Build a permutation group from a spec string."""
    text = spec.strip()
    if text.startswith("gens:"):
        rest = text[len("gens:"):]
        deg = None
        if ";" in rest:
            rest, opt = rest.split(";", 1)
            m = re.fullmatch(r"\s*deg\s*=\s*(\d+)\s*", opt)
            if not m:
                raise ParseError(f"bad option {opt!r}", 0)
            deg = int(m.group(1))
        # a comma separates generators only outside a cycle, where it may separate points
        gen_texts = [t for t in re.split(r",(?![^()]*\))", rest) if t.strip()]
        perms = [parse_cycles(t, degree=deg) for t in gen_texts]
        if deg is None:
            deg = max((p.degree for p in perms), default=1)
            perms = [parse_cycles(t, degree=deg) for t in gen_texts]
        return PermutationGroup(deg, perms, order_bound)
    parts = [t for t in re.split(r"\s*x\s*", text) if t]
    if not parts:
        raise ParseError("empty group spec", 0)
    G = _build_atom(parts[0], order_bound)
    for part in parts[1:]:
        G = direct_product(G, _build_atom(part, order_bound), order_bound)
    return G
