"""Truncated nerve chain complexes over F_p and exact homology.

The degree-d basis of a category nerve is the set of composable d-tuples of
non-identity morphisms (normalized chains), as integer arrays from
``chains``: head-major, which is lexicographic in the tokens because
``FiniteCategory.set_tokens`` requires them grouped by source.  The
boundary drops the outer morphisms and composes adjacent inner pairs; a
face whose inner composition is an identity is degenerate and dropped.
Faces and the images of induced chain maps are derived degree by degree
from the parent chain's (see ``chains``), with no dict and no search.

Every nerve, a group's bar complex too (the nerve of its one-object
category), is built by ``nerve_complex``, which raises ``BudgetExceeded``
at the first degree over budget before it builds any chain.

An induced chain map is its image rows, as ``chains.chain_images`` yields
them: per degree, each source chain's row in the target, -1 where its image
is degenerate; no matrix of it is built.  ``mapping_cone`` writes its rows
from them, and ``homology_iso_verdict`` takes the functor and builds both.
The map is checked once, by the ∂² check of its mapping cone, which covers
its commutation with the boundaries (see ``mapping_cone``).

Truncation semantics: a complex built to ``dmax`` has its true chain groups
and boundaries in all degrees <= dmax, so homology dimensions are exact for
d <= dmax-1; comparison verdicts through mapping cones are certified for
d <= dmax-2.  Every complex is written over the integers, with its
alternating signs at every p, and only ``FpMatrix`` reduces mod p.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy import sparse

from .categories import FiniteCategory, Functor, _offsets, group_category
from .chains import Chains, chain_counts, chain_images, nerve_boundaries
from .errors import DEFAULT_BUDGET, BudgetExceeded, PLocalError
from .fplinalg import FpMatrix
from .groups import PermutationGroup


class FpComplex:
    """A chain complex of F_p vector spaces, truncated at degree dmax.

    ``boundaries[d]`` (1 <= d <= dmax) is stored row-major: row i holds the
    boundary of the i-th degree-d basis chain in the degree-(d-1) basis.
    ``chains`` holds the nerve's chain arrays; mapping cones and functor
    cochain complexes (``limits``, boundary d+1 the transposed differential
    C^d -> C^{d+1}) carry none.
    Construction raises ``PLocalError`` unless ∂_d ∂_{d-1} = 0 in every
    degree, which ``rank_boundary``'s bound relies on; ``FpMatrix.matmul``
    tests each entry of the integer product of the stored entries mod p.
    So a boundary is checked only through its products with its
    neighbours, and the top one, ∂_dmax, only against the one below it:
    when that one is zero, ∂_dmax goes unchecked.  One case is ∂_2 of a
    one-object nerve (its ∂_1 is zero) built to degree 2, as
    centric-agreement and the i = 1 cohomology bases build it.

    A boundary may reference a block as its tail ``[0 | block]`` (see
    ``fplinalg``).  When ∂_{d-1}'s tail starts at the row ∂_d's tail block
    starts at, the tail rows of ∂_d ∂_{d-1} are ``[0 | block_d block_{d-1}]``,
    so only the leading rows of ∂_d are multiplied, with no copy, and no
    tail is stacked: consecutive tail blocks must be consecutive boundaries
    of a complex that checked its own ∂² (a mapping cone's target).
    """

    def __init__(self, prime: int, dmax: int, dims: list[int],
                 boundaries: list[FpMatrix | None], chains: Chains | None = None):
        for d in range(2, dmax + 1):
            top, below = boundaries[d], boundaries[d - 1]
            head_only = bool(top.tail and below.tail and top.tail[1] == below.csr.shape[0])
            if not top.matmul(below, head_only):
                raise PLocalError(f"boundary squared is nonzero in degree {d}")
        self.prime = prime
        self.dmax = dmax
        self.dims = dims
        self.boundaries = boundaries
        self.chains = chains

    def prefix(self, dmax: int) -> "FpComplex":
        """This complex truncated at dmax <= self.dmax, sharing its chains
        and boundaries, so ranks already computed are not computed again."""
        out = copy.copy(self)
        out.dmax, out.dims, out.boundaries = dmax, self.dims[:dmax + 1], self.boundaries[:dmax + 1]
        return out

    def rank_boundary(self, d: int) -> int:
        """rank ∂_d, eliminated only until it reaches dims[d-1] - rank ∂_{d-1}
        (see ``fplinalg``)."""
        if d < 1 or d > self.dmax:
            return 0
        return self.boundaries[d].rank(self.dims[d - 1] - self.rank_boundary(d - 1))

    def homology(self) -> list[int]:
        """dim H_d(-; F_p) for d = 0..dmax-1 (the top degree dropped)."""
        return [
            self.dims[d] - self.rank_boundary(d) - self.rank_boundary(d + 1)
            for d in range(self.dmax)
        ]


def nerve_complex(C: FiniteCategory, prime: int, dmax: int,
                  budget: int = DEFAULT_BUDGET) -> FpComplex:
    """Normalized chain complex of the nerve of C, through degree dmax."""
    if dmax < 1:
        raise PLocalError("dmax must be at least 1")
    for d, n in enumerate(chain_counts(C, dmax)):
        if n > budget:
            raise BudgetExceeded(d, n, budget)
    chains = Chains(C, dmax)
    return FpComplex(prime, dmax, chains.dims, nerve_boundaries(chains, prime), chains)


def bar_complex(G: PermutationGroup, prime: int, dmax: int,
                budget: int = DEFAULT_BUDGET) -> FpComplex:
    """Normalized bar complex computing H_*(BG; F_p) below dmax: the nerve
    of the one-object category with morphism set G, like any other nerve."""
    return nerve_complex(group_category(G, G.full_subgroup(), budget), prime, dmax, budget)


def induced_chain_map(F: Functor, source_cx: FpComplex, target_cx: FpComplex) -> list[np.ndarray]:
    """The chain map of F as its image rows: for each degree d through the
    lower of the two tops, the row in the target of each source chain's
    image, or -1 where the image is degenerate and the chain goes to 0.
    Its commutation with the boundaries is checked by its mapping cone."""
    return list(chain_images(source_cx.chains, target_cx.chains,
                             np.asarray(F.object_map, dtype=np.int64),
                             np.asarray(F.morphism_map, dtype=np.int64),
                             min(source_cx.dmax, target_cx.dmax)))


def mapping_cone(A: FpComplex, B: FpComplex, images: list[np.ndarray]) -> FpComplex:
    """Algebraic mapping cone of the chain map f: A -> B with these image
    rows: cone_d = A_{d-1} (+) B_d with boundary (a, b) -> (-dA a, f(a) + dB b).

    Each cone boundary stores only its source rows ``[-dA_{d-1} | f_{d-1}]``,
    each row dA's entries negated and then a single 1 at its image's column
    where the image is live, and references the target's boundary dB_d as
    its tail ``[0 | dB_d]``, which is never copied.  Ranking it after B's
    own homology seeds from what dB_d keeps, its echelon or at p = 2 its
    annihilator, so that only the A rows are inserted (see ``fplinalg``).

    The cone's ∂² check is the chain map's commutation check: the rows
    ``[-dA_{d-1} | f_{d-1}]`` times the cone's ∂_{d-1} are
    ``[dA_{d-1} dA_{d-2} | f_{d-1} dB_{d-1} - dA_{d-1} f_{d-2}]``, so
    building the cone raises ``PLocalError`` unless
    f_{d-1} dB_{d-1} = dA_{d-1} f_{d-2} for 2 <= d <= D, which for D >= 2
    takes in every degree of f that a cone boundary reads.  When A and B
    share their top degree, f's top degree is read by no cone boundary and
    is not checked."""
    D = min(A.dmax + 1, B.dmax)
    p = A.prime
    dims = [(A.dims[d - 1] if d >= 1 else 0) + B.dims[d] for d in range(D + 1)]
    boundaries: list[FpMatrix | None] = [None] * (D + 1)
    for d in range(1, D + 1):
        cols, left_cols = images[d - 1], A.dims[d - 2] if d >= 2 else 0
        live = cols >= 0
        dA = A.boundaries[d - 1].csr if d >= 2 else sparse.csr_matrix((len(cols), 0), dtype=np.int64)
        ends = dA.indptr[1:][live]  # each live row's 1 goes after its dA entries
        indices = np.insert(dA.indices, ends, cols[live] + left_cols)
        head = sparse.csr_matrix((np.insert(-dA.data, ends, 1), indices, dA.indptr + _offsets(live)),
                                 shape=(len(cols), left_cols + B.dims[d - 1]))
        boundaries[d] = FpMatrix(head, p, tail=(B.boundaries[d], left_cols))
    return FpComplex(p, D, dims, boundaries)


def homology_iso_verdict(F: Functor, A: FpComplex, B: FpComplex) -> tuple[bool, dict]:
    """Whether F induces an iso from the homology of the nerve complex A to
    that of B: iso in degree d is certified by vanishing cone homology in
    degrees d and d+1.  Returns whether every degree through
    ``certified_through`` is iso, and the report's record of the degrees
    certified and the verdict in each."""
    cone = mapping_cone(A, B, induced_chain_map(F, A, B))
    cone_h = cone.homology()  # exact for d <= cone.dmax - 1
    certified = cone.dmax - 2
    iso = [
        cone_h[d] == 0 and cone_h[d + 1] == 0
        for d in range(certified + 1)
    ]
    return certified >= 0 and all(iso), {"certified_through": certified, "iso": iso}
