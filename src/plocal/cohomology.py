"""Classifying-space cohomology H^i(B P; F_p) with explicit cocycle bases.

Cohomology is computed from normalized bar cochains of the subgroup, with a
deterministic echelon-form basis of cocycles modulo coboundaries.  The bar
coboundary C^n -> C^{n+1} is the nerve boundary from degree n+1 to n of the
one-object category on P, whose tokens follow ``P.ids``; so cochains are
indexed by tuples of non-identity elements in lexicographic order, and a
pullback finds each image tuple's index by the ``chains`` index walk.
Induced maps along orbit-category morphisms are pullbacks by conjugation by
the morphism's witness, mapped on token arrays and reduced to the chosen
bases, so the resulting functor matrices are reproducible.  The
functors built here are not validated on construction: ``limits_profile``
checks each one exhaustively before it computes its limits.
"""

from __future__ import annotations

import numpy as np

from .categories import FiniteCategory, group_category
from .chains import Chains, nerve_boundary
from .errors import DEFAULT_BUDGET, BudgetExceeded, PLocalError
from .fplinalg import EchelonCoords, nullspace_dense
from .groups import PermutationGroup, Subgroup, _conj
from .limits import LinearFunctor


class CohomologyBasis:
    """H^i(B P; F_p) for a subgroup P, with cocycle representatives and
    deterministic coordinates in the quotient by coboundaries."""

    def __init__(self, G: PermutationGroup, P: Subgroup, i: int, p: int,
                 budget: int = DEFAULT_BUDGET):
        self.G = G
        self.P = P
        self.i = i
        self.p = p
        nonid = len(P.ids) - 1
        if nonid ** (i + 1) > budget:
            raise BudgetExceeded(i + 1, nonid ** (i + 1), budget)

        self.category = group_category(G, P)
        # each element's token: k for P.ids[k], -1 outside P
        self.token_of = np.full(G.order, -1, dtype=np.int64)
        self.token_of[self.category.witness] = np.arange(P.order)
        self.chains = Chains(self.category, i + 1)
        ambient = self.chains.dims[i]
        if ambient == 0:
            self.dim = 0
            self.reps: list[np.ndarray] = []
            self._ech = None
            return

        cocycles = nullspace_dense(nerve_boundary(self.chains, i + 1, p).csr.toarray(), p)
        ech = EchelonCoords(ambient, p)
        if i >= 1:
            D_prev = nerve_boundary(self.chains, i, p).csr.toarray()
            for j in range(D_prev.shape[1]):
                ech.add_silent(D_prev[:, j])
        reps = []
        for vec in cocycles:
            if ech.add_tracked(vec):
                reps.append(vec % p)
        self.reps = reps
        self.dim = len(reps)
        self._ech = ech

    def coords(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of a cocycle's class in the chosen basis of H^i."""
        if self._ech is None:
            return np.zeros(0, dtype=np.int64)
        return self._ech.coords(vec)

    def pullback_matrix(self, other: "CohomologyBasis", g: int) -> np.ndarray:
        """Matrix of the map H^i(B other) -> H^i(B self) induced by the
        conjugation x -> x^g, which must map self.P into other.P."""
        M = np.zeros((self.dim, other.dim), dtype=np.int64)
        if self.dim == 0 or other.dim == 0:
            return M
        image = other.token_of[_conj(self.G, self.category.witness, g)]
        if (image < 0).any():
            raise PLocalError(f"conjugation by {g} maps {self.P.label()} outside {other.P.label()}")
        rows = self.chains.tokens[self.i]
        at = other.chains.find(np.zeros(len(rows), dtype=np.int64), image[rows])
        for j, rep in enumerate(other.reps):
            M[:, j] = self.coords(rep[at] % self.p)
        return M


class CohomologyCache:
    """Shared per-run cache of CohomologyBasis objects keyed by (subgroup, i),
    the run's store of limit profiles (``limits_profile``'s ``memo``), and
    the normalizer quotients of the limit checks, keyed by the ids of the
    subgroup divided out (see ``limit_checks.normalizer_reduction_check``)."""

    def __init__(self, G: PermutationGroup, p: int, budget: int = DEFAULT_BUDGET):
        self.G = G
        self.p = p
        self.budget = budget
        self._store: dict[tuple[tuple[int, ...], int], CohomologyBasis] = {}
        self.limits: dict = {}
        self.quotients: dict = {}

    def basis(self, P: Subgroup, i: int) -> CohomologyBasis:
        key = (P.ids, i)
        if key not in self._store:
            self._store[key] = CohomologyBasis(self.G, P, i, self.p, self.budget)
        return self._store[key]


def classifying_cohomology_functor(
    G: PermutationGroup,
    p: int,
    cat: FiniteCategory,
    i: int,
    cache: CohomologyCache | None = None,
) -> LinearFunctor:
    """The functor P |-> H^i(B P; F_p) on an orbit category, with morphism
    action induced by conjugation by the canonical witness: the supported
    functor with every object in its support."""
    everywhere = list(range(cat.object_count))
    return supported_cohomology_functor(G, p, cat, everywhere, i, cache)


def supported_cohomology_functor(
    G: PermutationGroup,
    p: int,
    cat: FiniteCategory,
    support: list[int],
    i: int,
    cache: CohomologyCache | None = None,
) -> LinearFunctor:
    """The punctured variant: H^i(B P; F_p) on the listed objects, zero
    elsewhere, with zero maps off the support."""
    cache = cache or CohomologyCache(G, p)
    supp = set(support)
    bases = {k: cache.basis(cat.objects[k], i) for k in supp}
    dims = [bases[k].dim if k in supp else 0 for k in range(cat.object_count)]
    live = np.isin(cat.src, support) & np.isin(cat.tgt, support)
    tokens = zip(cat.src[live].tolist(), cat.tgt[live].tolist(), cat.witness[live].tolist())
    blocks = [bases[a].pullback_matrix(bases[b], g).ravel() for a, b, g in tokens]
    return LinearFunctor(cat, p, dims, np.concatenate([np.zeros(0, np.int64), *blocks]))


def zeroed_at(F: LinearFunctor, kill: list[int]) -> LinearFunctor:
    """Replace the value at the listed objects by zero (and adapt all maps)."""
    dead = set(kill)
    dims = [0 if k in dead else d for k, d in enumerate(F.dims)]
    C = F.category
    live = np.flatnonzero(~np.isin(C.src, kill) & ~np.isin(C.tgt, kill))
    return LinearFunctor(C, F.prime, dims, F.blocks(live))
