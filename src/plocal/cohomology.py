"""Classifying-space cohomology H^i(B P; F_p) with explicit cocycle bases.

Cohomology is computed from normalized bar cochains of the subgroup: the
basis of H^i is the first cocycles of ``nullspace_dense``'s basis that are
independent modulo coboundaries, all chosen in one ``EchelonCoords`` call.
The bar coboundary C^n -> C^{n+1} is ∂_{n+1} of the one-object category on
P, whose tokens follow ``P.ids``, built and checked by ``nerve_complex``
like every nerve; so cochains are indexed by tuples of non-identity
elements in lexicographic order, and a pullback finds each image tuple's
index from its parent's image (``chains.chain_images``).
Induced maps along orbit-category morphisms are pullbacks by conjugation by
the morphism's witness, mapped on token arrays and reduced to the chosen
bases, every representative in one product, so the resulting functor
matrices are reproducible.  The functors built here are not validated on
construction: ``limits_profile`` checks each one exhaustively before it
computes its limits.
"""

from __future__ import annotations

import numpy as np

from .categories import FiniteCategory, group_category
from .chains import NOT_A_CHAIN, chain_images
from .errors import DEFAULT_BUDGET, PLocalError
from .fplinalg import EchelonCoords, nullspace_dense
from .groups import PermutationGroup, Subgroup, _conj
from .homology import nerve_complex
from .limits import LinearFunctor


class CohomologyBasis:
    """H^i(B P; F_p) for a subgroup P, with cocycle representatives and
    deterministic coordinates in the quotient by coboundaries."""

    def __init__(self, P: Subgroup, i: int, p: int, budget: int = DEFAULT_BUDGET):
        self.G = G = P.parent
        self.P = P
        self.i = i
        self.category = group_category(G, P, budget)
        # each element's token: k for P.ids[k], -1 outside P
        self.token_of = np.full(G.order, -1, dtype=np.int64)
        self.token_of[self.category.witness] = np.arange(P.order)
        cx = nerve_complex(self.category, p, i + 1, budget)
        self.chains = cx.chains
        ech = EchelonCoords(cx.dims[i], p)
        if i >= 1:
            ech.add_silent(cx.boundaries[i].csr.toarray().T)
        cocycles = nullspace_dense(cx.boundaries[i + 1].csr, p)
        self.reps = cocycles[ech.add_tracked(cocycles)]
        self.dim = len(self.reps)
        self._ech = ech

    def coords(self, vecs: np.ndarray) -> np.ndarray:
        """Coordinates of cocycles' classes in the chosen basis of H^i: the
        cocycles go in as rows, and one column per cocycle comes out."""
        return self._ech.coords(vecs)

    def pullback_matrix(self, other: "CohomologyBasis", g: int) -> np.ndarray:
        """Matrix of the map H^i(B other) -> H^i(B self) induced by the
        conjugation x -> x^g, which must map self.P into other.P."""
        if self.dim == 0 or other.dim == 0:
            return np.zeros((self.dim, other.dim), dtype=np.int64)
        image = other.token_of[_conj(self.G, self.category.witness, g)]
        if (image < 0).any():
            raise PLocalError(f"conjugation by {g} maps {self.P.label()} outside {other.P.label()}")
        *_, at = chain_images(self.chains, other.chains, np.zeros(1, dtype=np.int64), image, self.i)
        if (at < 0).any():
            raise PLocalError(NOT_A_CHAIN)
        return self.coords(other.reps[:, at])


class CohomologyCache:
    """The one source of a run's group, prime and budget for the cohomology
    functors and the limit checks, and the stores they share: CohomologyBasis
    objects keyed by (subgroup, i) and their pullback matrices keyed by
    (P, Q, i, g), the run's limit profiles (``limits_profile``'s ``memo``),
    and the normalizer quotients of the limit checks, keyed by the ids of the
    subgroup divided out (see ``limit_checks.normalizer_reduction_check``)."""

    def __init__(self, G: PermutationGroup, p: int, budget: int = DEFAULT_BUDGET):
        self.G = G
        self.p = p
        self.budget = budget
        self._store: dict[tuple[tuple[int, ...], int], CohomologyBasis] = {}
        self._pullbacks: dict[tuple, np.ndarray] = {}
        self.limits: dict = {}
        self.quotients: dict = {}

    def basis(self, P: Subgroup, i: int) -> CohomologyBasis:
        key = (P.ids, i)
        if key not in self._store:
            self._store[key] = CohomologyBasis(P, i, self.p, self.budget)
        return self._store[key]

    def pullback(self, P: Subgroup, Q: Subgroup, i: int, g: int) -> np.ndarray:
        """``basis(P, i).pullback_matrix(basis(Q, i), g)``, computed once per
        key and kept read-only, since every caller shares it."""
        key = (P.ids, Q.ids, i, g)
        M = self._pullbacks.get(key)
        if M is None:
            M = self.basis(P, i).pullback_matrix(self.basis(Q, i), g)
            M.flags.writeable = False
            self._pullbacks[key] = M
        return M


def classifying_cohomology_functor(
    cat: FiniteCategory,
    i: int,
    cache: CohomologyCache,
) -> LinearFunctor:
    """The functor P |-> H^i(B P; F_p) on an orbit category, p the cache's,
    with morphism action induced by conjugation by the canonical witness:
    the supported functor with every object in its support."""
    everywhere = list(range(cat.object_count))
    return supported_cohomology_functor(cat, everywhere, i, cache)


def supported_cohomology_functor(
    cat: FiniteCategory,
    support: list[int],
    i: int,
    cache: CohomologyCache,
) -> LinearFunctor:
    """The punctured variant: H^i(B P; F_p) on the listed objects, zero
    elsewhere, with zero maps off the support."""
    supp = set(support)
    objs = cat.objects
    dims = [cache.basis(P, i).dim if k in supp else 0 for k, P in enumerate(objs)]
    live = np.isin(cat.src, support) & np.isin(cat.tgt, support)
    tokens = zip(cat.src[live].tolist(), cat.tgt[live].tolist(), cat.witness[live].tolist())
    blocks = [cache.pullback(objs[a], objs[b], i, g).ravel() for a, b, g in tokens]
    return LinearFunctor(cat, cache.p, dims, np.concatenate([np.zeros(0, np.int64), *blocks]))


def zeroed_at(F: LinearFunctor, kill: list[int]) -> LinearFunctor:
    """Replace the value at the listed objects by zero (and adapt all maps)."""
    dead = set(kill)
    dims = [0 if k in dead else d for k, d in enumerate(F.dims)]
    C = F.category
    live = np.flatnonzero(~np.isin(C.src, kill) & ~np.isin(C.tgt, kill))
    return LinearFunctor(C, F.prime, dims, F.blocks(live))
