"""Finite categories with explicit composition tables.

The three categories attached to a group G and a collection of p-subgroups
differ only in which coset of G a transporter element stands for.  Each
records, per object, one subgroup acting on witnesses from the left and one
acting from the right, and a morphism P_i -> P_j with witness g stands for
the coset left[i]·g·right[j]:

* transporter: both sides trivial, so Mor(P, Q) = N_G(P, Q);
* linking: K(P) = O^p(C_G(P)) on the left, Mor(P, Q) = K(P)\\N_G(P, Q);
* orbit: Q on the right, Mor(P, Q) = N_G(P, Q)/Q.

One rule, ``FiniteCategory.canonicals``, picks each coset's least element as
its witness; the composite of g: P -> Q followed by h: Q -> R is the coset
of the product g h.  The least elements are read, never searched for: the
group keeps one table min(L·x·R), x in G, per pair of sides (L, R)
(``groups.coset_minima``), and a category stacks the tables of its objects'
sides, so a coset's witness is one gather ``tables[at[i, j], g]``.  So all
composition tables are total on composable pairs and reproducible, and
``verify_category`` checks every such category against the same rule.
``group_category``, the one-object category of a subgroup, and
``coset_category``, the inclusion poset of the conjugates of a collection
(the skeleton of its coset category), are built the same way with both
sides trivial.

Tokens: a category keeps its morphisms only as int arrays, one entry per
token: ``src``, ``tgt`` and ``witness`` (the coset's least element), set
once, whole, by ``set_tokens`` together with each object's identity token.
Tokens are numbered in strictly increasing (source, target, witness)
order, which every builder emits and ``set_tokens`` enforces.  So the
tokens leaving object o are the block ``first[o] <= t < first[o + 1]``, and
``mor`` reads Mor(i, j) from that block.  ``tokens_of`` finds tokens by
witness with one gather from a dense table, a row of |G| tokens per object
pair with tokens, built on the first lookup: a category whose store
overruns the budget never builds it.  A witness outside [0, |G|) finds no
token.  ``full_subcategory`` keeps its tokens in the same order.

Composition: the composable pairs (t1, t2) are t1 followed by a token of
the block of t1's target; each has one slot in the int array
``composite``, at ``pair_start[t1] + (t2 - first[src[t2]])``, which puts
the pairs in lexicographic order.  An unfilled slot holds -1.
``fill_composition`` writes this store and ``full_subcategory`` gathers it
from the parent's.  It has one reader of chosen pairs, the elementwise
``composites``, which ``chains``, the functor and quotient checks and
``verify_category`` use; the laws and the functor checks also read the
whole array in slot order.

Laws: ``verify_category`` checks identities and closure on every token and
composable pair, and associativity by Light's test (Clifford–Preston, *The
Algebraic Theory of Semigroups* I, §1.2).  The middle nucleus, the tokens b
with (a b) c = a (b c) for all composable a and c, is closed under
composition when the store is closed, by four rewrites each using one
factor.  ``generating_set`` S keeps, in one pass over the store, every
token that is not the stored composite of two tokens with smaller ids; by
strong induction on the id, S generates every token.  So only the triples
with middle in S are checked, unless identities or closure fail: then
every composable triple is.  They are checked one source object s of the
middle at a time, as blocks of the tokens a into s by the pairs (b, c)
whose middle b leaves s.  The composable pairs are expanded once per
check.  The coset rule is checked by table lookups, over the middle
object's sides only where the composite lies in its morphism set
(``_verify_coset_well_definedness``).  A verdict, of the laws, the
quotient functor or the adjunction, is its failure list: it passes when
the list is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetExceeded, NotCentric, PLocalError
from .groups import (PermutationGroup, Subgroup, centralizer, conjugacy_classes, coset_minima,
                     p_residual, transporters)
from .omega import IntersectionPoset, closure_in_poset, is_centric


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of ``counts``, with the total appended."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks of the given sizes laid end to end: each slot's block, its
    position in the block, and the block offsets."""
    offs = _offsets(counts)
    block = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return block, np.arange(offs[-1], dtype=np.int64) - offs[block], offs


def _flat(id_sets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The id sets laid end to end, each one's offset into them and each
    one's size."""
    sizes = np.array([len(s) for s in id_sets], dtype=np.int64)
    ids = np.array([x for s in id_sets for x in s], dtype=np.intp)
    return ids, _offsets(sizes)[:-1], sizes


def _distinct(subgroups) -> tuple[list[Subgroup], np.ndarray]:
    """The distinct subgroups in first-seen order, and each entry's place
    among them."""
    place: dict = {}
    for H in subgroups:
        place.setdefault(H.ids, (len(place), H))
    places = np.array([place[H.ids][0] for H in subgroups], dtype=np.int64)
    return [H for _, H in place.values()], places


# entries per array operation in the coset-rule check; in the associativity
# check, the composable pairs per block and the triples per block
_BLOCK = 1 << 15


class FiniteCategory:
    """Explicit objects and the token arrays and composition store of the
    module docstring."""

    def __init__(self, kind: str, objects: list, group: PermutationGroup | None = None):
        self.kind = kind
        self.objects = list(objects)
        self.group = group
        # per object, the subgroups acting on witnesses from the left and from
        # the right; None for a category not built from G by the coset rule
        self.left: list[Subgroup] | None = None
        self.right: list[Subgroup] | None = None
        # the tokens and their slot offsets, fixed by ``set_tokens``
        self.src = self.tgt = self.witness = self.identity_ids = None
        self.is_id = self.first = self.pair_start = None
        self.composite: np.ndarray | None = None
        # the least-element tables of the sides, and the token table of
        # ``tokens_of``, each built on first use
        self._at = self._tables = self._rows = self._token_table = None

    # -- construction ----------------------------------------------------

    def set_tokens(self, src, tgt, witness, identity_ids):
        """Fix every token at once, with each object's identity token (-1
        for none).  Tokens must be strictly increasing in (source, target,
        witness): the composition store and ``chains`` rely on tokens
        grouped by source."""
        if self.src is not None:
            raise PLocalError("tokens are fixed once set")
        src, tgt, witness = (np.asarray(a, dtype=np.int64) for a in (src, tgt, witness))
        if (np.diff(src) < 0).any():
            raise PLocalError("tokens must be grouped by source object")
        step, up = np.diff(src * self.object_count + tgt), np.diff(witness)
        if ((step < 0) | ((step == 0) & (up <= 0))).any():
            raise PLocalError("tokens must be distinct and sorted by (source, target, witness)")
        self.src, self.tgt, self.witness = src, tgt, witness
        self.identity_ids = np.asarray(identity_ids, dtype=np.int64)
        self.is_id = self.identity_ids[src] == np.arange(len(src))
        self.first = _offsets(np.bincount(src, minlength=self.object_count))
        self.pair_start = _offsets(np.diff(self.first)[self.tgt])

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The first and second tokens of every composable pair, in slot order."""
        t1, j, _ = _expand(np.diff(self.pair_start))
        return t1, self.first[self.tgt[t1]] + j

    def fill_composition(self, table_budget: int = DEFAULT_BUDGET):
        """Write the store: the composite is the token of the coset of the
        witness product (unfilled if there is none)."""
        if self.pair_start[-1] > table_budget:
            raise BudgetExceeded(None, int(self.pair_start[-1]), table_budget)
        self.composite = self.coset_composites(*self.pairs())

    # -- the coset rule ------------------------------------------------------

    def least_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``at``, an object-count square array, and ``tables``, one row
        min(L·x·R) over x in G per distinct pair of sides (L, R) of the
        objects: row ``at[i, j]`` is the table of (left[i], right[j]).  The
        rows come from the group's ``coset_minima``, stacked on first use."""
        if self._tables is None:
            lefts, li = _distinct(self.left)
            rights, ri = _distinct(self.right)
            self._tables = np.stack([coset_minima(self.group, L, R)
                                     for L in lefts for R in rights])
            self._at = li[:, None] * len(rights) + ri
        return self._at, self._tables

    def canonicals(self, i, j, g) -> np.ndarray:
        """The witness of each coset left[i]·g·right[j], its least element,
        elementwise over broadcast id arrays: one gather from the tables."""
        at, tables = self.least_tables()
        return tables[at[i, j], g]

    def coset_composites(self, t1, t2) -> np.ndarray:
        """The composites of the tokens t1 then t2 by the coset rule,
        elementwise over broadcast composable tokens: the token of the coset
        of the witness product from t1's source to t2's target (-1 where
        there is none)."""
        a, c = self.src[t1], self.tgt[t2]
        product = self.group.mul[self.witness[t1], self.witness[t2]]
        return self.tokens_of(a, c, self.canonicals(a, c, product))

    def tokens_of(self, i, j, w) -> np.ndarray:
        """The tokens from object i to object j witnessed by w, elementwise;
        -1 where there is none or w is no element of G.  One gather from a
        table built on first use: a row of |G| tokens (-1 for none) per
        object pair with tokens, and a last -1 read by every other lookup."""
        n, m = self.group.order, self.object_count
        if self._token_table is None:
            has, row = np.unique(self.src * m + self.tgt, return_inverse=True)
            ok = (self.witness >= 0) & (self.witness < n)
            self._rows = np.full(m * m, -1, dtype=np.int64)
            self._rows[has] = np.arange(len(has))
            self._token_table = np.full(len(has) * n + 1, -1, dtype=np.int32)
            self._token_table[(row * n + self.witness)[ok]] = np.flatnonzero(ok)
        w, row = np.asarray(w), self._rows[np.asarray(i) * m + j]
        at = np.where((row >= 0) & (w >= 0) & (w < n), row * n + w, -1)
        return self._token_table[at].astype(np.int64)

    # -- queries -----------------------------------------------------------

    def mor(self, i: int, j: int) -> list[int]:
        """The tokens from object i to object j, ascending."""
        block = slice(self.first[i], self.first[i + 1])
        return (self.first[i] + np.flatnonzero(self.tgt[block] == j)).tolist()

    def composites(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Composites of the tokens a then b, elementwise; -1 where a pair
        does not compose or its slot is unfilled."""
        ok = self.tgt[a] == self.src[b]
        out = np.full(ok.shape, -1, dtype=np.int64)
        out[ok] = self.composite[(self.pair_start[a] + b - self.first[self.src[b]])[ok]]
        return out

    def table_key(self) -> tuple:
        """All a nerve or a functor's limits read of the category: the object
        count and the src, tgt, identity and composite arrays, whose bytes a
        dict hashes to a slot and compares in full on a hit."""
        arrays = (self.src, self.tgt, self.identity_ids, self.composite)
        return (self.object_count, *(np.asarray(a, dtype=np.int64).tobytes() for a in arrays))

    @property
    def object_count(self) -> int:
        return len(self.objects)

    @property
    def morphism_count(self) -> int:
        return len(self.src)


# -- builders ---------------------------------------------------------------


def _fill_cosets(cat: FiniteCategory) -> FiniteCategory:
    """Add one token per coset left[i]·g·right[j] of the transporter elements
    g from object i to object j, witnessed by its least element, in order of
    (i, j, witness).  Each such coset lies in the transporter set, so its
    least element is one of the listed g: the witnesses are the g that are
    their own coset's least element, already in (pair, g) order."""
    m, n = cat.object_count, cat.group.order
    pair, g = np.divmod(np.flatnonzero(transporters(cat.group, cat.objects, cat.objects)), n)
    least = np.flatnonzero(cat.canonicals(pair // m, pair % m, g) == g)
    src, tgt = np.divmod(pair[least], m)
    witness = g[least]
    ident = np.full(m, -1, dtype=np.int64)
    at = np.flatnonzero((src == tgt) & (witness == 0))
    ident[src[at]] = at
    cat.set_tokens(src, tgt, witness, ident)
    return cat


def build_transporter(G: PermutationGroup, collection,
                      table_budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """The transporter category: Mor(P, Q) = N_G(P, Q), one token per element."""
    cat = FiniteCategory("transporter", list(collection), G)
    cat.left = cat.right = [G.trivial_subgroup()] * cat.object_count
    _fill_cosets(cat).fill_composition(table_budget)
    return cat


def build_linking(G: PermutationGroup, p: int, centric_collection,
                  table_budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """The linking category on p-centric objects: Mor(P, Q) = K(P)\\N_G(P, Q)
    with K(P) = O^p(C_G(P)) acting on the left."""
    objs = list(centric_collection)
    for P in objs:
        if not is_centric(G, p, P):
            raise NotCentric(f"{P.label()} is not {p}-centric")
    cat = FiniteCategory("linking", objs, G)
    cat.left = [p_residual(centralizer(G, P), p) for P in objs]
    cat.right = [G.trivial_subgroup()] * len(objs)
    _fill_cosets(cat).fill_composition(table_budget)
    return cat


def build_orbit(G: PermutationGroup, collection,
                table_budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """The orbit category: Mor(P, Q) = N_G(P, Q)/Q, with Q acting on the
    right."""
    cat = FiniteCategory("orbit", list(collection), G)
    cat.left = [G.trivial_subgroup()] * cat.object_count
    cat.right = cat.objects
    _fill_cosets(cat).fill_composition(table_budget)
    return cat


def group_category(G: PermutationGroup, P: Subgroup,
                   table_budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """The one-object category with morphism set P, composed by G's product;
    token k is the element ``P.ids[k]``: its nerve is P's bar construction."""
    cat = FiniteCategory("group", [P], G)
    cat.left = cat.right = [G.trivial_subgroup()]
    cat.set_tokens([0] * P.order, [0] * P.order, P.ids, [0])
    cat.fill_composition(table_budget)
    return cat


def coset_category(G: PermutationGroup, collection,
                   table_budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """The coset category of the collection, built as its skeleton.

    The coset category has an object Pg per coset of a member P and one
    morphism Pg -> Qh when P^g <= Q^h.  It is thin, and Pg and Qh are
    isomorphic exactly when P^g = Q^h, so its skeleton is the inclusion
    poset of the distinct conjugates P^g, sorted by ``Subgroup.key``, with
    one token of witness 0 per inclusion.  Equivalent categories have
    homotopy-equivalent nerves (Quillen, "Higher algebraic K-theory I",
    1973, §1), so this nerve has the homology of the full one, which has
    |N_G(P) : P| objects per conjugate P^g.

    When the collection contains a common normal subgroup (the intersection
    of all Sylow subgroups, say), it is the least object and the nerve is
    contractible.
    """
    objs = sorted((H for orbit in conjugacy_classes(G, collection) for H in orbit),
                  key=lambda H: H.key)
    cat = FiniteCategory("coset", objs, G)
    cat.left = cat.right = [G.trivial_subgroup()] * cat.object_count
    src, tgt = np.nonzero(np.array([[a <= b for b in objs] for a in objs], dtype=bool))
    cat.set_tokens(src, tgt, np.zeros(len(src)), np.flatnonzero(src == tgt))
    cat.fill_composition(table_budget)
    return cat


# -- functors ---------------------------------------------------------------


@dataclass
class Functor:
    source: FiniteCategory
    target: FiniteCategory
    object_map: list[int]
    morphism_map: list[int]     # source token id -> target token id

    def violations(self) -> list[str]:
        S, T = self.source, self.target
        fmap = np.asarray(self.morphism_map, dtype=np.int64)
        omap = np.asarray(self.object_map, dtype=np.int64)
        lost = fmap[S.identity_ids] != T.identity_ids[omap]
        out = [f"identity at object {i} not preserved" for i in np.flatnonzero(lost).tolist()]
        t1, t2 = S.pairs()
        t3 = S.composite
        bad = (t3 < 0) | (T.composites(fmap[t1], fmap[t2]) != fmap[np.maximum(t3, 0)])
        for k in np.flatnonzero(bad).tolist():
            out.append(f"composition of tokens ({t1[k]},{t2[k]}) not preserved")
        moved = (T.src[fmap] != omap[S.src]) | (T.tgt[fmap] != omap[S.tgt])
        for tid in np.flatnonzero(moved).tolist():
            out.append(f"token {tid} maps outside its object images")
        return out


def full_subcategory(C: FiniteCategory, keep: list[int]) -> tuple[FiniteCategory, Functor]:
    """Full subcategory on the listed objects, with its inclusion functor."""
    sub = FiniteCategory(C.kind, [C.objects[i] for i in keep], C.group)
    if C.left is not None:
        sub.left = [C.left[i] for i in keep]
        sub.right = [C.right[i] for i in keep]
    new_obj = np.full(C.object_count, -1, dtype=np.int64)
    new_obj[keep] = np.arange(len(keep))
    a, b = new_obj[C.src], new_obj[C.tgt]
    kept = np.flatnonzero((a >= 0) & (b >= 0))
    # in (source, target, witness) order, so a sorted ``keep`` keeps C's numbering
    old = kept[np.lexsort((C.witness[kept], b[kept], a[kept]))]
    # C's missing identities and unfilled slots read -1, i.e. the extra last
    # entry, so stay missing and unfilled
    new_of_old = np.full(C.morphism_count + 1, -1, dtype=np.int64)
    new_of_old[old] = np.arange(len(old))
    sub.set_tokens(a[old], b[old], C.witness[old], new_of_old[C.identity_ids[keep]])
    t1, t2 = sub.pairs()
    sub.composite = new_of_old[C.composites(old[t1], old[t2])]
    return sub, Functor(sub, C, list(keep), old.tolist())


def quotient_projection(T: FiniteCategory, p: int,
                        table_budget: int = DEFAULT_BUDGET) -> Functor:
    """The projection from a transporter category on centric objects to the
    linking category: identity on objects, witness g -> K(P) g."""
    L = build_linking(T.group, p, T.objects, table_budget)
    mor_map = L.tokens_of(T.src, T.tgt, L.canonicals(T.src, T.tgt, T.witness))
    if (mor_map < 0).any():
        raise PLocalError("a transporter morphism has no linking image")
    return Functor(T, L, list(range(T.object_count)), mor_map.tolist())


# -- isomorphism classes and skeleta ----------------------------------------


def iso_classes(C: FiniteCategory) -> tuple[list[int], list[list[int]]]:
    """Partition objects by categorical isomorphism: the connected components
    of the pairs f: i -> j, g: j -> i with f g = 1_i and g f = 1_j, numbered
    by their least objects."""
    ident = np.asarray(C.identity_ids, dtype=np.int64)
    f, g = C.pairs()
    back = (C.tgt[g] == C.src[f]) & (C.composite >= 0) & (C.composite == ident[C.src[f]])
    f, g = f[back], g[back]
    f = f[C.composites(g, f) == ident[C.src[g]]]
    a, b = C.src[f], C.tgt[f]
    least = np.arange(C.object_count)  # spread along the pairs until stable
    while (least[a] != least[b]).any():
        low = np.minimum(least[a], least[b])
        np.minimum.at(least, a, low)
        np.minimum.at(least, b, low)
    class_of = np.unique(least, return_inverse=True)[1].tolist()
    classes = [[] for _ in range(max(class_of, default=-1) + 1)]
    for i, c in enumerate(class_of):
        classes[c].append(i)
    return class_of, classes


def skeleton(C: FiniteCategory) -> tuple[FiniteCategory, Functor]:
    """Full subcategory on the least object of each isomorphism class, by
    ``Subgroup.key``, in that order."""
    _, classes = iso_classes(C)
    reps = sorted((min(cls, key=lambda i: C.objects[i].key) for cls in classes),
                  key=lambda i: C.objects[i].key)
    return full_subcategory(C, reps)


# -- law checking -----------------------------------------------------------


@dataclass
class CategoryLawsVerdict:
    triples_checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def generating_set(C: FiniteCategory, pairs=None) -> np.ndarray:
    """The tokens that are not the stored composite of two tokens with
    smaller ids, ascending.  By strong induction on the id, every token is a
    stored composite of tokens of this set, iterated.  ``pairs``: ``C.pairs()``."""
    t1, t2 = C.pairs() if pairs is None else pairs
    comp = C.composite
    made = np.zeros(C.morphism_count + 1, dtype=bool)  # the extra last entry takes the rest
    made[np.where((t1 < comp) & (t2 < comp), comp, -1)] = True
    return np.flatnonzero(~made[:-1])


def _associativity_failures(C: FiniteCategory, middles: np.ndarray, t1: np.ndarray,
                            t2: np.ndarray, inside: np.ndarray) -> tuple[int, list[str]]:
    """Compare (a b) c with a (b c) on every composable triple whose middle
    token b is listed, one source object s at a time: a runs over the tokens
    into s and (b, c) over the composable pairs (t1, t2) whose b leaves s
    and is listed, in blocks of at most ``_BLOCK`` pairs and about
    ``_BLOCK`` triples, so a source with many pairs is cut along both
    axes.  A triple fails unless both inner composites are inside their
    morphism sets and the two outer composites are equal and filled.  The
    number of triples and the failures, in (a, b, c) order."""
    comp, ps, first = C.composite, C.pair_start, C.first
    listed = np.zeros(C.morphism_count, dtype=bool)
    listed[middles] = True
    bc = np.flatnonzero(listed[t1])  # in slot order, so grouped by b's source
    b, c = t1[bc], t2[bc]
    bc_ok = inside[bc]
    # c's place in its block and, where bc is inside, bc's place in the
    # block leaving b's source; elsewhere place 0 of that block stands in
    c_at = c - first[C.src[c]]
    bc_at = np.where(bc_ok, comp[bc] - first[C.src[b]], 0)
    into = np.argsort(C.tgt, kind="stable")  # the tokens into each object, a block each
    into_at = _offsets(np.bincount(C.tgt, minlength=C.object_count))
    cols = np.searchsorted(C.src[b], np.arange(C.object_count + 1))
    rows, cols = into_at.tolist(), cols.tolist()
    triples, bad = int(np.diff(into_at) @ np.diff(cols)), []
    for s in range(C.object_count):
        for lo in range(cols[s], cols[s + 1], _BLOCK):
            k = slice(lo, min(lo + _BLOCK, cols[s + 1]))
            step = max(1, _BLOCK // (k.stop - k.start))
            for r in range(rows[s], rows[s + 1], step):
                a = into[r:min(r + step, rows[s + 1]), None]
                ab_slot = ps[a] + (b[k] - first[s])
                ab_ok = inside[ab_slot]
                ab = np.where(ab_ok, comp[ab_slot], b[k])  # b stands in: it ends at c's source
                lhs = comp[ps[ab] + c_at[k]]
                wrong = (lhs < 0) | (lhs != comp[ps[a] + bc_at[k]]) | ~(ab_ok & bc_ok[k])
                if wrong.any():
                    i, j = np.nonzero(wrong)
                    bad.append(np.stack([a[i, 0], b[k][j], c[k][j]]))
    bad = np.concatenate(bad, axis=1) if bad else np.zeros((3, 0), dtype=np.int64)
    bad = bad[:, np.lexsort(bad[::-1])]
    return triples, [f"associativity fails at ({a},{b},{c})" for a, b, c in bad.T.tolist()]


def verify_category(C: FiniteCategory) -> CategoryLawsVerdict:
    """Check the identity and closure laws as array comparisons over every
    token and composable pair, associativity by Light's test, and the coset
    rule where the category has one.

    Light's test (Clifford–Preston, *The Algebraic Theory of Semigroups* I,
    §1.2): the middle nucleus, the tokens b with (a b) c = a (b c) for all
    composable a and c, is closed under composition once every composite is
    filled and inside its morphism set.  For b1, b2 in it,

        (a (b1 b2)) c = ((a b1) b2) c = (a b1) (b2 c) = a (b1 (b2 c)) = a ((b1 b2) c),

    four rewrites, each by b1 or b2.  ``generating_set`` S is found in one
    pass over the store, and every token is an iterated stored composite of
    S; so when identities and closure hold, the triples with middle in S
    decide associativity.  When either fails, every token is a middle and
    every composable triple is checked, each failure reported.  Token
    offsets that are not those ``set_tokens`` derives fail first, alone:
    every other check reads pairs through them."""
    first = _offsets(np.bincount(C.src, minlength=C.object_count))
    for name, want in (("first", first), ("pair_start", _offsets(np.diff(first)[C.tgt]))):
        if not np.array_equal(getattr(C, name), want):
            return CategoryLawsVerdict(0, [f"{name} differs from the offsets of the token arrays"])
    tok = np.arange(C.morphism_count)
    ident = np.asarray(C.identity_ids, dtype=np.int64)
    failures = [f"object {i} has no identity" for i in np.flatnonzero(ident < 0).tolist()]
    for side, e in (("left", ident[C.src]), ("right", ident[C.tgt])):
        t, e = tok[e >= 0], e[e >= 0]
        got = C.composites(e, t) if side == "left" else C.composites(t, e)
        failures += [f"{side} identity fails at token {x}" for x in t[got != t].tolist()]

    t1, t2 = pairs = C.pairs()
    comp = C.composite
    # a composite outside [0, morphism_count) is no token, and there safe != comp
    safe = np.where((comp >= 0) & (comp < C.morphism_count), comp, 0)
    inside = (safe == comp) & (C.src[safe] == C.src[t1]) & (C.tgt[safe] == C.tgt[t2])
    for k in np.flatnonzero(~inside).tolist():
        where = f"({t1[k]},{t2[k]})"
        failures.append(f"composite {where} is not filled" if comp[k] < 0 else
                        f"composite {where} lands outside Mor({C.src[t1[k]]},{C.tgt[t2[k]]})")

    middles = generating_set(C, pairs) if not failures else tok
    triples, broken = _associativity_failures(C, middles, t1, t2, inside)
    failures += broken
    _verify_coset_well_definedness(C, failures, t1, t2)
    return CategoryLawsVerdict(triples, failures)


def _verify_coset_well_definedness(C: FiniteCategory, failures: list[str],
                                   t1: np.ndarray, t2: np.ndarray) -> None:
    """Append to ``failures`` those of the coset rule, checked by lookups in
    ``least_tables``: each witness is the least element of its coset, and for
    every filled composable pair (t1, t2) every product of representatives
    of their two cosets lies in the composite's coset (a slot unfilled or
    holding no token is left to the closure check).

    Let t1: i -> j have witness a, t2: j -> k witness b, and the composite
    t3 witness c.  The products are x y with x = l a r and y = l' b r' for l
    in L_i = left[i], r in R_j = right[j], l' in L_j and r' in R_k.  An
    element z lies in t3's coset exactly when its table entry there equals
    c's.  When t3 lies in Mor(i, k), its coset L_i c R_k is a union of sets
    L_i z R_k, so

        x y = l (a r l' b) r'  lies in it exactly when  a r l' b  does,

    and the pair takes one lookup per element of R_j L_j, not one per
    product.  Where t3 starts elsewhere than i, l still ranges over L_i, and
    where it ends elsewhere than k, r' over R_k: a composite outside its
    morphism set is judged on every product."""
    if C.left is None:
        return
    at, tables = C.least_tables()
    w, mul = C.witness, C.group.mul
    element = (w >= 0) & (w < C.group.order)  # no lookup reads a witness outside G
    bad = tables[at[C.src, C.tgt], np.where(element, w, 0)] != w
    failures += [f"witness of token {t} is not " + ("the least of its coset" if element[t]
                 else "an element of G") for t in np.flatnonzero(bad).tolist()]
    filled = (C.composite >= 0) & (C.composite < C.morphism_count)
    filled &= element[t1] & element[t2] & element[np.where(filled, C.composite, 0)]
    t1, t2, t3 = t1[filled], t2[filled], C.composite[filled]
    i, j, k, s, e = C.src[t1], C.tgt[t1], C.tgt[t2], C.src[t3], C.tgt[t3]
    row = at[s, e]
    # the factors each pair's products range over: L_i, R_j L_j and R_k, with
    # a side the composite's coset absorbs cut to its first id, the identity
    (lids, lat, ln), (rids, rat, rn) = (_flat([H.ids for H in side]) for side in (C.left, C.right))
    mids, mat, mn = _flat([np.unique(mul[np.ix_(R.ids, L.ids)]) for L, R in zip(C.left, C.right)])
    nl, nm, nr = np.where(s == i, 1, ln[i]), mn[j], np.where(e == k, 1, rn[k])
    count, broken = nl * nm * nr, np.zeros(len(t1), dtype=bool)
    # the pairs with one product count n at a time, in rows of about _BLOCK
    # lookups; with n = 1 every factor but a and b is the identity
    for n in np.flatnonzero(np.bincount(count)).tolist():
        run, pos, step = np.flatnonzero(count == n), np.arange(n), max(1, _BLOCK // n)
        for lo in range(0, len(run), step):
            q = run[lo:lo + step]
            a, b = w[t1[q], None], w[t2[q], None]
            if n > 1:
                lm, r = np.divmod(pos, nr[q, None])
                l, m = np.divmod(lm, nm[q, None])
                a = mul[mul[lids[lat[i[q], None] + l], a], mids[mat[j[q], None] + m]]
                b = mul[b, rids[rat[k[q], None] + r]]
            least = tables[row[q], w[t3[q]]]
            broken[q] = (tables[row[q, None], mul[a, b]] != least[:, None]).any(axis=1)
    failures += [f"representative shift breaks composite ({t1[q]},{t2[q]})"
                 for q in np.flatnonzero(broken).tolist()]


# -- the quotient-functor conditions -----------------------------------------


@dataclass
class QuotientFunctorVerdict:
    kernel_orders: list[int]
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _mismatch(key_a, val_a, key_b, val_b, width: int) -> list[int]:
    """The keys k, ascending, whose sets {v : (k, v) in a} and {v : (k, v)
    in b} differ, for values from -1 to width - 2."""
    x = np.setxor1d(key_a * width + val_a + 1, key_b * width + val_b + 1)
    return np.unique(x // width).tolist()


def _matches(keys: np.ndarray, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pair (q, k) with ``keys[k] == want[q]``."""
    order = np.argsort(keys, kind="stable")
    lo, hi = (np.searchsorted(keys[order], want, side=s) for s in ("left", "right"))
    q, pos, _ = _expand(hi - lo)
    return q, order[lo[q] + pos]


def verify_quotient_functor(psi: Functor, p: int) -> QuotientFunctorVerdict:
    """Check the three conditions under which a surjective quotient of
    categories is transparent to mod-p homology: bijectivity on isomorphism
    classes plus morphism-set surjectivity, kernels of order prime to p, and
    fibers that are exactly right-translates by the kernel.

    Each is an array comparison over the token arrays.  The kernel at i is
    the loops at i mapped onto the identity of ψi; their orders come at
    once, by composing each with itself until it is the identity, which a
    loop of finite order reaches within |Mor(i, i)| steps.  The fiber of f
    must be {s f : s in the kernel} = {g in Mor(i, j) : ψg = ψf}.  An object
    sent to no object of the target fails every condition, with a note."""
    C, D = psi.source, psi.target
    m, n, md, nd = C.object_count, C.morphism_count, D.object_count, D.morphism_count
    fmap = np.asarray(psi.morphism_map, dtype=np.int64)
    fmap = np.where((fmap >= 0) & (fmap < nd), fmap, -1)  # -1: no token of D
    omap = np.asarray(psi.object_map, dtype=np.int64)
    stray = np.flatnonzero((omap < 0) | (omap >= md)).tolist()
    if stray:
        return QuotientFunctorVerdict([], [f"object {i} maps to no object of the target"
                                           for i in stray])

    # the distinct (class, image class) of the objects: one per class, and
    # the images every class of D once
    tgt_class, tgt_classes = iso_classes(D)
    cls, img = np.unique(np.stack([iso_classes(C)[0], np.asarray(tgt_class)[omap]]), axis=1)
    split = int((np.bincount(cls) > 1).sum())
    failures = ["isomorphic objects map to non-isomorphic objects"] * split
    if split or not np.array_equal(np.sort(img), np.arange(len(tgt_classes))):
        failures.append("not bijective on isomorphism classes")

    # (i, j) with the images of Mor(i, j), against the tokens of Mor(ψi, ψj)
    ij = np.arange(m * m)
    q, u = _matches(D.src * md + D.tgt, omap[ij // m] * md + omap[ij % m])
    unhit = _mismatch(C.src * m + C.tgt, fmap, q, u, nd + 1)
    failures += [f"morphism map not surjective on Mor({k // m},{k % m})" for k in unhit]

    kernel = np.flatnonzero((C.src == C.tgt) & (fmap == D.identity_ids[omap[C.src]]))
    at = C.src[kernel]
    one, order, cur = C.identity_ids[at], np.zeros(len(kernel), dtype=np.int64), kernel
    for k in range(1, n + 1):
        order[(order == 0) & (cur == one) & (cur >= 0)] = k
        if order.all():
            break
        cur = np.where(cur >= 0, C.composites(np.maximum(cur, 0), kernel), -1)
    if not order.all():
        raise PLocalError(f"endomorphism token {kernel[order == 0][0]} is not invertible")
    failures += [f"kernel element at object {i} has order divisible by {p}"
                 for i in at[order % p == 0].tolist()]

    # (f, s f) for s in the kernel at f's source, against (f, g) for ψg = ψf
    kat = _offsets(np.bincount(at, minlength=m))
    f, pos, _ = _expand(np.diff(kat)[C.src])
    key = (C.src * m + C.tgt) * (nd + 1) + fmap
    loose = _mismatch(f, C.composites(kernel[kat[C.src[f]] + pos], f), *_matches(key, key), n + 1)
    failures += [f"fiber of token {t} is not a kernel orbit" for t in loose]
    return QuotientFunctorVerdict(np.diff(kat).tolist(), failures)


# -- the closure / inclusion adjunction ---------------------------------------


@dataclass
class AdjunctionVerdict:
    pairs_checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_closure_adjunction(
    poset: IntersectionPoset,
    test_subgroups: list[Subgroup],
    table_budget: int = DEFAULT_BUDGET,
) -> AdjunctionVerdict:
    """Check that closure is left adjoint to inclusion between the orbit
    category on all p-subgroups and the one on intersection-poset members:
    the morphism sets Mor(P, Q) and Mor(P°, Q) coincide for closed Q, and the
    identification commutes with composition on both sides.

    Both are full subcategories of one orbit category O on the test
    subgroups and the members, built as tokens only: each composite read is
    composed by the coset rule, and O keeps no composition store.  Per test
    subgroup P the squares form two families of pairs: each phi: P° -> Q,
    as its token P -> Q, postcomposed with every m: Q -> Q2 between members,
    and precomposed with every u: P' -> P between test subgroups, against
    phi after the closure P'° -> P° of u.  Both families of every P are
    counted before any composite is formed; ``BudgetExceeded`` names the
    first, in test order, whose pairs exceed ``table_budget``.  Otherwise
    the families, in test order, are cut into runs of consecutive families
    with at most ``table_budget`` pairs in all, and each run is composed in
    one pass, its broken squares counted per family.  The failures are
    listed in test order."""
    G, members, tests = poset.group, poset.members, list(test_subgroups)
    n, m = len(tests), len(members)
    O = FiniteCategory("orbit", sorted({H.ids: H for H in tests + members}.values(),
                                       key=lambda H: H.key), G)
    O.left, O.right = [G.trivial_subgroup()] * O.object_count, O.objects
    _fill_cosets(O)
    place = {H.ids: i for i, H in enumerate(O.objects)}
    at = np.array([place[P.ids] for P in tests], dtype=np.int64)
    atc = np.array([place[closure_in_poset(poset, P).ids] for P in tests], dtype=np.int64)
    member, closure_of = np.full((2, O.object_count), -1, dtype=np.int64)
    member[[place[Q.ids] for Q in members]] = np.arange(m)
    closure_of[at] = atc
    w, to_members = O.witness, np.flatnonzero(member[O.tgt] >= 0)

    def ends(side, among, objects):
        """Each (k, t) with t in ``among`` and side[t] == objects[k]."""
        k, i = _matches(side[among], objects)
        return k, among[i]

    (ka, ta), (kb, phi) = (ends(O.src, to_members, x) for x in (at, atc))
    differ = _mismatch(ka * m + member[O.tgt[ta]], w[ta], kb * m + member[O.tgt[phi]], w[phi],
                       G.order + 1)
    failures = [f"morphism sets differ for P={tests[k // m].label()}, Q={members[k % m].label()}"
                for k in differ]

    # phi: P° -> Q as its token P -> Q, and u: P' -> P with its closure P'° -> P°
    phi_big = O.tokens_of(at[kb], O.tgt[phi], w[phi])
    found = phi_big >= 0
    ku, u = ends(O.tgt, np.flatnonzero(closure_of[O.src] >= 0), at)
    iu = closure_of[O.src[u]]
    uc = O.tokens_of(iu, atc[ku], O.canonicals(iu, atc[ku], w[u]))
    closed = uc >= 0
    n_phi, n_u, missing, unclosed = (np.bincount(k, minlength=n) for k in (
        kb[found], ku[closed], kb[~found], ku[~closed]))
    out_deg = np.bincount(O.src[to_members], minlength=O.object_count)
    n_post = np.bincount(kb[found], out_deg[O.tgt[phi[found]]], n).astype(np.int64)
    pairs = np.stack([n_phi * n_u, n_post], axis=1).ravel()  # per P: pre, then post
    over = np.flatnonzero(pairs > table_budget)
    if len(over):
        kind = ("precomposition", "postcomposition")[over[0] % 2]
        raise BudgetExceeded(None, int(pairs[over[0]]), table_budget, kind)

    # runs of consecutive families with at most table_budget pairs in all,
    # each composed in one pass, u phi_big against u° phi and phi_big m
    # against phi m, its broken squares counted per family
    F, U = np.flatnonzero(found), np.flatnonzero(closed)  # each in test order
    f_at, u_at = _offsets(n_phi), _offsets(n_u)
    cuts, total = [], 0
    for i, count in enumerate(pairs.tolist()):
        if total + count > table_budget:
            cuts.append(i)
            total = 0
        total += count
    broken = np.zeros(2 * n, dtype=np.int64)  # per family, as ``pairs``
    for i0, i1 in zip([0, *cuts], [*cuts, 2 * n]):
        # the pairs (u, phi) of each k with 2k in [i0, i1) ...
        pu = U[u_at[(i0 + 1) // 2]:u_at[(i1 + 1) // 2]]
        r, pos, _ = _expand(n_phi[ku[pu]])
        pu, pf = pu[r], F[f_at[ku[pu[r]]] + pos]
        # ... and (phi, m) of each k with 2k + 1 in [i0, i1)
        qf = F[f_at[i0 // 2]:f_at[i1 // 2]]
        j, mm = ends(O.src, to_members, O.tgt[phi[qf]])
        qf = qf[j]
        big = O.coset_composites(np.concatenate([u[pu], phi_big[qf]]),
                                 np.concatenate([phi_big[pf], mm]))
        small = O.coset_composites(np.concatenate([uc[pu], phi[qf]]),
                                   np.concatenate([phi[pf], mm]))
        bad = (big < 0) | (small < 0) | (w[big] != w[small])
        broken += np.bincount(np.concatenate([2 * ku[pu], 2 * kb[qf] + 1])[bad], minlength=2 * n)

    tgt_failures, src_failures = [], []
    for k in range(n):
        tgt_failures += (["identification misses a morphism"] * missing[k]
                         + ["postcomposition square fails"] * broken[2 * k + 1])
        src_failures += (["closure of a morphism is missing"] * unclosed[k]
                         + ["identification misses a morphism"] * (missing[k] * n_u[k])
                         + ["precomposition square fails"] * broken[2 * k])
    return AdjunctionVerdict(n * m, failures + tgt_failures + src_failures)
