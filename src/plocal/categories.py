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
its witness, for whole arrays of cosets at once; the composite of
g: P -> Q followed by h: Q -> R is the coset of the product g h.  So all
composition tables are total on composable pairs and reproducible, and
``verify_category`` checks every such category against the same rule.
``group_category``, the one-object category of a subgroup, is built the same
way with both sides trivial.

Tokens: a category keeps its morphisms only as int arrays, one entry per
token: ``src``, ``tgt`` and ``witness`` (the coset's least element; -1 in
the thin coset category), set once, whole, by ``set_tokens`` together with
each object's identity token.  Tokens are numbered grouped by source
(``set_tokens`` enforces it), so the tokens leaving object o are the block
``first[o] <= t < first[o + 1]``; ``mor`` reads Mor(i, j) from that block
and ``tokens_of`` finds tokens by witness with one ``searchsorted``.

Composition: the composable pairs (t1, t2) are t1 followed by a token of
the block of t1's target; each has one slot in the int array
``composite``, at ``pair_start[t1] + (t2 - first[src[t2]])``, which puts
the pairs in lexicographic order.  An unfilled slot holds -1.
``fill_composition`` and ``coset_category`` write this store and
``full_subcategory`` gathers it from the parent's; the scalar ``compose``,
the elementwise ``composites``, ``chains``, the functor checks and
``verify_category`` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetExceeded, NotCentric, PLocalError
from .groups import PermutationGroup, Subgroup, transporter_set
from .omega import IntersectionPoset, classify_centric, closure_in_poset


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


def _flat(subgroups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ids of the subgroups laid end to end, each one's offset into them
    and each one's order."""
    orders = np.array([H.order for H in subgroups], dtype=np.int64)
    ids = np.array([x for H in subgroups for x in H.ids], dtype=np.intp)
    return ids, _offsets(orders)[:-1], orders


# coset elements per array operation in the coset rule and its check
_BLOCK = 1 << 15


def _blocks(counts: np.ndarray) -> list[slice]:
    """Runs of consecutive entries, a new run wherever the running total of
    counts passes a multiple of ``_BLOCK``."""
    run = _offsets(counts)[:-1] // _BLOCK
    cuts = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), len(counts)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


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
        self.is_id = self.first = self.pair_start = self._key_order = None
        self.composite: np.ndarray | None = None

    # -- construction ----------------------------------------------------

    def set_tokens(self, src, tgt, witness, identity_ids):
        """Fix every token at once, with each object's identity token (-1
        for none).  Sources may not decrease: the composition store and
        ``chains`` rely on tokens grouped by source."""
        if self.src is not None:
            raise PLocalError("tokens are fixed once set")
        src = np.asarray(src, dtype=np.int64)
        if (np.diff(src) < 0).any():
            raise PLocalError("tokens must be grouped by source object")
        self.src, self.tgt = src, np.asarray(tgt, dtype=np.int64)
        self.witness = np.asarray(witness, dtype=np.int64)
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
            raise BudgetExceeded(2, int(self.pair_start[-1]), table_budget)
        t1, t2 = self.pairs()
        w, a, c = self.witness, self.src[t1], self.tgt[t2]
        product = self.group.mul[w[t1], w[t2]]
        self.composite = self.tokens_of(a, c, self.canonicals(a, c, product))

    # -- the coset rule ------------------------------------------------------

    def cosets(self, i, j, g) -> tuple[np.ndarray, np.ndarray]:
        """The cosets left[i]·g·right[j] a witness g from object i to object j
        stands for, elementwise over broadcast id arrays: their elements laid
        end to end (with repeats where the two sides overlap), and the offset
        of each coset with the total appended."""
        i, j, g = (np.ravel(a) for a in np.broadcast_arrays(i, j, g))
        (kids, kat, kn), (qids, qat, qn) = _flat(self.left), _flat(self.right)
        row, pos, offs = _expand(kn[i] * qn[j])
        i, j, g = i[row], j[row], g[row]
        mul = self.group.mul
        return mul[kids[kat[i] + pos // qn[j]], mul[g, qids[qat[j] + pos % qn[j]]]], offs

    def canonicals(self, i, j, g) -> np.ndarray:
        """The witness of each coset left[i]·g·right[j], its least element,
        elementwise; worked in ``_blocks`` of coset elements."""
        i, j, g = (np.ravel(a) for a in np.broadcast_arrays(i, j, g))
        out = [np.zeros(0, dtype=self.group.mul.dtype)]
        for b in _blocks(_flat(self.left)[2][i] * _flat(self.right)[2][j]):
            elems, offs = self.cosets(i[b], j[b], g[b])
            out.append(np.minimum.reduceat(elems, offs[:-1]))
        return np.concatenate(out)

    def tokens_of(self, i, j, w) -> np.ndarray:
        """The tokens from object i to object j witnessed by w, elementwise;
        -1 where there is none.  The sorted keys are kept once computed; a
        key has a place for each witness from -1 to |G| - 1."""
        n, m = self.group.order + 1, self.object_count
        if self._key_order is None:
            keys = (self.src * m + self.tgt) * n + self.witness + 1
            order = np.argsort(keys)
            self._key_order = keys[order], order
        keys, order = self._key_order
        want = (np.asarray(i, dtype=np.int64) * m + j) * n + w + 1
        at = np.searchsorted(keys, want).clip(max=len(keys) - 1)
        return np.where(keys[at] == want, order[at], -1)

    # -- queries -----------------------------------------------------------

    def mor(self, i: int, j: int) -> list[int]:
        """The tokens from object i to object j, ascending."""
        block = slice(self.first[i], self.first[i + 1])
        return (self.first[i] + np.flatnonzero(self.tgt[block] == j)).tolist()

    def slot(self, t1: int, t2: int) -> int:
        """The index of the pair (t1, t2) in ``composite``."""
        if self.tgt[t1] != self.src[t2]:
            raise PLocalError(f"tokens {t1} and {t2} do not compose")
        return int(self.pair_start[t1] + t2 - self.first[self.src[t2]])

    def compose(self, t1: int, t2: int) -> int:
        t = int(self.composite[self.slot(t1, t2)])
        if t < 0:
            raise PLocalError(f"composite of tokens ({t1},{t2}) is not filled")
        return t

    def composites(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Composites of the tokens a then b, elementwise; -1 where a pair
        does not compose or its slot is unfilled."""
        ok = self.tgt[a] == self.src[b]
        out = np.full(ok.shape, -1, dtype=np.int64)
        out[ok] = self.composite[(self.pair_start[a] + b - self.first[self.src[b]])[ok]]
        return out

    @property
    def object_count(self) -> int:
        return len(self.objects)

    @property
    def morphism_count(self) -> int:
        return len(self.src)

    def endomorphism_order(self, tid: int) -> int:
        """Order of an invertible endomorphism under category composition."""
        obj = self.src[tid]
        ident, bound = self.identity_ids[obj], len(self.mor(obj, obj)) + 1
        k, cur = 1, tid
        while cur != ident:
            cur = self.compose(cur, tid)
            k += 1
            if k > bound:
                raise PLocalError(f"endomorphism token {tid} is not invertible")
        return k


# -- builders ---------------------------------------------------------------


def _fill_cosets(cat: FiniteCategory, table_budget: int) -> FiniteCategory:
    """Add one token per coset left[i]·g·right[j] of the transporter elements
    g from object i to object j, witnessed by its least element, in order of
    (i, j, witness), and compose by the same rule."""
    G, m, n = cat.group, cat.object_count, cat.group.order
    found = [transporter_set(G, P, Q) for P in cat.objects for Q in cat.objects]
    pair = np.repeat(np.arange(m * m), np.array([len(ts) for ts in found], dtype=np.int64))
    g = np.fromiter((x for ts in found for x in ts), np.intp, len(pair))
    witness = cat.canonicals(pair // m, pair % m, g)
    pair, witness = np.divmod(np.unique(pair * n + witness), n)
    src, tgt = np.divmod(pair, m)
    ident = np.full(m, -1, dtype=np.int64)
    at = np.flatnonzero((src == tgt) & (witness == 0))
    ident[src[at]] = at
    cat.set_tokens(src, tgt, witness, ident)
    cat.fill_composition(table_budget)
    return cat


def build_transporter(G: PermutationGroup, collection,
                      table_budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """The transporter category: Mor(P, Q) = N_G(P, Q), one token per element."""
    cat = FiniteCategory("transporter", list(collection), G)
    cat.left = cat.right = [G.trivial_subgroup()] * cat.object_count
    return _fill_cosets(cat, table_budget)


def build_linking(G: PermutationGroup, p: int, centric_collection,
                  table_budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """The linking category on p-centric objects: Mor(P, Q) = K(P)\\N_G(P, Q)
    with K(P) = O^p(C_G(P)) acting on the left."""
    objs = list(centric_collection)
    records = classify_centric(G, p, objs).records
    for r in records:
        if not r.is_centric:
            raise NotCentric(f"{r.subgroup.label()} is not {p}-centric")
    cat = FiniteCategory("linking", objs, G)
    cat.left = [r.residual for r in records]
    cat.right = [G.trivial_subgroup()] * len(objs)
    return _fill_cosets(cat, table_budget)


def build_orbit(G: PermutationGroup, collection,
                table_budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """The orbit category: Mor(P, Q) = N_G(P, Q)/Q, with Q acting on the right."""
    cat = FiniteCategory("orbit", list(collection), G)
    cat.left = [G.trivial_subgroup()] * cat.object_count
    cat.right = cat.objects
    return _fill_cosets(cat, table_budget)


def group_category(G: PermutationGroup, P: Subgroup) -> FiniteCategory:
    """The one-object category with morphism set P, composed by G's product;
    token k is the element ``P.ids[k]``."""
    cat = FiniteCategory("group", [P], G)
    cat.left = cat.right = [G.trivial_subgroup()]
    cat.set_tokens([0] * P.order, [0] * P.order, P.ids, [0])
    cat.fill_composition(table_budget=P.order ** 2)
    return cat


def coset_category(G: PermutationGroup, collection) -> FiniteCategory:
    """The thin category of cosets Pg for P in the collection, with exactly
    one morphism Pg -> Qh when P^g <= Q^h (independent of representatives).

    When the collection contains a common normal subgroup (the intersection
    of all Sylow subgroups, say), every coset of it is an initial object and
    the nerve is contractible.
    """
    # each right coset Pg is named by its least element
    objs = [(k, r) for k, P in enumerate(collection)
            for r in np.unique(G.mul[list(P.ids)].min(axis=0)).tolist()]
    cat = FiniteCategory("coset", [f"{k}:{r}" for k, r in objs], G)
    conj = [frozenset(collection[k].conjugate(r).ids) for k, r in objs]
    src, tgt = np.nonzero(np.array([[a <= b for b in conj] for a in conj], dtype=bool))
    tok = np.full((len(objs), len(objs)), -1, dtype=np.int64)
    tok[src, tgt] = np.arange(len(src))
    cat.set_tokens(src, tgt, np.full(len(src), -1), np.diag(tok))
    t1, t2 = cat.pairs()
    cat.composite = tok[cat.src[t1], cat.tgt[t2]]
    return cat


# -- functors ---------------------------------------------------------------


@dataclass
class Functor:
    source: FiniteCategory
    target: FiniteCategory
    object_map: list[int]
    morphism_map: list[int]     # source token id -> target token id

    def apply(self, tid: int) -> int:
        return self.morphism_map[tid]

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

    @property
    def is_functor(self) -> bool:
        return not self.violations()


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
    # stable in token order, so a sorted ``keep`` keeps C's numbering
    old = kept[np.argsort(a[kept], kind="stable")]
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


def _object_key(C: FiniteCategory, i: int):
    obj = C.objects[i]
    if isinstance(obj, Subgroup):
        return obj.key
    return (i,)


def skeleton(C: FiniteCategory) -> tuple[FiniteCategory, Functor]:
    """Full subcategory on one canonical representative per isomorphism class."""
    _, classes = iso_classes(C)
    reps = sorted(
        (min(cls, key=lambda i: _object_key(C, i)) for cls in classes),
        key=lambda i: _object_key(C, i),
    )
    return full_subcategory(C, reps)


# -- exhaustive law checking -------------------------------------------------


@dataclass
class CategoryLawsVerdict:
    associative: bool
    identities: bool
    composition_closed: bool
    well_defined: bool
    triples_checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.associative
            and self.identities
            and self.composition_closed
            and self.well_defined
        )


def verify_category(C: FiniteCategory) -> CategoryLawsVerdict:
    """Check the identity, closure and associativity laws as array
    comparisons over every token, composable pair and composable triple
    (worked per first token, so memory stays that of the store), and the
    coset rule where the category has one."""
    tok = np.arange(C.morphism_count)
    ident = np.asarray(C.identity_ids, dtype=np.int64)
    failures = [f"object {i} has no identity" for i in np.flatnonzero(ident < 0).tolist()]
    for side, e in (("left", ident[C.src]), ("right", ident[C.tgt])):
        t, e = tok[e >= 0], e[e >= 0]
        got = C.composites(e, t) if side == "left" else C.composites(t, e)
        failures += [f"{side} identity fails at token {x}" for x in t[got != t].tolist()]
    identities = not failures

    t1, t2 = C.pairs()
    comp = C.composite
    safe = np.where(comp >= 0, comp, 0)
    inside = (comp >= 0) & (C.src[safe] == C.src[t1]) & (C.tgt[safe] == C.tgt[t2])
    closed = bool(inside.all())
    for k in np.flatnonzero(~inside).tolist():
        where = f"({t1[k]},{t2[k]})"
        failures.append(f"composite {where} is not filled" if comp[k] < 0 else
                        f"composite {where} lands outside Mor({C.src[t1[k]]},{C.tgt[t2[k]]})")

    # the triples (a, b, c) with first token a run over the slots (b, c) of
    # the tokens b leaving a's target; a slot holds b's place j in its block,
    # c's place in its block and, once inside, (b c)'s place in b's block
    ps, first = C.pair_start, C.first
    j, c_at, bc_at = t1 - first[C.src[t1]], t2 - first[C.src[t2]], comp - first[C.src[t1]]
    before, triples = len(failures), 0
    for a in range(C.morphism_count):
        obj = C.tgt[a]
        run = slice(ps[first[obj]], ps[first[obj + 1]])
        ab = ps[a] + j[run]
        ok = inside[run] & inside[ab]
        bad = ~ok
        lhs = comp[ps[comp[ab[ok]]] + c_at[run][ok]]
        bad[ok] = (lhs < 0) | (lhs != comp[ps[a] + bc_at[run][ok]])
        triples += len(ab)
        failures += [f"associativity fails at ({a},{t1[run][k]},{t2[run][k]})"
                     for k in np.flatnonzero(bad).tolist()]
    associative = len(failures) == before

    well_defined = _verify_coset_well_definedness(C, failures)
    return CategoryLawsVerdict(
        associative, identities, closed, well_defined, triples, failures
    )


def _verify_coset_well_definedness(C: FiniteCategory, failures: list[str]) -> bool:
    """Exhaustively check the coset rule: each witness is the least element of
    its coset, and for every composable pair of tokens every product of
    representatives of their two cosets lies in the composite's coset (an
    unfilled slot is left to the closure check)."""
    if C.left is None:
        return True
    witness = C.witness
    elems, offs = C.cosets(C.src, C.tgt, witness)
    bad = np.minimum.reduceat(elems, offs[:-1]) != witness
    failures += [f"witness of token {t} is not the least of its coset"
                 for t in np.flatnonzero(bad).tolist()]
    # membership in a token's coset, by the key token * |G| + element
    n, size = C.group.order, np.diff(offs)
    members = np.sort(np.repeat(np.arange(C.morphism_count), size) * n + elems)
    t1, t2 = C.pairs()
    filled = C.composite >= 0
    t1, t2, t3 = t1[filled], t2[filled], C.composite[filled]
    broken = []
    for blk in _blocks(size[t1] * size[t2]):
        a, b, c = t1[blk], t2[blk], t3[blk]
        pair, pos, _ = _expand(size[a] * size[b])
        x = elems[offs[a[pair]] + pos // size[b[pair]]]
        y = elems[offs[b[pair]] + pos % size[b[pair]]]
        key = c[pair] * n + C.group.mul[x, y]
        at = np.searchsorted(members, key).clip(max=len(members) - 1)
        broken.append(blk.start + np.unique(pair[members[at] != key]))
    broken = np.concatenate(broken or [np.zeros(0, dtype=np.int64)])
    failures += [f"representative shift breaks composite ({t1[k]},{t2[k]})"
                 for k in broken.tolist()]
    return not bad.any() and not len(broken)


# -- the quotient-functor conditions -----------------------------------------


@dataclass
class QuotientFunctorVerdict:
    iso_class_bijective: bool
    morphism_surjective: bool
    kernels_prime_to_p: bool
    fibers_are_kernel_orbits: bool
    kernel_orders: list[int]
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.iso_class_bijective
            and self.morphism_surjective
            and self.kernels_prime_to_p
            and self.fibers_are_kernel_orbits
        )


def automorphism_tokens(C: FiniteCategory, i: int) -> list[int]:
    ends = np.array(C.mor(i, i), dtype=np.int64)
    t, s = np.repeat(ends, len(ends)), np.tile(ends, len(ends))
    one = C.identity_ids[i]
    return np.unique(t[(C.composites(t, s) == one) & (C.composites(s, t) == one)]).tolist()


def verify_quotient_functor(psi: Functor, p: int) -> QuotientFunctorVerdict:
    """Check the three conditions under which a surjective quotient of
    categories is transparent to mod-p homology: bijectivity on isomorphism
    classes plus morphism-set surjectivity, kernels of order prime to p, and
    fibers that are exactly right-translates by the kernel."""
    C, D = psi.source, psi.target
    failures: list[str] = []

    src_class_of, src_classes = iso_classes(C)
    tgt_class_of, tgt_classes = iso_classes(D)
    image_classes = [tgt_class_of[psi.object_map[cls[0]]] for cls in src_classes]
    injective = len(set(image_classes)) == len(image_classes)
    surjective_classes = set(image_classes) == set(range(len(tgt_classes)))
    for cls in src_classes:
        imgs = {tgt_class_of[psi.object_map[i]] for i in cls}
        if len(imgs) != 1:
            injective = False
            failures.append("isomorphic objects map to non-isomorphic objects")
    iso_bij = injective and surjective_classes
    if not iso_bij:
        failures.append("not bijective on isomorphism classes")

    mor_surj = True
    for i in range(C.object_count):
        for j in range(C.object_count):
            hit = {psi.apply(t) for t in C.mor(i, j)}
            want = set(D.mor(psi.object_map[i], psi.object_map[j]))
            if hit != want:
                mor_surj = False
                failures.append(f"morphism map not surjective on Mor({i},{j})")

    kernels: list[list[int]] = []
    kernels_ok = True
    for i in range(C.object_count):
        ident_img = D.identity_ids[psi.object_map[i]]
        K = [t for t in automorphism_tokens(C, i) if psi.apply(t) == ident_img]
        kernels.append(K)
        for t in K:
            if C.endomorphism_order(t) % p == 0:
                kernels_ok = False
                failures.append(f"kernel element at object {i} has order divisible by {p}")

    fibers_ok = True
    for i in range(C.object_count):
        K = kernels[i]
        for j in range(C.object_count):
            toks = C.mor(i, j)
            for f in toks:
                orbit = {C.compose(s, f) for s in K}
                fiber = {g for g in toks if psi.apply(g) == psi.apply(f)}
                if orbit != fiber:
                    fibers_ok = False
                    failures.append(f"fiber of token {f} is not a kernel orbit")
    return QuotientFunctorVerdict(
        iso_bij, mor_surj, kernels_ok, fibers_ok,
        [len(K) for K in kernels], failures,
    )


# -- the closure / inclusion adjunction ---------------------------------------


@dataclass
class AdjunctionVerdict:
    bijections: bool
    natural_in_source: bool
    natural_in_target: bool
    pairs_checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.bijections and self.natural_in_source and self.natural_in_target


def verify_closure_adjunction(
    G: PermutationGroup,
    p: int,
    poset: IntersectionPoset,
    test_subgroups: list[Subgroup],
    table_budget: int = DEFAULT_BUDGET,
) -> AdjunctionVerdict:
    """Check that closure is left adjoint to inclusion between the orbit
    category on all p-subgroups and the one on intersection-poset members:
    the morphism sets Mor(P, Q) and Mor(P°, Q) coincide for closed Q, and the
    identification commutes with composition on both sides."""
    failures: list[str] = []
    members = poset.members
    collection: list[Subgroup] = []
    seen = set()
    for H in list(test_subgroups) + members:
        if H.ids not in seen:
            seen.add(H.ids)
            collection.append(H)
    collection.sort(key=lambda H: H.key)
    big = build_orbit(G, collection, table_budget)
    omega = build_orbit(G, members, table_budget)
    big_idx = {H.ids: i for i, H in enumerate(collection)}
    om_idx = {H.ids: i for i, H in enumerate(members)}
    clos = {P.ids: closure_in_poset(poset, P) for P in test_subgroups}

    for P in test_subgroups:
        for Q in members:
            reps_big = big.witness[big.mor(big_idx[P.ids], big_idx[Q.ids])]
            reps_om = omega.witness[omega.mor(om_idx[clos[P.ids].ids], om_idx[Q.ids])]
            if not np.array_equal(np.sort(reps_big), np.sort(reps_om)):
                failures.append(f"morphism sets differ for P={P.label()}, Q={Q.label()}")
    bijections, pairs = not failures, len(test_subgroups) * len(members)

    # naturality, per test subgroup P.  In the target variable: for every
    # phi: P° -> Q of omega, identified with the token phi_big: P -> Q of big,
    # postcomposition with every m: Q -> Q2 of omega commutes with the
    # identification.  In the source variable: precomposition of phi_big with
    # every u: P' -> P of big between test subgroups matches precomposition of
    # phi with the closure of u, the token P'° -> P° of u's coset.
    w_big, w_om = big.witness, omega.witness
    big_of = np.array([big_idx[M.ids] for M in members], dtype=np.int64)
    om_of = np.full(big.object_count, -1, dtype=np.int64)
    for P in test_subgroups:
        om_of[big_idx[P.ids]] = om_idx[clos[P.ids].ids]
    lift = big.tokens_of(big_of[omega.src], big_of[omega.tgt], w_om)
    if (lift < 0).any():
        raise PLocalError("a morphism between members is missing from the larger orbit category")
    om_next = omega.pairs()[1]

    def differ(t_big, t_om):
        return (t_big < 0) | (t_om < 0) | (w_big[t_big] != w_om[t_om])

    tgt_failures, src_failures = [], []
    for P in test_subgroups:
        iP, iPc = big_idx[P.ids], om_of[big_idx[P.ids]]
        phi = np.arange(omega.first[iPc], omega.first[iPc + 1])
        phi_big = big.tokens_of(iP, big_of[omega.tgt[phi]], w_om[phi])
        found = phi_big >= 0
        phi, phi_big = phi[found], phi_big[found]
        k, pos, _ = _expand(np.diff(omega.pair_start)[phi])
        slot = omega.pair_start[phi[k]] + pos
        post = differ(big.composites(phi_big[k], lift[om_next[slot]]), omega.composite[slot])
        u = np.flatnonzero((om_of[big.src] >= 0) & (big.tgt == iP))
        iu = om_of[big.src[u]]
        uc = omega.tokens_of(iu, iPc, omega.canonicals(iu, iPc, w_big[u]))
        closed = uc >= 0
        u, uc = u[closed, None], uc[closed, None]
        pre = differ(big.composites(u, phi_big), omega.composites(uc, phi))
        missing = int((~found).sum())
        tgt_failures += (["identification misses a morphism"] * missing
                         + ["postcomposition square fails"] * int(post.sum()))
        src_failures += (["closure of a morphism is missing"] * int((~closed).sum())
                         + ["identification misses a morphism"] * (missing * len(u))
                         + ["precomposition square fails"] * int(pre.sum()))
    failures += tgt_failures + src_failures
    natural_tgt = not tgt_failures
    natural_src = not src_failures
    return AdjunctionVerdict(bijections, natural_src, natural_tgt, pairs, failures)
