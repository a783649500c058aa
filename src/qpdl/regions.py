"""Ray-set algebra for the separation-free fragment.

A ray, or state, is a one-dimensional ``Subspace``.  A Region denotes a
set of rays as a finite union of Terms, each the rays of a positive
subspace minus the rays of finitely many proper subspaces of it.  The
class is closed under complement, intersection, union, the
orthocomplement-style closure, and weakest preconditions of partial
linear maps, which is what makes validity decidable by an emptiness
check.

The emptiness verdict rests on the covering fact that a subspace over an
infinite field is never a finite union of proper subspaces, so a
normalised term with a nonzero positive part always contains a ray:
``Region.is_empty`` reads emptiness off the terms, and ``Region.witness``
runs a small deterministic search for a ray only when one is wanted.
Its candidates, the positive basis rows and then points on a moment
curve through them, are built one at a time until one lies outside
every negative; each is already the canonical basis of its span.
Negatives are ordered by dimension and then by the integer rows of their
unique bases (``Matrix.sort_key``), never through Fractions, so a Term is
a value, the tuple (positive, negatives), and a Region drops repeated
terms by hashing.
The measurement modalities box and dia have no code of their own here.
They desugar to [f?]false, which the checker reads as the subspace
closure(f)^perp without ``wp``; a test reaches ``wp`` only when it is
composed, imaged or boxed over a body other than false.

A Region is never changed once built, so ``Region.empty(n)`` and
``Region.full(n)`` are one object per ambient dimension, and an
operation may answer with an operand.  ``intersect`` answers with the
other operand when one is empty or structurally full (one term, the
whole space, no cuts), ``union`` when one is empty, and ``complement``
swaps the empty and the full region: in each case the general loop
would rebuild those very terms in the same order, so witnesses are
unchanged.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable
from functools import cache, reduce

from .frame import PartialMap, Subspace
from .linalg import Matrix


class WitnessSearchExhausted(RuntimeError):
    """The bounded witness search ran out of candidates (not expected)."""


def _subspace_key(sub: Subspace):
    return (sub.dim, sub.basis.sort_key())


class Term(namedtuple("Term", "positive negatives")):
    """Rays of ``positive`` outside every subspace in ``negatives``.

    Normalised: every negative is a nonzero proper subspace of the
    positive part, so a Term is never empty.  ``make_term`` also puts the
    negatives in one canonical order, so a term is a value: equal terms
    are equal tuples.  Use ``make_term``.
    """

    __slots__ = ()

    def contains_ray(self, ray: Subspace) -> bool:
        """Whether the one-dimensional subspace ``ray`` is a ray of the term."""
        if not self.positive.contains_subspace(ray):
            return False
        return all(not b.contains_subspace(ray) for b in self.negatives)

    def witness(self) -> Subspace:
        """A ray of the term, found by a deterministic exact search.

        Single basis rows are tried first, then points on the moment
        curve sum_j t^j b_j; a linear functional vanishing on a proper
        subspace kills at most dim-1 of those points, so the bounded
        search always lands outside every negative.  Candidates are built
        one at a time, and the search stops at the first ray outside
        every negative: a curve point is the integer row (t^j)_j times
        the basis.  The basis is in RREF, so a candidate's first nonzero
        entry is a pivot 1 (b_0's on the curve, where the other rows are
        0): it is already the canonical basis of its span, and prints as
        it was built.
        """
        basis = self.positive.basis
        limit = max(8, (basis.rows - 1) * len(self.negatives) + 2)
        rows = (basis.row(k) for k in range(basis.rows))
        points = (Matrix.of_integers([[(t ** j, 0) for j in range(basis.rows)]]) * basis
                  for t in range(1, limit + 1))
        for candidate in itertools.chain(rows, points):
            ray = Subspace(candidate, basis.cols, _canonical=True)
            if all(not b.contains_subspace(ray) for b in self.negatives):
                return ray
        raise WitnessSearchExhausted(
            f"no witness among {basis.rows + limit} candidates")

    def __repr__(self):
        return f"Term(dim={self.positive.dim}, minus={len(self.negatives)})"


def make_term(positive: Subspace, negatives: Iterable[Subspace]) -> Term | None:
    """Normalise; None when the term denotes no ray."""
    if positive.is_zero():
        return None
    kept = []
    for b in negatives:
        cut = positive.meet(b)
        if cut.dim == positive.dim:
            return None
        if not cut.is_zero() and cut not in kept:
            kept.append(cut)
    # A negative inside another negative removes nothing extra.
    pruned = [b for b in kept
              if not any(o != b and o.contains_subspace(b) for o in kept)]
    if len(pruned) > 1:
        pruned.sort(key=_subspace_key)
    return Term(positive, tuple(pruned))


class Region:
    """A finite union of normalised terms over a fixed ambient dimension,
    never changed once built."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: int, terms: Iterable[Term] = ()):
        self.ambient = ambient
        uniq = dict.fromkeys(terms)  # keeps the first of equal terms
        uniq.pop(None, None)
        self.terms = tuple(uniq)

    @staticmethod
    @cache
    def empty(ambient: int) -> "Region":
        return Region(ambient)

    @staticmethod
    @cache
    def full(ambient: int) -> "Region":
        return Region(ambient, (Term(Subspace.full(ambient), ()),))

    @staticmethod
    def of_subspace(sub: Subspace) -> "Region":
        if sub.is_zero():
            return Region.empty(sub.ambient)
        return Region(sub.ambient, (Term(sub, ()),))

    def is_empty(self) -> bool:
        """Whether the region has no rays: terms are normalised, so a
        region without terms is the only empty one."""
        return not self.terms

    def contains_ray(self, ray: Subspace) -> bool:
        return any(t.contains_ray(ray) for t in self.terms)

    def _is_full(self) -> bool:
        """Whether the region is one term of every ray: structural, so a
        region of several terms that covers every ray is not full here."""
        terms = self.terms
        return (len(terms) == 1 and not terms[0].negatives
                and terms[0].positive.is_full())

    def union(self, other: "Region") -> "Region":
        """The terms of both, self's first; an empty operand gives back
        the other."""
        self._same_ambient(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Region(self.ambient, self.terms + other.terms)

    def intersect(self, other: "Region") -> "Region":
        """The meet of each pair of terms, self's terms outermost.  An
        empty operand is the answer, and so is the other operand when
        one is full: meeting a normalised term with the full term
        rebuilds it, so the loop would give back the other's terms in
        their order."""
        self._same_ambient(other)
        if not self.terms or other._is_full():
            return self
        if not other.terms or self._is_full():
            return other
        out = []
        for a in self.terms:
            for b in other.terms:
                pos = a.positive.meet(b.positive)
                out.append(make_term(pos, a.negatives + b.negatives))
        return Region(self.ambient, out)

    def complement(self) -> "Region":
        """De Morgan over the DNF; complement of a term is a small union.
        The empty and the full region swap without the loop."""
        if not self.terms:
            return Region.full(self.ambient)
        if self._is_full():
            return Region.empty(self.ambient)
        result = Region.full(self.ambient)
        for t in self.terms:
            parts = [make_term(Subspace.full(self.ambient), [t.positive])]
            for b in t.negatives:
                parts.append(make_term(b, []))
            result = result.intersect(Region(self.ambient, parts))
        return result

    def closure(self) -> Subspace:
        """Least subspace containing the region (its biorthogonal closure).

        A normalised term spans its positive part, so this is the join of
        the positive parts.
        """
        acc = Subspace.zero(self.ambient)
        for t in self.terms:
            acc = acc.join(t.positive)
        return acc

    def ortho(self) -> Subspace:
        return self.closure().ortho()

    def witness(self) -> Subspace | None:
        """A ray of the region, or None when it is empty."""
        if self.is_empty():
            return None
        return self.terms[0].witness()

    def _same_ambient(self, other: "Region"):
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")

    def __repr__(self):
        return f"Region(ambient={self.ambient}, terms={len(self.terms)})"


def wp_map(pm: PartialMap, region: Region) -> Region:
    """[F]region for one partial map: kernel rays plus exact preimages.

    The preimage of a term (A minus Bs) is taken strictly: vectors sent
    into A but not into any B and not to zero; the kernel term restores
    the states where F is undefined.  A map of kernel 0 is a bijection,
    which keeps a term normalised: the preimage of a nonzero A is
    nonzero, and those of the Bs are proper in it, distinct and not
    nested.  So each term maps to its preimages with the negatives put
    in ``make_term``'s order, and no meet is taken.
    """
    kernel = pm.kernel()
    if kernel.is_zero():
        return Region(region.ambient, (
            Term(pm.preimage_closed(t.positive),
                 tuple(sorted((pm.preimage_closed(b) for b in t.negatives),
                              key=_subspace_key)))
            for t in region.terms))
    terms = [make_term(kernel, [])]
    for t in region.terms:
        pre_pos = pm.preimage_closed(t.positive)
        negs = [pm.preimage_closed(b) for b in t.negatives]
        negs.append(kernel)
        terms.append(make_term(pre_pos, negs))
    return Region(region.ambient, terms)


def wp(maps: tuple, region: Region) -> Region:
    """[F_1 + ... + F_k]region: intersection of the branch preconditions."""
    return reduce(Region.intersect, (wp_map(pm, region) for pm in maps))
