"""Quantum frames over exact scalars.

A frame fixes a register of n qubits (dimension 2^n).  A state is a ray,
a one-dimensional subspace: a nonzero amplitude vector up to a scalar.
Properties that can be tested by measurement are subspaces; a program
denotes a finite union of partial linear maps, which the checker holds
as a tuple of ``PartialMap``, one per branch.  Qubit 1 occupies the most
significant bit of a basis index, so |b1 b2 ... bn> sits at index
b1*2^(n-1) + ... + bn.
``Frame.layout`` is the one place that decides this order: gates, lifts,
blocks and the locality test all read its index tables.

Everything here is exact.  States and properties are one type,
``Subspace``, held as a canonical RREF basis; a state's basis is its one
amplitude row scaled so that its first nonzero entry is 1.  Subspaces
are interned: the constructor returns the live instance of its
canonical basis, found through a plain dict of weak references whose
callbacks each remove their own entry only, so equal spans are one
object, equality is identity and a projector is built once per span.
``ortho`` is computed once per instance and linked back, since
(W^perp)^perp = W.  A subspace also
remembers its product form on each qubit set, None included, for as
long as it lives.  A lift part (x) H_rest on qubits I, 0 < |I| < n,
keeps its factor (n, I, part), part being the interned subspace over
2^|I|; the lifts of ``Frame`` (``state_lift``, ``named_lift``,
``row_lift``), its reachable sets, and the meets and orthos below, build
them.

Partial maps are not interned.  A map whose kernel is known when it is
built carries it from construction: a gate lift has kernel 0, as every
gate is invertible, and f followed by a map of kernel 0 has f's kernel;
the checker seeds ``id`` (kernel 0) and a test on S (kernel S^perp) the
same way.  Any other kernel is computed on first use.  A gate lift,
``id`` and a word of them are also marked unitary (up to a positive
scalar) when built; the mark is never inferred.  A composite f ; g
(``then``) holds f and g, with its dimension, known kernel and mark set
when built, and forms its matrix on the first read of ``matrix``, once,
then drops f and g: a box that reads only a gate word's kernel forms no
product.  Each map remembers its kernel and the image and closed
preimage of every subspace it was asked about, keyed on the interned
subspace and kept alive with the map.

What is remembered lives at one of two scopes, beside each value's own
memos:

- per process, built on first use and keyed on n, as it depends on the
  register alone: the full and zero subspaces of each dimension, the
  ``Frame.layout`` tables and their inverses, the matrix of each gate
  lift, and the lifts of the four named one-qubit states
  ``LOCAL_STATES`` at each qubit, found by (char, qubit) through
  ``Frame.named_lift``, at most 4n subspaces per n, each with its own
  memos;
- per environment (in the checker): the maps of each denoted program,
  gate maps among them, with their memos and, once read, their matrices.

A ``Frame`` holds n and its dimension only.  ``Frame.gate`` wraps the
shared matrix in a new map at each call, and every other lift is built
at each call: interning returns the live subspace of an equal basis,
with its memos, and a lift that nothing holds is freed.

A lift's factor lives on the interned subspace, as its other memos do.
It names n, not a frame, so a named lift kept per process keeps no
frame alive, and the part holds no reference back to the lift.

The join and the meet of two live subspaces are remembered in one pair
table that keeps neither them nor the result alive, so a repeated join
or meet runs no elimination.  A meet works from the smaller side A,
against the orthocomplement P of the other: the product conj(P) A^T,
the one that decides containment, is 0 when A lies in the other side,
and otherwise its kernel's RREF basis times A is the meet's RREF basis
(0 at once when A is a ray).  Beside P, found once per subspace, it
eliminates only that dim P x dim A product.
Lifts skip that work.  The meet of P (x) H_rest on I and Q (x) H_rest on
a disjoint J is P (x) Q (x) H_rest on their union, and the ortho of
P (x) H_rest is P^perp (x) H_rest, found on the part (no elimination for
a ray part).  A placed tensor of RREFs, laid out in lead order, is an
RREF, so neither eliminates at 2^n width, and each is the interned
subspace the general route gives.  Lifts on overlapping qubit sets, and
any other pair, take the general route.
A layout table is the index table of ``Matrix.tensor``, which places
gate lifts g (x) I and the projectors of lifts (rows and columns alike)
and lifts part (x) I, a reachable set among them, and of
``Matrix.gather``, which reads the blocks that the locality test of a
map compares and the reshaped state of a reachable set; its inverse
locates each basis index in it.
One tensor factorization, ``Frame.product_form``, splits a subspace as
part (x) rest with one side a ray; T{I}, cmp{I}, =_I, local{I} and
localp{I} of a test all read it.  A lift of a ray part is built with
its form on I, (part, full), in place.  Qubits are sorted in the
layout, so an index grows in each of its two coordinates, and the RREF
basis of x (x) V is x (x) v_k over the RREF rows v_k of V.  So
``Matrix.split`` reads the form off the basis rows alone: each must
pass the rank-one test and all must share one factor, and the others
stack to the RREF of the wide side, with no elimination.  The image of
a subspace under a map is M x for each basis row x, one matrix-vector
pass (``Matrix.apply``); images of a lift under X, Z and CNOT words
keep its rows on disjoint columns, and such a basis, a one-row one
among them, is normalised without elimination.  A lift part (x) I is
an RREF as built (its rows laid out in lead order when the part has
several).
Scalars appear only at the boundary: parsed and printed amplitudes,
and the part-states that ``state_lift`` takes.
The preimage of A under a unitary map M is the span of M^dagger A, the
image under the adjoint, when dim A is at most half the dimension;
otherwise, and under any other map, it is a kernel against a basis of
A's orthocomplement.  Containment is one product with that basis.
Under a composite not yet formed, the adjoint image multiplies conj(A)
through the factors, the last map first, so each step is dim A rows
times one sparse gate (the cheap order of the matrix chain); the kernel
route and an image form the product, as a word's images are asked for
many subspaces.  An orthogonal projector is built by solving one
system in the Gram matrix; a lift's is its part's projector (x) I,
placed by the layout table, so that system is only as wide as the
part.  It is needed only for a test (f?) that is composed, imaged or
boxed over a body other than false, or judged by localp{I} where its
closure has no product form on I; the checker reads [f?]false as the
kernel closure(f)^perp.
"""

from __future__ import annotations

import re
import weakref
from collections.abc import Iterable, Sequence
from functools import cache

from .errors import InputError
from .linalg import GaussianRational, Matrix, ONE, ZERO, parse_rational


class BadIndex(InputError):
    """A qubit index is out of range or repeated."""


# Each canonical basis -> a weak reference to its live subspace, which
# holds the basis as its key.  The table holds no subspace alive, so it is
# bounded by the subspaces in use.
_INTERNED: dict = {}


class _InternRef(weakref.ref):
    __slots__ = ("key",)


def _unintern(ref: _InternRef, get=_INTERNED.get, pop=_INTERNED.pop) -> None:
    """The callback of every intern reference: it removes the reference's
    entry only while the entry is that reference, so a callback that runs
    late never drops a newer live subspace of the same basis.  The table's
    methods are bound now, since a callback may run as the module is torn
    down."""
    if get(ref.key) is ref:
        pop(ref.key)


# Joins and meets of live subspaces: (op, id(a), id(b)), the ids in
# ascending order -> weak references to a, b and their join or meet.  The
# first of the three to die removes the entry, before its id can be reused.
_PAIRS: dict = {}


def _paired(op: str, a: "Subspace", b: "Subspace", compute) -> "Subspace":
    """The ``op`` of a and b from the pair table, or ``compute()`` entered
    there: once per live pair in either order."""
    key = (op, *sorted((id(a), id(b))))
    refs = _PAIRS.get(key)
    result = refs and refs[2]()
    if result is None:
        result = compute()
        # pop is bound now, since a callback may run as the module is torn down
        drop = lambda _, pop=_PAIRS.pop: pop(key, None)
        _PAIRS[key] = tuple(weakref.ref(x, drop) for x in (a, b, result))
    return result


class Subspace:
    """A linear subspace, held as a canonical RREF basis (one row per dimension).

    Hash-consed: there is one live instance per basis, so equal spans are
    the same object, and equality and hashing are identity.

    A subspace that ``_lifted`` built as part (x) H_rest keeps its factor
    in ``_local`` as (n, sorted qubits I, part), part being the canonical
    subspace over 2^|I|, for 0 < |I| < n; ``meet`` and ``ortho`` read
    their results off it.  It holds no frame.
    """

    __slots__ = ("basis", "ambient", "_projector", "_ortho", "_forms",
                 "_local", "__weakref__")

    def __new__(cls, basis: Matrix, ambient: int, _canonical: bool = False):
        if basis.cols != ambient:
            raise ValueError("basis width differs from ambient dimension")
        if not _canonical:
            basis = basis.row_basis()
        ref = _INTERNED.get(basis)
        self = ref and ref()
        if self is None:
            self = object.__new__(cls)
            self.basis = basis
            self.ambient = ambient
            self._projector = None
            self._ortho = None
            self._forms = {}
            self._local = None
            ref = _INTERNED[basis] = _InternRef(self, _unintern)
            ref.key = basis
        return self

    @staticmethod
    def from_rows(rows: Iterable[Sequence], ambient: int) -> "Subspace":
        rows = list(rows)
        if not rows:
            return Subspace.zero(ambient)
        return Subspace(Matrix(rows, cols=ambient), ambient)

    @staticmethod
    @cache
    def zero(ambient: int) -> "Subspace":
        return Subspace(Matrix.zeros(0, ambient), ambient, _canonical=True)

    @staticmethod
    @cache
    def full(ambient: int) -> "Subspace":
        return Subspace(Matrix.identity(ambient), ambient, _canonical=True)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.basis.rows == 0

    def is_full(self) -> bool:
        return self.basis.rows == self.ambient

    def contains_subspace(self, other: "Subspace") -> bool:
        """Whether other lies in self: whether it is orthogonal to the
        remembered orthocomplement, one product."""
        product = self._against_ortho(other)
        return product == Matrix.zeros(product.rows, other.dim)

    def _against_ortho(self, other: "Subspace") -> Matrix:
        """conj(P) A^T, P the basis of self's orthocomplement and A other's:
        entry (i, j) is the inner product of row i of P with row j of A,
        so x A lies in self exactly when the product sends x to 0."""
        return self.ortho().basis.conj() * other.basis.transpose()

    def join(self, other: "Subspace") -> "Subspace":
        """The span of both, computed once per live pair in either order."""
        self._same_ambient(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return _paired("join", self, other, lambda: Subspace(
            Matrix.vstack([self.basis, other.basis]), self.ambient))

    def ortho(self) -> "Subspace":
        """Orthocomplement under the conjugate-linear inner product,
        computed once per span and linked back, as (W^perp)^perp = W.  Of
        a lift P (x) H_rest it is the lift P^perp (x) H_rest, found on the
        part."""
        if self._ortho is None:
            # one elimination of the basis rows, or of a lift's part rows,
            # none for a ray; a part is not linked to its ortho, which
            # would make each part of a lift a reference cycle
            small = self if self._local is None else self._local[2]
            perp = Subspace(small.basis.conj().kernel_basis(), small.ambient,
                            _canonical=True)
            if self._local is not None:
                perp = _lifted(self._local[0], self._local[1], perp)
            self._ortho, perp._ortho = perp, self
        return self._ortho

    def meet(self, other: "Subspace") -> "Subspace":
        """The intersection, computed once per live pair in either order:
        of lifts on disjoint qubit sets, as ``_meet_of_lifts``, and else
        from the smaller side (see ``_meet_from``)."""
        self._same_ambient(other)
        if self is other or self.is_zero() or other.is_full():
            return self
        if other.is_zero() or self.is_full():
            return other
        small, big = (self, other) if self.dim <= other.dim else (other, self)
        return _paired("meet", small, big, lambda: _meet_of_lifts(small, big)
                       or big._meet_from(small))

    def _meet_from(self, small: "Subspace") -> "Subspace":
        """The intersection with ``small``, whose basis A has no more rows
        than self's: x A lies in self exactly when x is in the kernel of
        the product that ``contains_subspace`` makes, so the kernel's rows
        times A span the meet.  When the product is 0, small lies in self;
        when it is not and small is a ray, the meet is 0.  Neither case
        eliminates; otherwise the one elimination is the kernel's, of the
        dim P x dim A product.  The kernel's basis K and A are RREFs, so K A
        is one too: its row i is row f_i of A, f_i being K's pivot i, plus
        multiples of later rows of A, so it leads with 1 at that row's
        pivot, where its other rows are 0, as K is 0 at f_i off row i."""
        product = self._against_ortho(small)
        if product == Matrix.zeros(product.rows, small.dim):
            return small
        if small.dim == 1:
            return Subspace.zero(self.ambient)
        return Subspace(product.kernel_basis() * small.basis, self.ambient,
                        _canonical=True)

    def projector(self) -> Matrix:
        """Orthogonal projector onto the subspace, as an exact matrix.  Of
        a lift P (x) H_rest it is P's projector (x) I, rows and columns
        placed by the layout table as ``Frame.lift`` places a gate."""
        if self._projector is None:
            if self.is_zero():
                self._projector = Matrix.zeros(self.ambient, self.ambient)
            elif self._local is not None:
                n, qubits, part = self._local
                table = _layout(n, qubits)
                self._projector = part.projector().tensor(
                    Matrix.identity(len(table[0])), table, table)
            else:
                # B^T G^-1 conj(B) for the Gram matrix G = conj(B) B^T
                b = self.basis
                gram = b.conj() * b.transpose()
                self._projector = b.transpose() * gram.solve(b.conj())
        return self._projector

    def any_ray(self) -> "Subspace":
        """The span of the first basis row, a one-dimensional subspace."""
        if self.is_zero():
            raise ValueError("the zero subspace has no rays")
        return Subspace(self.basis.row(0), self.ambient, _canonical=True)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def _same_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")


class PartialMap:
    """A linear map acting on states; undefined where it sends a vector to 0.

    A map whose kernel is known when it is built takes it here, as
    ``kernel``: the caller vouches that it is the kernel of ``matrix``.
    Otherwise the kernel is computed on first use.  Either way it is
    found once per map, as are the image and preimage of each subspace
    asked about.  The subspaces are interned, so they key the memo by
    identity; the memo holds its keys, so no id is reused while it is a
    key, and it dies with the map.

    ``unitary`` is set at construction, never inferred, and says that the
    map is unitary up to a positive scalar: M^dagger M = cI for some
    c > 0.  The caller vouches for it, as for the kernel: a gate lift
    (H as [[1, 1], [1, -1]] has H^dagger H = 2I), the checker's ``id``
    and a composite of two such maps.  A zero kernel alone does not
    qualify it: ``Frame.lift`` builds invertible maps that are not
    unitary.

    A composite built by ``then`` holds its two maps, not their product:
    ``dim``, the kernel it knows and the unitary mark are set when it is
    built, and ``matrix`` is formed on its first read, once, after which
    the composite drops its factors.  A preimage under a unitary composite
    not yet formed is taken through the factors (see ``preimage_closed``).
    """

    __slots__ = ("_matrix", "dim", "unitary", "_first", "_second", "_kernel",
                 "_images", "_preimages", "__weakref__")

    def __init__(self, matrix: Matrix, kernel: Subspace | None = None,
                 unitary: bool = False):
        if matrix.rows != matrix.cols:
            raise ValueError("maps must be square")
        self._matrix = matrix
        self.dim = matrix.rows
        self.unitary = unitary
        self._first = self._second = None
        self._kernel = kernel
        self._images = {}
        self._preimages = {}

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            self._form()
        return self._matrix

    def _form(self):
        """Form the matrix of this composite and of every composite below it
        not formed yet, inner ones first, each once, dropping their
        factors; by a loop over the factor tree, so a long word needs no
        deep stack."""
        stack = [self]
        while stack:
            pm = stack[-1]
            if pm._first is None:  # formed since it was pushed
                stack.pop()
                continue
            waiting = [f for f in (pm._first, pm._second) if f._first is not None]
            if waiting:
                stack += waiting
            else:
                stack.pop()
                pm._matrix = pm._second._matrix * pm._first._matrix
                pm._first = pm._second = None

    def _after(self, rows: Matrix) -> Matrix:
        """rows * M, multiplied through the factors of a composite not yet
        formed, the last map first: rows * M_second * M_first, so each step
        takes the thin block of rows times one map."""
        stack = [self]
        while stack:
            pm = stack.pop()
            if pm._first is None:
                rows = rows * pm._matrix
            else:
                stack += (pm._first, pm._second)
        return rows

    def then(self, other: "PartialMap") -> "PartialMap":
        """self followed by other (matrix other * self), formed on first read.

        When other is known to be injective, ker(other * self) = ker self,
        so the composite takes self's kernel, known or not: a gate word,
        or a test followed by gates, is never eliminated for its kernel.
        It is unitary when both maps are: (NM)^dagger NM = c_M c_N I."""
        if other.dim != self.dim:
            raise ValueError("map dimensions differ")
        injective = other._kernel is not None and other._kernel.is_zero()
        pm = object.__new__(PartialMap)
        pm._matrix = None
        pm.dim = self.dim
        pm.unitary = self.unitary and other.unitary
        pm._first, pm._second = self, other
        pm._kernel = self._kernel if injective else None
        pm._images = {}
        pm._preimages = {}
        return pm

    def kernel(self) -> Subspace:
        if self._kernel is None:
            self._kernel = Subspace(self.matrix.kernel_basis(), self.dim,
                                    _canonical=True)
        return self._kernel

    def image_of(self, sub: Subspace) -> Subspace:
        """Span of the pointwise image of a subspace: M x for each basis
        row x, one row each, in one matrix-vector pass."""
        image = self._images.get(sub)
        if image is None:
            image = Subspace(self.matrix.apply(sub.basis), self.dim)
            self._images[sub] = image
        return image

    def preimage_closed(self, sub: Subspace) -> Subspace:
        """{x : M x lands in sub (possibly at zero)}.

        For a unitary map and sub of at most half the dimension, it is
        the span of M^dagger a for the rows a of sub's basis A, read as
        conj(conj(A) * M): M^-1 = M^dagger / c, so the preimage is the
        image under the adjoint, and its rows are eliminated, none for a
        ray.  Under a composite not yet formed, conj(A) * M is taken
        through the factors, conj(A) * M_second * M_first, down to the
        gates: dim A rows times one sparse map per step, and M is never
        formed.  Otherwise it is ker(conj(B) * M), where the rows of B span
        sub's orthocomplement (for a unitary map, the smaller side): a
        vector lies in sub exactly when it is orthogonal to every row of
        B.
        """
        pre = self._preimages.get(sub)
        if pre is None:
            if self.unitary and 2 * sub.dim <= self.dim:
                pre = Subspace(self._after(sub.basis.conj()).conj(), self.dim)
            elif sub.is_full():
                pre = Subspace.full(self.dim)
            else:
                reduced = sub.ortho().basis.conj() * self.matrix
                pre = Subspace(reduced.kernel_basis(), self.dim, _canonical=True)
            self._preimages[sub] = pre
        return pre

    def is_local(self, frame: "Frame", qubits: Iterable[int]) -> bool:
        """True iff the map factors as (something on qubits) tensor identity,
        that is, equals the lift of its own block on those qubits."""
        inside = sorted(qubits)
        return self == frame.lift(frame.block(self, inside), inside)

    def __eq__(self, other):
        if not isinstance(other, PartialMap):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"PartialMap({self.dim}x{self.dim})"


# Each gate on its own qubits, the first target being the high bit.
GATES = {
    "X": Matrix([[0, 1], [1, 0]]),
    "Z": Matrix([[1, 0], [0, -1]]),
    "H": Matrix([[1, 1], [1, -1]]),
    "CNOT": Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
}

LOCAL_STATES = {
    "0": (ONE, ZERO),
    "1": (ZERO, ONE),
    "+": (ONE, ONE),
    "-": (ONE, GaussianRational(-1)),
}

# Values that depend on n alone, shared by every frame of n qubits and
# filled on first use: n -> (kind, targets) -> gate-lift matrix, and n ->
# (char, qubit) -> lift of a named state.
_GATE_MATRICES: dict = {}
_NAMED_LIFTS: dict = {}
_NAMED_ROWS = {char: Matrix([amps]) for char, amps in LOCAL_STATES.items()}


@cache
def _layout(n: int, qubits: tuple) -> tuple:
    """``Frame.layout`` of n qubits on ``qubits``, which are valid."""
    rest = tuple(q for q in range(1, n + 1) if q not in qubits)
    flat = [0]
    for q in qubits + rest:
        flat = [i | b << (n - q) for i in flat for b in (0, 1)]
    width = 1 << (n - len(qubits))
    return tuple(tuple(flat[a:a + width]) for a in range(0, 1 << n, width))


@cache
def _where(n: int, qubits: tuple) -> tuple:
    """The inverse of ``_layout(n, qubits)``: the (a, b) of each basis index."""
    out = [None] * (1 << n)
    for a, line in enumerate(_layout(n, qubits)):
        for b, c in enumerate(line):
            out[c] = (a, b)
    return tuple(out)


def _lifted(n: int, qubits: tuple, part: Subspace) -> Subspace:
    """part (x) H_rest, for the canonical ``part`` on the sorted ``qubits``
    of an n-qubit register, with no elimination: the placed tensor of
    RREFs, laid out in lead order, is the RREF.  A nonzero lift on fewer
    than n qubits keeps (n, qubits, part), and of a ray part, which is
    what ``Matrix.split`` reads off it, its product form on the qubits."""
    table = _layout(n, qubits)
    basis = part.basis.tensor(Matrix.identity(len(table[0])), table)
    sub = Subspace(basis.in_lead_order() if part.dim > 1 else basis, 1 << n,
                   _canonical=True)
    if len(qubits) < n and not part.is_zero():
        sub._local = (n, qubits, part)
        if part.dim == 1:
            sub._forms.setdefault(qubits, (part, Subspace.full(len(table[0]))))
    return sub


def _meet_of_lifts(a: Subspace, b: Subspace) -> Subspace | None:
    """The meet of lifts P (x) H_rest on I and Q (x) H_rest on J when I and
    J are disjoint: P (x) Q (x) H_rest on their union K, the tensor of the
    parts placed by the layout of a |K|-qubit register on I's places in
    K, with no elimination.  None for any other pair."""
    if a._local is None or b._local is None:
        return None
    n, i, p = a._local
    _, j, q = b._local
    if not set(i).isdisjoint(j):
        return None
    k = tuple(sorted(i + j))
    table = _layout(len(k), tuple(k.index(x) + 1 for x in i))
    part = Subspace(p.basis.tensor(q.basis, table).in_lead_order(),
                    1 << len(k), _canonical=True)
    return _lifted(n, k, part)


class Frame:
    """An n-qubit register with its gates and locality structure.  It
    remembers nothing: what depends on n alone is kept per process."""

    __slots__ = ("n", "dim", "__weakref__")

    def __init__(self, n: int):
        if n < 1:
            raise BadIndex("a frame needs at least one qubit")
        self.n = n
        self.dim = 2 ** n

    # ----- qubit layout ------------------------------------------------------

    def check_qubits(self, qubits: Iterable[int]) -> tuple:
        qs = tuple(qubits)
        for q in qs:
            if not 1 <= q <= self.n:
                raise BadIndex(f"qubit {q} outside 1..{self.n}")
        if len(set(qs)) != len(qs):
            raise BadIndex(f"repeated qubit in {qs}")
        return qs

    def layout(self, qubits: Iterable[int]) -> tuple:
        """The basis index of |a> on the listed qubits and |b> on the rest,
        as table[a][b].

        The first listed qubit is the high bit of a; b lists the other
        qubits in ascending order.  This is the one place where a qubit
        number becomes a bit position: qubit q is bit n - q of an index.
        """
        return _layout(self.n, self.check_qubits(qubits))

    # ----- states ------------------------------------------------------------

    def ray(self, amps: Iterable) -> Subspace:
        """The state of a nonzero amplitude vector: its one-dimensional span."""
        amps = list(amps)
        if len(amps) != self.dim:
            raise InputError("amplitude count differs from frame dimension")
        row = Matrix([amps])
        if row == Matrix.zeros(1, self.dim):
            raise InputError("a ray needs a nonzero amplitude vector")
        return Subspace(row, self.dim)

    # ----- gates and blocks --------------------------------------------------

    def gate(self, kind: str, targets: Sequence[int]) -> PartialMap:
        """The lift of a gate: a new map, with memos of its own, over the
        matrix that every frame of n qubits shares."""
        key = (kind, tuple(targets))
        matrices = _GATE_MATRICES.setdefault(self.n, {})
        matrix = matrices.get(key)
        if matrix is None:
            if kind not in GATES:
                raise BadIndex(f"unknown gate {kind!r}")
            matrix = matrices[key] = self.lift(GATES[kind], key[1]).matrix
        # every gate is unitary up to a scalar, so its lift has kernel 0
        return PartialMap(matrix, Subspace.zero(self.dim), unitary=True)

    def lift(self, g: Matrix, qubits: Sequence[int]) -> PartialMap:
        """g on the listed qubits (in layout order) tensor identity elsewhere:
        row (a, b) of g (x) I, placed by the layout, is row table[a][b],
        and so is its column."""
        table = self.layout(qubits)
        if g.shape != (len(table), len(table)):
            raise BadIndex(f"a {g.rows}x{g.cols} matrix cannot act on {qubits}")
        return PartialMap(g.tensor(Matrix.identity(len(table[0])), table, table))

    def block(self, pm: PartialMap, qubits: Sequence[int]) -> Matrix:
        """The map on the listed qubits with the others held at |0...0>:
        entry [a][c] is the amplitude of |a>|0...0> in M(|c>|0...0>).
        ``PartialMap.is_local`` compares a map with the lift of this."""
        if pm.dim != self.dim:
            raise ValueError("map dimension differs from frame")
        at_zero = [row[0] for row in self.layout(qubits)]
        return pm.matrix.gather(at_zero, (at_zero,))

    # ----- locality ----------------------------------------------------------

    def reachable(self, state: Subspace, qubits: Iterable[int]) -> Subspace:
        """States reachable from a state by actions local to the given qubits.

        An I-local map turns the reshaped matrix M into G*M, so reachable
        states are exactly H_I tensor (row space of M): the lift of that
        canonical row space on the other qubits.
        """
        inside = sorted(qubits)
        table = self.layout(inside)
        rest = tuple(q for q in range(1, self.n + 1) if q not in inside)
        if not rest:
            return Subspace.full(self.dim)
        rows = state.basis.gather((0,), table).row_basis()
        return _lifted(self.n, rest, Subspace(rows, len(table[0]), _canonical=True))

    def map_to_state(self, g: Matrix, i: int, j: int) -> Subspace:
        """States whose {i,j} component encodes the 2x2 map g.

        g's column a lists the image of basis state a; the encoded 2-qubit
        state puts amplitude g[beta][alpha] on |alpha>_i |beta>_j.  The
        result is that state tensored with everything on the other qubits,
        which is a subspace (empty when g = 0).
        """
        if g.shape != (2, 2):
            raise ValueError("need a 2x2 matrix")
        # g[beta][alpha] goes on |alpha>_i |beta>_j, and the part row has
        # the lower-numbered qubit as the high bit
        return self.row_lift((g.transpose() if i < j else g).flatten(), (i, j))

    def row_lift(self, row: Matrix, qubits: Iterable[int]) -> Subspace:
        """``state_lift`` of the part-state held as a one-row matrix, as
        ``_lifted`` builds it on the sorted qubits."""
        qubits = tuple(sorted(qubits))
        table = self.layout(qubits)
        if row.cols != len(table):
            raise ValueError("need one amplitude per part basis state")
        return _lifted(self.n, qubits, Subspace(row, len(table)))

    def state_lift(self, amps: Sequence, qubits: Iterable[int]) -> Subspace:
        """States whose I-component is the given part-state: part x H_rest.

        One amplitude per part basis index, the lowest-numbered qubit of I
        being the most significant bit, as everywhere else.
        """
        return self.row_lift(Matrix([tuple(amps)]), qubits)

    def named_lift(self, char: str, qubit: int) -> Subspace:
        """``state_lift`` of the named state ``LOCAL_STATES[char]`` on one
        qubit, computed once per process and found by (char, qubit)."""
        lifts = _NAMED_LIFTS.setdefault(self.n, {})
        lifted = lifts.get((char, qubit))
        if lifted is None:
            lifted = lifts[char, qubit] = self.row_lift(_NAMED_ROWS[char], (qubit,))
        return lifted

    def product_form(self, sub: Subspace, qubits: Iterable[int]
                     ) -> tuple[Subspace, Subspace] | None:
        """(part, rest) with sub = part (x) rest, part on I and one of the
        two a single ray; None otherwise, and for the zero subspace.

        Computed once per subspace and qubit set; a lift of a ray part on
        I is built with it.  Otherwise it comes from ``Matrix.split`` of
        the RREF basis through the inverse of the layout of sorted I: every
        basis row, reshaped with I indexing rows, must be rank one, and
        all must share their column x (then sub = x (x) V) or their row y
        (then sub = V (x) y).  The other factors, read along the pivot's
        line, are already the RREF of V, so nothing is eliminated.  A
        nonzero subspace all of whose rays are I-separated always has this
        form: two elements differing in both factors would superpose to an
        entangled vector.
        """
        key = tuple(sorted(self.check_qubits(qubits)))
        if sub.ambient != self.dim:
            raise ValueError("subspace dimension differs from frame")
        if key not in sub._forms:
            sub._forms[key] = self._factor(sub, key)
        return sub._forms[key]

    def _factor(self, sub: Subspace, qubits: tuple
                ) -> tuple[Subspace, Subspace] | None:
        """``product_form`` on sorted ``qubits``, with no elimination."""
        if sub.is_zero():
            return None
        shape = (1 << len(qubits), self.dim >> len(qubits))
        factors = sub.basis.split(_where(self.n, qubits), shape)
        if factors is None:
            return None
        return (Subspace(factors[0], shape[0], _canonical=True),
                Subspace(factors[1], shape[1], _canonical=True))

    def __repr__(self):
        return f"Frame(n={self.n})"


# ----- state files ---------------------------------------------------------


def parse_state(text: str) -> tuple[int, Subspace]:
    """Read the 'n=<k>' header plus 2^k lines of '<re> <im>' rationals.

    k is ASCII decimal digits with no leading zero: no sign, space, '_'
    or digits of another script."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise InputError("state file must start with 'n=<qubits>'")
    if not re.fullmatch(r"n=(0|[1-9][0-9]*)", lines[0]):
        raise InputError("bad qubit count in state file")
    n = int(lines[0][2:])
    if n < 1:
        raise InputError("state file needs at least one qubit")
    body = lines[1:]
    # n is bounded by the line count before 2 ** n is formed
    if n > len(body).bit_length() or len(body) != 2 ** n:
        raise InputError(f"expected 2^{n} amplitude lines, found {len(body)}")
    amps = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"amplitude line needs '<re> <im>': {ln!r}")
        amps.append(GaussianRational(parse_rational(parts[0]), parse_rational(parts[1])))
    return n, Frame(n).ray(amps)


def format_state(n: int, state: Subspace) -> str:
    """The state file of a state: its amplitudes scaled to a leading 1."""
    lines = [f"n={n}"]
    for a in state.basis.entries[0]:
        lines.append(f"{a.re} {a.im}")
    return "\n".join(lines) + "\n"
