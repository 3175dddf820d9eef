"""Idempotent completion of the graded model category.

Objects are pairs (ambient space, idempotent endomorphism).  The Schur
functor S_lam is defined by the central idempotent e_lam of Q[S_n], and
its verdicts are read off orbit types (below).  Classification reads
kim_+ and kim_- as the ranks r of the even and odd parts and checks the
witnesses Lambda^(r+1) X+ = 0 != Lambda^r X+ and S^(r+1) X- = 0 != S^r X-.

Over Q[eps]/(eps^k) the image W of an idempotent is free of the rank of
its realization (Lam, A First Course in Noncommutative Rings, 21), and
Schur images are invariants up to isomorphism (Kimura 2005, 3), so
S_lam X is isomorphic to S_lam W.  ``schur_apply`` therefore takes every
summand to its verified free image (``KaroubiObject.free_image``, split
by one elimination of the realization per direction) and returns the
verdicts of the Schur image of that full object, a summand of W^(n).
The split preserves parity, so ``split_parity`` returns the even and odd
blocks of W as full objects, and the powers that ``s_wedge`` and
``classify`` read are those of the blocks: each summand is eliminated
once.

Schur functors are read off orbit types, never by summing n! signed
permutation operators over the d^n basis tensors.  e_lam lies in Q[S_n],
so it keeps the span of each orbit of basis tensors, and that span is
induced from the stabilizer of the orbit's labels, trivial on an even label
and sign on an odd one.  By the Pieri rules it holds K_lam copies of the
irreducible of lam, so e_lam has trace f^lam K_lam there, where the strip
count K_lam grows lam by one horizontal strip per even label and then one
vertical strip per odd label (Berele-Regev; Macdonald, Symmetric Functions
and Hall Polynomials, I.5).  Under Lambda and S the count is 1 or 0: a type
survives unless a label of the cancelling parity repeats, even under
Lambda and odd under S.  The rank is the sum over types of
count . f^lam . K_lam, and the super dimension the same sum with each type
signed by the parity of its odd slots, checked against C(p + q + n - 1, n)
orbits in all, the Berele-Regev hook rule (S_lam = 0 iff lam_{p+1} > q)
and the rank f^lam hs_lam(1^p | 1^q) of the super Jacobi-Trudi
determinant (``symgroup.hook_schur``).  So the tensor cap bounds the
number of orbits C(r + n - 1, n) of a rank-r image, not its r^n basis
tensors, and the partition bound n <= 12 the degree; no Schur verdict
forms a group-algebra element.

A Schur image is its verdicts: ``schur_apply`` and ``s_wedge`` return a
``SchurImage`` of rank and super dimension, and no idempotent is built on
a tensor power.  ``s_wedge`` reads SLambda^n X off its terms
Lambda^i X+ (x) S^(n-i) X-, whose ranks and super dimensions multiply.

The zero test for an object is "the idempotent matrix is exactly zero".
This is equivalent to the realization being zero: an idempotent all of
whose entries lie in the nilpotent ideal (eps) is zero, because e = e^(2^m)
has entries in (eps^(2^m)) for every m.

The super dimension of a Schur image has a closed form that materializes
nothing: a permutation with c cycles has supertrace (dim X)^c on the n-th
tensor power of X, so the character sum over cycle types needs only
dim X.  ``schur_super_dimension`` uses it as the independent second route
next to the super dimension read off the orbit types.

``tate_twist`` by r tensors with the weight -2r line, shifting every
ambient weight by -2r; the weights are the only record of it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb, factorial, perm, prod
from typing import NamedTuple

from .errors import InvariantError, SizeCapError
from .symgroup import (
    Partition,
    character,
    conjugacy_class_size,
    hook_dimension,
    hook_schur,
    partitions,
)
from .supercat import (
    EVEN,
    ODD,
    SuperMorphism,
    SuperSpace,
    TENSOR_DIM_CAP,
    fraction_free_reduce,
    invert_unit,
)


class KaroubiObject:
    """A direct summand of an ambient graded space, cut out by an idempotent.

    ``KaroubiObject(ambient, idem)`` checks that idem is an idempotent
    endomorphism of ambient.  Its free image is kept on it; its Schur
    images are those of the free image's parities, kept for the process.
    """

    __slots__ = ("idem", "_dimension", "_rank", "_free")

    def __new__(cls, ambient: SuperSpace, idem: SuperMorphism):
        if idem.source != ambient or idem.target != ambient:
            raise ValueError("idempotent must be an endomorphism of the ambient space")
        if not idem.is_idempotent():
            raise ValueError("defining endomorphism is not idempotent")
        return cls._of(idem)

    @classmethod
    def _of(cls, idem: SuperMorphism) -> "KaroubiObject":
        """The summand cut out by ``idem``, which the caller knows to be an
        idempotent endomorphism of ``idem.source``; its trace must still be an
        integer constant."""
        tr = idem.supertrace()
        if not tr.eps_part_is_zero() or tr.realization().denominator != 1:
            raise ValueError(f"idempotent trace {tr} is not an integer constant")
        obj = object.__new__(cls)
        obj.idem = idem
        obj._dimension = int(tr.realization())
        obj._rank = None
        obj._free = None
        return obj

    @classmethod
    def full(cls, space: SuperSpace) -> "KaroubiObject":
        return cls._of(SuperMorphism.identity(space))

    @classmethod
    def unit(cls, k: int = 1) -> "KaroubiObject":
        return cls.full(SuperSpace.unit(k))

    @classmethod
    def lefschetz(cls, r: int, k: int = 1) -> "KaroubiObject":
        """The invertible weight-2r line (the r-th power of the weight-2 line)."""
        return cls.full(SuperSpace.line(EVEN, 2 * r, k))

    @property
    def ambient(self) -> SuperSpace:
        return self.idem.source

    @property
    def k(self) -> int:
        return self.idem.source.k

    def dimension(self) -> int:
        """Supertrace of the idempotent, the integer the constructor checked."""
        return self._dimension

    def classical_rank(self) -> int:
        """Rank of the realization, ignoring parity signs."""
        if self._rank is None:
            total = self.idem.trace().realization()
            if total.denominator != 1:
                raise InvariantError(
                    f"idempotent realization trace {total} is not an integer")
            self._rank = int(total)
        return self._rank

    def is_zero(self) -> bool:
        """The zero test: the idempotent matrix is exactly zero."""
        return self.idem.is_zero()

    def free_image(self) -> tuple["KaroubiObject", SuperMorphism, SuperMorphism]:
        """``(w, a, b)``: the full object w on the free image W of the
        idempotent e on V, with b . a = id_W and a . b = e checked; kept on
        the object, and a full object is its own free image.

        J and K are the pivot columns and pivot rows of the realization,
        found by one fraction-free elimination per direction and listed by
        (parity, weight, index), so V on J and V on K are the same space W;
        a = e iota_J and b = (pi_K e iota_J)^-1 pi_K e.  The realization
        preserves parity and weight, so a column is a pivot exactly when it
        is one inside its (parity, weight) block.
        """
        if self._free is not None:
            return self._free
        e = self.idem
        if e.is_identity():
            self._free = (self, e, e)
            return self._free
        space = e.source
        span = range(space.dim)
        real = {(i, j): t[0] for i, j, t in e.numerators() if t[0]}

        def order(i):
            return space.parities[i], space.weights[i], i

        # elimination works in place: one fresh matrix per direction
        cols = sorted(fraction_free_reduce(
            [[real.get((i, j), 0) for j in span] for i in span])[0], key=order)
        rows = sorted(fraction_free_reduce(
            [[real.get((i, j), 0) for i in span] for j in span])[0], key=order)
        w = SuperSpace._of(tuple(space.parities[j] for j in cols),
                           tuple(space.weights[j] for j in cols), space.k)
        proj = SuperMorphism.from_entries(space, w, {(r, i): 1 for r, i in enumerate(rows)})
        incl = SuperMorphism.from_entries(w, space, {(j, c): 1 for c, j in enumerate(cols)})
        a = e.compose(incl)
        b = invert_unit(proj.compose(a)).compose(proj.compose(e))
        if b.compose(a) != SuperMorphism.identity(w):
            raise InvariantError(f"free image of rank {w.dim}: b . a != id_W")
        if a.compose(b) != e:
            raise InvariantError(f"free image of rank {w.dim}: a . b != e")
        self._free = (KaroubiObject.full(w), a, b)
        return self._free

    def fingerprint(self):
        return self.idem.fingerprint()

    def __repr__(self):
        return f"KaroubiObject(rank={self.classical_rank()}, dim={self.dimension()})"


class FiniteDimReport(NamedTuple):
    """Outcome of the finite-dimensionality search.

    ``kim_plus`` is the largest n with a nonvanishing n-th exterior power
    of the even part, ``kim_minus`` the largest n with a nonvanishing
    symmetric power of the odd part.  ``kind`` is "even" when the odd part
    vanishes, "odd" when the even part vanishes, "mixed" otherwise.
    The zero object satisfies both vanishing conditions and is reported
    as "even" with both indices 0.
    """

    kind: str
    kim_plus: int
    kim_minus: int
    dim: int

    @property
    def evenly_finite_dimensional(self) -> bool:
        return self.kim_minus == 0

    @property
    def oddly_finite_dimensional(self) -> bool:
        return self.kim_plus == 0


# --- Schur functors ---------------------------------------------------------

# A full object's Schur image depends only on the parities of its basis and
# on lam, not on k: the trace of e_lam on an orbit depends only on the
# orbit's type, since Koszul signs see only which slots are odd.
# ``_schur_image`` keeps one image per (parities, lam) for the whole process,
# and every Schur image is read off it on the free image of the summand.


@cache
def _schur_image(parities: tuple[int, ...], lam: Partition) -> SchurImage:
    """The image of e_lam on the n-th power of the full object with basis
    ``parities``: rank the sum over orbit types of count . f^lam . K_lam
    (``_strip_count``), the trace of e_lam on their orbits, and super
    dimension the same sum with each type signed by the parity of its odd
    slots.  Checked against C(d + n - 1, n) orbits, the hook rule and the
    rank f^lam hs_lam(1^p | 1^q), each raising ``InvariantError``.
    """
    n, d = lam.n, len(parities)
    if not d:  # the zero space: its 0-th power is the unit
        return SchurImage(int(n == 0), int(n == 0))
    p, q = parities.count(EVEN), parities.count(ODD)
    kinds = _orbit_types(p, q, n)
    where = f"S_{lam.parts} of the full ({p}|{q}) object"
    orbits = sum(kinds.values())
    if orbits != comb(d + n - 1, n):
        raise InvariantError(f"{where} has {orbits} orbits, not C({d + n - 1}, {n})")
    f = hook_dimension(lam)
    rank = dimension = 0
    for kind, count in kinds.items():
        t = count * f * _strip_count(lam, kind)
        rank += t
        dimension += -t if sum(mult for mult, parity in kind if parity) & 1 else t
    zero = rank == 0
    if zero != (len(lam) > p and lam[p] > q):
        raise InvariantError(
            f"{where} is {'zero' if zero else 'nonzero'}, against the hook rule")
    want = f * hook_schur(lam, p, q)
    if rank != want:
        raise InvariantError(f"{where} has rank {rank} and super dimension {dimension}, "
                             f"against f^lam hs_lam = {want}")
    return SchurImage(rank, dimension)


@cache
def _strip_count(lam: Partition, kind: tuple) -> int:
    """K_lam(kind): the ways to grow lam from the empty shape by one
    horizontal strip per even label and then one vertical strip per odd
    label, each of its label's multiplicity.  It counts the (p|q)-semistandard
    supertableaux of shape lam and content kind (Berele-Regev; Macdonald,
    Symmetric Functions and Hall Polynomials, I.5), and is 1 or 0 on a
    single row or column: the type survives S unless an odd label repeats,
    and Lambda unless an even one does."""
    shapes = {(0,) * len(lam): 1}
    for mult, parity in kind:  # even labels come first
        grown: dict[tuple[int, ...], int] = {}
        for mu, ways in shapes.items():
            for nu in _strips(mu, mult, lam.parts, parity == ODD):
                grown[nu] = grown.get(nu, 0) + ways
        shapes = grown
    return shapes.get(lam.parts, 0)


def _strips(mu: tuple[int, ...], m: int, lam: tuple[int, ...],
            vertical: bool) -> list[tuple[int, ...]]:
    """The shapes nu inside lam, row lengths padded to len(lam), with nu / mu
    a strip of m boxes: at most one box per column (nu_i <= mu_(i-1)), or per
    row when ``vertical`` (nu_i <= mu_i + 1 and nu_i <= nu_(i-1))."""
    out = []
    rows = len(mu)

    def grow(i: int, nu: tuple[int, ...], left: int) -> None:
        if not left:
            out.append(nu + mu[i:])
        elif i < rows and (not i or nu[i - 1]):  # rows below an empty row stay empty
            top = mu[i] + (1 if vertical else left)
            if i:
                top = min(top, nu[i - 1] if vertical else mu[i - 1])
            for row in range(mu[i], min(top, lam[i]) + 1):
                grow(i + 1, nu + (row,), left - row + mu[i])

    grow(0, (), m)
    return out


@cache
def _orbit_types(p: int, q: int, n: int) -> dict[tuple, int]:
    """``{kind: number of orbits}`` over the n-th tensor power of a (p|q)
    space, kind the (multiplicity, parity) pairs of an orbit's distinct
    indices, the even ones first and each parity's multiplicities
    decreasing.  A kind with l distinct even indices, r_m of them of
    multiplicity m, is realized p! / ((p - l)! prod r_m!) ways among the
    even indices, and likewise among the odd ones."""
    def placements(mults: tuple[int, ...], labels: int) -> int:
        return perm(labels, len(mults)) // prod(factorial(mults.count(m)) for m in set(mults))

    splits = _multiplicities(n)
    kinds = {}
    for a in range(n + 1):
        for even in splits[a]:
            for odd in splits[n - a]:
                if len(even) <= p and len(odd) <= q:
                    kind = tuple([(m, EVEN) for m in even] + [(m, ODD) for m in odd])
                    kinds[kind] = placements(even, p) * placements(odd, q)
    return kinds


@cache
def _multiplicities(n: int) -> list[list[tuple[int, ...]]]:
    """The parts of each partition of a, for a = 0 .. n."""
    return [[mu.parts for mu in partitions(a)] for a in range(n + 1)]


class SchurImage(NamedTuple):
    """A Schur image as its verdicts: the rank and super dimension read off
    the orbit types.  It carries no idempotent."""

    rank: int
    super_dimension: int

    def is_zero(self) -> bool:
        return self.rank == 0

    def classical_rank(self) -> int:
        return self.rank

    def dimension(self) -> int:
        return self.super_dimension


def schur_apply(lam: Partition, x: KaroubiObject,
                cap: int = TENSOR_DIM_CAP) -> SchurImage:
    """The image of the central idempotent attached to ``lam`` on w^(n), for
    w the free image of x (``KaroubiObject.free_image``), isomorphic to
    its image on x^(n).

    For w of dimension (p|q) the image is read off the orbit types
    (``_schur_image``), so ``cap`` bounds the number of orbits
    C(p + q + n - 1, n).  Images are kept for the process, one per
    (parities, lam): every call with the same w.ambient.parities and
    ``lam`` returns the same object.
    """
    parities, n = x.free_image()[0].ambient.parities, lam.n
    d = len(parities)
    if d and comb(d + n - 1, n) > cap:
        raise SizeCapError(f"orbit count C({d + n - 1}, {n}) = {comb(d + n - 1, n)} "
                           f"exceeds cap {cap}")
    return _schur_image(parities, lam)


def _degree(n: int) -> int:
    if n < 0:
        raise ValueError(f"Schur degree n = {n} is negative")
    return n


def wedge(n: int, x: KaroubiObject, cap: int = TENSOR_DIM_CAP) -> SchurImage:
    return schur_apply(Partition((1,) * _degree(n)), x, cap)


def sym(n: int, x: KaroubiObject, cap: int = TENSOR_DIM_CAP) -> SchurImage:
    return schur_apply(Partition((n,) if _degree(n) else ()), x, cap)


def schur_super_dimension(lam: Partition, x: KaroubiObject) -> Fraction:
    """Supertrace of the Schur idempotent via the character sum.

    A permutation with c cycles has supertrace (dim x)^c on x^(n), so the
    sum needs only ``x.dimension()`` and materializes nothing; it is the
    second route of the two-way dimension check.
    """
    n = lam.n
    dim = x.dimension()
    total = sum(conjugacy_class_size(ct) * character(lam, ct) * dim ** len(ct)
                for ct in partitions(n))
    return Fraction(hook_dimension(lam) * total, factorial(n))


# --- parity splitting and classification --------------------------------------


def split_parity(x: KaroubiObject) -> tuple[KaroubiObject, KaroubiObject]:
    """The even and odd parts of x, as the full objects on the even and odd
    basis vectors of its free image W, each kept in W's order.

    The split (a, b) of ``KaroubiObject.free_image`` is an isomorphism
    between W and the image of x that preserves parity, so it restricts to
    an isomorphism between each parity block of W and the matching summand
    x.idem . P_parity of the ambient (Kimura 2005, 3): the parts are those
    summands up to isomorphism, and no idempotent is built for them.
    """
    space = x.free_image()[0].ambient
    return tuple(
        KaroubiObject.full(SuperSpace._of(
            tuple(p for p in space.parities if p == parity),
            tuple(w for p, w in zip(space.parities, space.weights) if p == parity),
            space.k))
        for parity in (EVEN, ODD))


def classify(x: KaroubiObject, cap: int = TENSOR_DIM_CAP) -> FiniteDimReport:
    """kim_+ and kim_- are the ranks r of the parity parts, the even and odd
    blocks of x's free image (``split_parity``), once the witnesses
    Lambda^(r+1) X+ = 0 != Lambda^r X+ and S^(r+1) X- = 0 != S^r X- are
    checked; ``cap`` bounds the orbit count on those ranks."""
    kims = []
    for power, name, part in zip((wedge, sym), ("Lambda^{} X+", "S^{} X-"), split_parity(x)):
        r = part.ambient.dim
        for n in (r, r + 1):
            if power(n, part, cap).is_zero() != (n > r):
                raise InvariantError(f"{name.format(n)} is {'zero' if n == r else 'nonzero'} "
                                     f"on a part of rank {r}")
        kims.append(r)
    kim_plus, kim_minus = kims
    dimension = x.dimension()
    if dimension != kim_plus - kim_minus:
        raise InvariantError(
            f"dimension {dimension} != kim_plus {kim_plus} - kim_minus {kim_minus}")
    if kim_minus == 0:
        kind = "even"
    elif kim_plus == 0:
        kind = "odd"
    else:
        kind = "mixed"
    return FiniteDimReport(kind=kind, kim_plus=kim_plus, kim_minus=kim_minus,
                           dim=dimension)


# --- categorical operations -----------------------------------------------------


def direct_sum(*objects: KaroubiObject) -> KaroubiObject:
    """Block-diagonal sum of one or more objects that share k, in order."""
    return KaroubiObject._of(_block_diagonal([x.idem for x in objects]))


def _block_diagonal(idems: list[SuperMorphism]) -> SuperMorphism:
    """The block-diagonal sum of endomorphisms that share k, in order, over
    the lcm of their denominators."""
    if not idems:
        raise ValueError("empty direct sum")
    ambient = SuperSpace.concat(*(e.source for e in idems))
    offsets = accumulate((e.source.dim for e in idems), initial=0)
    return SuperMorphism._from_blocks(ambient, ambient,
                                      [(o, o, e) for o, e in zip(offsets, idems)])


def tensor_k(x: KaroubiObject, y: KaroubiObject) -> KaroubiObject:
    return KaroubiObject._of(x.idem.tensor(y.idem))


def dual_k(x: KaroubiObject) -> KaroubiObject:
    return KaroubiObject._of(x.idem.dual())


def tate_twist(x: KaroubiObject, r: int) -> KaroubiObject:
    """Tensor with the weight -2r line: every ambient weight shifts by -2r."""
    return tensor_k(KaroubiObject.lefschetz(-r, x.k), x)


def s_wedge(n: int, x: KaroubiObject,
            parity_split: tuple[KaroubiObject, KaroubiObject] | None = None,
            cap: int = TENSOR_DIM_CAP) -> SchurImage:
    """Direct sum of wedge(i, even part) (x) sym(j, odd part) over i+j = n.
    The parts are the even and odd blocks of x's free image
    (``split_parity``), so the sum is isomorphic to the summand of the
    ambient's n-th power and ``cap`` bounds the orbit counts on the ranks.
    Rank and super dimension sum the products of the factors' ones: they
    multiply under (x) and add under (+), and a zero factor has both 0."""
    _degree(n)
    plus, minus = parity_split if parity_split is not None else split_parity(x)
    terms = [(wedge(i, plus, cap), sym(n - i, minus, cap)) for i in range(n + 1)]
    return SchurImage(sum(a.classical_rank() * b.classical_rank() for a, b in terms),
                      sum(a.dimension() * b.dimension() for a, b in terms))


# --- splitting through a family of factorizations --------------------------------


class SummandDefectError(ValueError):
    """Raised when the given factorizations do not sum to the identity."""

    def __init__(self, defect: SuperMorphism):
        super().__init__(
            "sum of round trips differs from the identity; see .defect"
        )
        self.defect = defect


def assemble_summand(maps_in, maps_out):
    """Exhibit X as a direct summand of the sum of intermediate objects.

    ``maps_in`` are morphisms a_i: X -> Y_i and ``maps_out`` are
    b_i: Y_i -> X with sum(b_i . a_i) = id_X.  Returns (f, g, e) where
    f: X -> (+)Y_i and g: (+)Y_i -> X satisfy g . f = id_X and e = f . g
    is idempotent.
    """
    maps_in = list(maps_in)
    maps_out = list(maps_out)
    if not maps_in or len(maps_in) != len(maps_out):
        raise ValueError("need matching nonempty lists of maps")
    x = maps_in[0].source
    for a, b in zip(maps_in, maps_out):
        if a.source != x or b.target != x or b.source != a.target:
            raise ValueError("maps do not form round trips on a common object")
    ident = SuperMorphism.identity(x)
    total = SuperMorphism.zero(x, x)
    for a, b in zip(maps_in, maps_out):
        total = total + b.compose(a)
    if total != ident:
        raise SummandDefectError(total - ident)
    sum_space = SuperSpace.concat(*(a.target for a in maps_in))
    offsets = list(accumulate((a.target.dim for a in maps_in), initial=0))
    f = SuperMorphism._from_blocks(x, sum_space,
                                   [(o, 0, a) for o, a in zip(offsets, maps_in)])
    g = SuperMorphism._from_blocks(sum_space, x,
                                   [(0, o, b) for o, b in zip(offsets, maps_out)])
    e = f.compose(g)
    if g.compose(f) != ident:
        raise InvariantError("assembled g . f differs from the identity")
    return f, g, e
