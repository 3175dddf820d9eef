"""Idempotent completion of the graded model category.

Objects are pairs (ambient space, idempotent endomorphism).  Schur
functors act by the central group-algebra idempotents e_lam, realized as
signed permutation operators on a tensor power.  Classification reads
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
so it keeps the span of each orbit of basis tensors, and orbits whose
distinct indices carry the same (multiplicity, parity) pairs share one
block up to a parity-preserving relabelling.  Under the exterior and
symmetric powers that the finite-dimensionality tests ask for, a type's
block is zero when a label of the cancelling parity repeats, even under
Lambda and odd under S, and of rank one otherwise (Macdonald, Symmetric
Functions and Hall Polynomials, I.1), so their verdicts are survivor
counts and build no block.  Any other lam takes a type's column at the
sorted tuple I0 from the n!-term sum, and centrality carries it to the
rest of the block, checked against P_tau . e = e . P_tau for adjacent
slot swaps tau and for symmetry.  The rank is the sum over types of
count . tr(block), and the super dimension the same sum with each type
signed by the parity of its odd slots, checked against C(p + q + n - 1, n)
orbits in all, the Berele-Regev hook rule (S_lam = 0 iff lam_{p+1} > q)
and the rank f^lam hs_lam(1^p | 1^q) of the super Jacobi-Trudi
determinant (``symgroup.hook_schur``).  So the tensor cap bounds the
number of orbits C(r + n - 1, n) of a rank-r image, not its r^n basis
tensors.  Only a partition other than Lambda and S builds blocks, so only
it meets ``BLOCK_ENTRY_BOUND``, on the |orbit|^2 entries that they may
hold, and ``symgroup.CONVOLUTION_BOUND``, on the degree of the n!-term
idempotent that they sum.

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
next to the super dimension read off the blocks.

``tate_twist`` by r tensors with the weight -2r line, shifting every
ambient weight by -2r; the weights are the only record of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb, factorial, gcd, perm, prod

from .errors import InvariantError, SizeCapError
from .symgroup import (
    CONVOLUTION_BOUND,
    Partition,
    character,
    conjugacy_class_size,
    hook_dimension,
    hook_schur,
    partitions,
    young_idempotent,
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
        obj = cls._of(SuperMorphism.identity(space))
        obj._free = (obj, obj.idem, obj.idem)
        return obj

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


@dataclass(frozen=True)
class FiniteDimReport:
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
# on lam, not on k.  Any lam is block-diagonal by orbit, as e_lam lies in
# Q[S_n]; orbits whose (multiplicity, parity) pairs agree share a block up to
# a parity-preserving relabelling, since Koszul signs see only which slots
# are odd.  ``_schur_image`` keeps one image per (parities, lam) for the
# whole process, and every Schur image is read off it on the free image of
# the summand.

#: the most entries that the type blocks of one (parities, lam) may hold:
#: a type block is at most |orbit| x |orbit|
BLOCK_ENTRY_BOUND = 2**21


@cache
def _schur_image(parities: tuple[int, ...], lam: Partition) -> SchurImage:
    """The image of e_lam on the n-th power of the full object with basis
    ``parities``: rank the sum over orbit types of count . tr(block) / den,
    and super dimension the same sum with each type signed by the parity
    of its odd slots.

    Under Lambda and S a type survives, with a rank-one block, unless a
    label of the cancelling parity repeats, even under Lambda and odd
    under S; so their image counts survivors and builds no block.  Every
    other lam reads its blocks off ``_young_blocks``.  Both are checked
    against C(d + n - 1, n) orbits, the hook rule and the rank
    f^lam hs_lam(1^p | 1^q), each raising ``InvariantError``.
    """
    n, d = lam.n, len(parities)
    if not d:  # the zero space: its 0-th power is the unit
        return SchurImage(int(n == 0), int(n == 0))
    p, q = parities.count(EVEN), parities.count(ODD)
    if len(lam) in (1, n):  # S or Lambda, which agree at n <= 1
        cancelling = EVEN if len(lam) == n else ODD
        traces = {kind: (count, int(all(mult == 1 or parity != cancelling
                                        for mult, parity in kind)))
                  for kind, count in _orbit_types(p, q, n).items()}
        den = 1
    else:
        table, den = _young_blocks(parities, lam)
        traces = {kind: (count, sum(row.get(i, 0) for i, row in block.items()))
                  for kind, (_, block, count) in table.items()}
    where = f"S_{lam.parts} of the full ({p}|{q}) object"
    orbits = sum(count for count, _ in traces.values())
    if orbits != comb(d + n - 1, n):
        raise InvariantError(f"{where} has {orbits} orbits, not C({d + n - 1}, {n})")
    rank = dimension = 0
    for kind, (count, trace) in traces.items():
        t = count * trace
        rank += t
        dimension += -t if sum(mult for mult, parity in kind if parity) & 1 else t
    zero = rank == 0
    if zero != (len(lam) > p and lam[p] > q):
        raise InvariantError(
            f"{where} is {'zero' if zero else 'nonzero'}, against the hook rule")
    want = hook_dimension(lam) * hook_schur(lam, p, q)
    if rank != want * den or dimension % den:
        raise InvariantError(f"{where} has rank {Fraction(rank, den)} and super dimension "
                             f"{Fraction(dimension, den)}, against f^lam hs_lam = {want}")
    return SchurImage(rank // den, dimension // den)


def _young_blocks(parities: tuple[int, ...], lam: Partition) -> tuple[dict, int]:
    """``(table, den)``: the group-algebra idempotent of ``lam`` on the n-th
    tensor power as ``{kind: (orbit, block, count)}`` (``_central_blocks``)
    over one denominator, in lowest terms.

    Refused above ``CONVOLUTION_BOUND``, whose n!-term idempotent the blocks
    sum, and when the blocks could hold more than ``BLOCK_ENTRY_BOUND``
    entries.  The blocks are checked against adjacent slot swaps
    (``_check_slot_swaps``) and for symmetry, each raising
    ``InvariantError``.
    """
    if lam.n > CONVOLUTION_BOUND:
        raise SizeCapError(f"group algebra degree {lam.n} exceeds bound {CONVOLUTION_BOUND}")
    table, den = _central_blocks(parities, lam)
    g = den
    for _, block, _ in table.values():
        for row in block.values():
            g = gcd(g, *row.values())
        if g == 1:
            break
    else:
        table = {kind: (orbit, {i: {j: c // g for j, c in row.items()}
                                for i, row in block.items()}, count)
                 for kind, (orbit, block, count) in table.items()}
        den //= g
    _check_slot_swaps(table, parities, lam)
    # _type_block carries columns and keeps them as rows
    for kind, (_, block, _) in table.items():
        if any(block.get(j, {}).get(i) != c for i, row in block.items() for j, c in row.items()):
            p, q = parities.count(EVEN), parities.count(ODD)
            raise InvariantError(f"S_{lam.parts} of the full ({p}|{q}) object has an "
                                 f"asymmetric block of type {kind}")
    return table, den


def _central_blocks(parities: tuple[int, ...], lam: Partition) -> tuple[dict, int]:
    """``(table, den)``: e_lam on the n-th tensor power over
    ``young_idempotent(lam).den``, as ``{kind: (orbit, block, count)}``:
    kind is an orbit type (the sorted (multiplicity, parity) pairs of an
    orbit's distinct indices), orbit and block its labelled orbit and block
    (``_type_block``), count its number of orbits (``_orbit_types``)."""
    kinds = _orbit_types(parities.count(EVEN), parities.count(ODD), lam.n)
    size = sum(_orbit_size(kind) ** 2 for kind in kinds)
    if size > BLOCK_ENTRY_BOUND:
        raise SizeCapError(f"S_{lam.parts} type blocks of up to {size} entries exceed "
                           f"bound {BLOCK_ENTRY_BOUND}")
    elem = young_idempotent(lam)
    return ({kind: (*_type_block(kind, elem), count) for kind, count in kinds.items()},
            elem.den)


@cache
def _orbit_types(p: int, q: int, n: int) -> dict[tuple, int]:
    """``{kind: number of orbits}`` over the n-th tensor power of a (p|q)
    space.  A kind with l distinct even indices, r_m of them of
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
                    kind = tuple(sorted([(m, EVEN) for m in even] + [(m, ODD) for m in odd]))
                    kinds[kind] = placements(even, p) * placements(odd, q)
    return kinds


@cache
def _multiplicities(n: int) -> list[list[tuple[int, ...]]]:
    """The parts of each partition of a, for a = 0 .. n."""
    return [[mu.parts for mu in partitions(a)] for a in range(n + 1)]


def _orbit_size(kind: tuple) -> int:
    """The number of tensors in one orbit of the type."""
    return factorial(sum(mult for mult, _ in kind)) // prod(factorial(mult) for mult, _ in kind)


def _type_block(kind: tuple, elem) -> tuple[list[tuple[int, ...]], dict]:
    """``(orbit, block)``: the orbit of the sorted tuple I0 with label l
    repeated ``kind[l][0]`` times at parity ``kind[l][1]``, found by
    adjacent swaps from ``orbit[0]`` = I0, and the block of ``elem``'s
    operator with rows keyed by position in ``orbit``; a zero block is
    ``([], {})``.

    An adjacent swap tau sends e_J to s e_(tau J), s = -1 when both slots
    are odd.  Column I0 is the n!-term sum (``_young_column``); e commutes
    with P_tau, so column tau J is s P_tau (column J), and swaps from I0
    reach the whole orbit.  The operator is symmetric (chi(sigma) =
    chi(sigma^-1) and P_(sigma^-1) = P_sigma^T), so its columns are its
    rows.
    """
    odd = [parity for _, parity in kind]
    rep = tuple(label for label, (mult, _) in enumerate(kind) for _ in range(mult))
    orbit, pos = [rep], {rep: 0}
    swaps: list[list[tuple[int, int]]] = [[] for _ in rep[1:]]
    for t in orbit:
        for a, swap in enumerate(swaps):
            u = (*t[:a], t[a + 1], t[a], *t[a + 2:])
            j = pos.get(u)
            if j is None:
                j = pos[u] = len(orbit)
                orbit.append(u)
            swap.append((j, -1 if odd[t[a]] and odd[t[a + 1]] else 1))
    column = {pos[t]: c for t, c in _young_column(elem, rep, odd).items()}
    if not column:
        return [], {}
    block = {0: column}
    reached = [0]
    for i in reached:
        for swap in swaps:
            j, s = swap[i]
            if j not in block:
                block[j] = {swap[m][0]: s * swap[m][1] * c for m, c in block[i].items()}
                reached.append(j)
    return orbit, block


def _young_column(elem, rep: tuple[int, ...], odd: list[int]) -> dict:
    """Column ``rep`` of ``elem`` (label l of parity ``odd[l]``) as the sum
    over its permutations, each moving slot a to images[a] with the sign of
    its inversions among odd slots; nonzero numerators keyed by tuple."""
    n = len(rep)
    pairs = [(a, b) for b in range(n) for a in range(b) if odd[rep[a]] and odd[rep[b]]]
    acc: dict[tuple[int, ...], int] = {}
    for images, c in elem.numerators.items():
        target = [0] * n
        for a, b in enumerate(images):
            target[b] = rep[a]
        flips = sum(images[a] > images[b] for a, b in pairs)
        key = tuple(target)
        acc[key] = acc.get(key, 0) + (-c if flips & 1 else c)
    return {key: c for key, c in acc.items() if c}


def _check_slot_swaps(table: dict, parities: tuple[int, ...], lam: Partition) -> None:
    """Check P_tau . e = e . P_tau for each adjacent slot swap tau on the
    last row of each block, i.e. row tau I = s (row I) P_tau for P_tau e_I
    = s e_(tau I); raise ``InvariantError`` naming (parities, lam, tau).
    tau I and s are read off the labels of the orbit's tuples: slots a and
    a + 1 trade labels, and s = -1 when both are odd.  The last row of a
    block is its sorted labels in reverse, the row that ``_type_block``
    carries from the column at the sorted labels."""
    blocks = [(kind, orbit, block, {t: i for i, t in enumerate(orbit)})
              for kind, (orbit, block, _) in table.items() if block]
    for a in range(lam.n - 1):
        for kind, orbit, block, pos in blocks:
            def moved(t: tuple, c: int = 1) -> tuple[int, int]:
                """``(tau t, s c)`` for P_tau e_t = s e_(tau t), by position."""
                return (pos[(*t[:a], t[a + 1], t[a], *t[a + 2:])],
                        -c if kind[t[a]][1] and kind[t[a + 1]][1] else c)

            last = orbit[0][::-1]
            carried = dict(moved(orbit[m], c) for m, c in block.get(pos[last], {}).items())
            j, s = moved(last)
            if carried != {m: s * c for m, c in block.get(j, {}).items()}:
                raise InvariantError(f"S_{lam.parts} rows on parities {parities} "
                                     f"break P_tau . e = e . P_tau at tau = ({a}, {a + 1})")


@dataclass(frozen=True)
class SchurImage:
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
    Rank and super dimension sum the products of the factors' block-read
    ones: they multiply under (x) and add under (+), and a zero factor
    has both 0."""
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
