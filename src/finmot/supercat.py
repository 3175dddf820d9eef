"""Parity- and weight-graded spaces over the truncated ring Q[eps]/(eps^k).

This is the concrete model tensor category.  Objects are finite graded
spaces, stored as the parity (0 = even, 1 = odd) and the integer weight
of each basis vector, two tuples in basis order.  Morphisms are matrices
over Q[eps]/(eps^k) that preserve parity in every eps order and weight in
the eps^0 layer; the higher eps layers are weight-free.  The symmetry is
Koszul-signed, so odd lines anticommute.  Setting eps to 0 ("realization")
is a tensor functor, and a morphism is homologically trivial when its
realization vanishes.

Conventions fixed here and relied on everywhere else:

* even basis vectors come before odd ones in directly constructed spaces;
* tensor product bases are ordered row-major, leftmost factor most
  significant;
* matrices are stored sparsely (absent entry = exact zero), but carry
  dense semantics: every entry of a valid morphism is defined.

Storage is exact integers.  A ``SuperMorphism`` keeps one positive
denominator ``den``, a field width ``width`` = W and, for each nonzero
entry, one integer: the Kronecker packing ``c_0 + c_1 2^W + ... +
c_{k-1} 2^((k-1)W)`` of the signed numerators of
``(c_0 + c_1 eps + ... + c_{k-1} eps^(k-1)) / den``.  W is a rung of the
ladder 64, 128, 256, ...; rung W holds numerators in [-2^B, 2^B) for
B = W/2 - 8, and a morphism sits on the lowest rung that holds all of
its numerators.  With all-zero entries absent and ``gcd(den, every
numerator) == 1`` the form is canonical: equal morphisms have equal
``(width, den, rows)``.  Sums, products and tensor products work on the
packed integers.  A product of entries is their truncated convolution
plus fields for eps^k and beyond, which ``compose`` cuts away in the loop
that sums them (each sum starts at an offset, then one mask and subtract);
the 2B + bitlen(dim k) + 1 <= W headroom keeps every field exact, and
operands move up a rung when it does not.  The same mask tests each result
against the bound of its rung (the fit test).

``TruncatedScalar``, with ``fractions.Fraction`` coefficients, is the value
type at the API boundary only: the constructors accept it, and ``entry``,
``items``, ``trace`` and ``supertrace`` return it; ``numerators`` gives the
tuples.

The packed format is private to this module.  Other modules build
morphisms with ``from_entries`` or, from trusted numerator tuples,
``_from_numerators``, read them through ``numerators`` and the accessors
above, and reach block maps through two entry points:
``SuperMorphism._from_blocks`` places morphisms as non-overlapping blocks
of a larger one, and ``SuperSpace.concat`` lists the bases of spaces one
after another.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .errors import SizeCapError

#: dimension guard for tensor powers
TENSOR_DIM_CAP = 4096

EVEN = 0
ODD = 1

_ZERO_SCALARS: dict[int, "TruncatedScalar"] = {}
_ONE_SCALARS: dict[int, "TruncatedScalar"] = {}


class TruncatedScalar:
    """An element of Q[eps]/(eps^k) as its tuple of eps-coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("truncation order k must be >= 1")
        self.coeffs = coeffs

    @property
    def k(self) -> int:
        return len(self.coeffs)

    @classmethod
    def of(cls, value, k: int) -> "TruncatedScalar":
        return cls((Fraction(value),) + (Fraction(0),) * (k - 1))

    @classmethod
    def zero(cls, k: int) -> "TruncatedScalar":
        cached = _ZERO_SCALARS.get(k)
        if cached is None:
            cached = _ZERO_SCALARS[k] = cls((Fraction(0),) * k)
        return cached

    @classmethod
    def one(cls, k: int) -> "TruncatedScalar":
        cached = _ONE_SCALARS.get(k)
        if cached is None:
            cached = _ONE_SCALARS[k] = cls.of(1, k)
        return cached

    @classmethod
    def eps(cls, k: int, power: int = 1, coeff=1) -> "TruncatedScalar":
        if power < 1:
            raise ValueError("eps power must be >= 1")
        if power >= k:
            return cls.zero(k)
        coeffs = [Fraction(0)] * k
        coeffs[power] = Fraction(coeff)
        return cls(coeffs)

    def realization(self) -> Fraction:
        return self.coeffs[0]

    def eps_part_is_zero(self) -> bool:
        return not any(self.coeffs[1:])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_unit(self) -> bool:
        return bool(self.coeffs[0])

    def promoted(self, k: int) -> "TruncatedScalar":
        if k < self.k:
            raise ValueError("cannot demote a scalar")
        if k == self.k:
            return self
        return TruncatedScalar(self.coeffs + (Fraction(0),) * (k - self.k))

    def __add__(self, other: "TruncatedScalar") -> "TruncatedScalar":
        a, b = self.coeffs, other.coeffs
        if len(a) != len(b):
            raise ValueError("truncation orders differ")
        return TruncatedScalar(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "TruncatedScalar") -> "TruncatedScalar":
        a, b = self.coeffs, other.coeffs
        if len(a) != len(b):
            raise ValueError("truncation orders differ")
        return TruncatedScalar(tuple(x - y for x, y in zip(a, b)))

    def __neg__(self) -> "TruncatedScalar":
        return TruncatedScalar(tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return TruncatedScalar(tuple(x * f for x in self.coeffs))
        a, b = self.coeffs, other.coeffs
        k = len(a)
        if len(b) != k:
            raise ValueError("truncation orders differ")
        out = [Fraction(0)] * k
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(k - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return TruncatedScalar(out)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedScalar":
        if not self.is_unit():
            raise ZeroDivisionError(f"{self} is not a unit")
        a0 = self.coeffs[0]
        # x = a0 (1 + m) with m nilpotent; invert by a finite geometric series
        neg_m = TruncatedScalar(
            (Fraction(0),) + tuple(-c / a0 for c in self.coeffs[1:])
        )
        acc = TruncatedScalar.one(self.k)
        term = TruncatedScalar.one(self.k)
        for _ in range(self.k - 1):
            term = term * neg_m
            if term.is_zero():
                break
            acc = acc + term
        return acc * (Fraction(1) / a0)

    def __eq__(self, other):
        return isinstance(other, TruncatedScalar) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                bits.append(str(c))
            elif i == 1:
                bits.append(f"{c}*eps")
            else:
                bits.append(f"{c}*eps^{i}")
        return " + ".join(bits) if bits else "0"

    def __repr__(self):
        return f"TruncatedScalar({list(self.coeffs)!r})"


class SuperSpace:
    """A graded space: the parities and weights of its basis, in order.

    Equality compares the three fields and returns at once for the same
    object; the hash is that of the field tuple, so spaces key caches."""

    __slots__ = ("parities", "weights", "k")

    def __init__(self, parities: Iterable[int], weights: Iterable[int], k: int = 1):
        # lists would compare unequal to tuples and could not key a cache
        self.parities = parities = tuple(parities)
        self.weights = weights = tuple(weights)
        self.k = k
        if k < 1:
            raise ValueError("truncation order k must be >= 1")
        if len(parities) != len(weights):
            raise ValueError("parities and weights differ in length")
        if not set(parities) <= {EVEN, ODD}:
            raise ValueError(f"parity must be 0 or 1, got {set(parities) - {EVEN, ODD}}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not SuperSpace:
            return NotImplemented
        return (self.parities == other.parities and self.weights == other.weights
                and self.k == other.k)

    def __hash__(self):
        return hash((self.parities, self.weights, self.k))

    def __repr__(self):
        return f"SuperSpace(parities={self.parities!r}, weights={self.weights!r}, k={self.k!r})"

    @classmethod
    def _of(cls, parities: tuple[int, ...], weights: tuple[int, ...],
            k: int) -> "SuperSpace":
        """Trusted constructor from tuples built from valid spaces: equal
        lengths, parities in {0, 1} and k >= 1 hold, so nothing is checked."""
        self = object.__new__(cls)
        self.parities, self.weights, self.k = parities, weights, k
        return self

    @staticmethod
    def unit(k: int = 1) -> "SuperSpace":
        return SuperSpace((EVEN,), (0,), k)

    @staticmethod
    def zero_space(k: int = 1) -> "SuperSpace":
        return SuperSpace((), (), k)

    @staticmethod
    def standard(p: int, q: int, k: int = 1) -> "SuperSpace":
        """``p`` even vectors of weight 0 followed by ``q`` odd of weight 1."""
        return SuperSpace((EVEN,) * p + (ODD,) * q, (0,) * p + (1,) * q, k)

    @staticmethod
    def line(parity: int, weight: int, k: int = 1) -> "SuperSpace":
        return SuperSpace((parity,), (weight,), k)

    @property
    def dim(self) -> int:
        return len(self.parities)

    @property
    def p(self) -> int:
        return self.parities.count(EVEN)

    @property
    def q(self) -> int:
        return self.parities.count(ODD)

    def with_k(self, k: int) -> "SuperSpace":
        if k < 1:
            raise ValueError("truncation order k must be >= 1")
        return SuperSpace._of(self.parities, self.weights, k)

    @staticmethod
    def concat(*spaces: "SuperSpace") -> "SuperSpace":
        """The bases of one or more spaces that share k, one after another."""
        k = spaces[0].k
        if any(x.k != k for x in spaces):
            raise ValueError("truncation orders differ")
        return SuperSpace._of(tuple(chain.from_iterable(x.parities for x in spaces)),
                              tuple(chain.from_iterable(x.weights for x in spaces)), k)


def tensor(x: SuperSpace, y: SuperSpace) -> SuperSpace:
    """Ordered product basis; parity adds mod 2, weight adds."""
    if x.k != y.k:
        raise ValueError("truncation orders differ")
    return SuperSpace._of(tuple([px ^ py for px in x.parities for py in y.parities]),
                          tuple([wx + wy for wx in x.weights for wy in y.weights]), x.k)


def tensor_power(x: SuperSpace, n: int) -> SuperSpace:
    """The n-fold product basis, row-major, as one space: the tuples grow
    factor by factor and no intermediate space is built."""
    parities, weights = [EVEN], [0]
    for _ in range(n):
        parities = [a ^ b for a in parities for b in x.parities]
        weights = [a + b for a in weights for b in x.weights]
    return SuperSpace._of(tuple(parities), tuple(weights), x.k)


def dual(x: SuperSpace) -> SuperSpace:
    """Same parities, negated weights, same basis order."""
    return SuperSpace._of(x.parities, tuple([-w for w in x.weights]), x.k)


def _scalar_ints(value, k: int) -> tuple[tuple[int, ...], int]:
    """(numerators, positive denominator) of a TruncatedScalar, int or
    Fraction at truncation order ``k``, in lowest terms."""
    if isinstance(value, TruncatedScalar):
        if value.k != k:
            raise ValueError("scalar truncation order differs from spaces")
        coeffs = value.coeffs
    else:
        coeffs = (Fraction(value),) + (Fraction(0),) * (k - 1)
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


#: the lowest rung of the width ladder 64, 128, 256, ...
_BASE_WIDTH = 64


def _bound(width: int) -> int:
    """Rung ``width`` stores numerators in [-2**bound, 2**bound)."""
    return width // 2 - 8


def _room(bits: int, width: int = _BASE_WIDTH) -> int:
    """The lowest rung from ``width`` up that holds signed ``bits``-bit values."""
    while bits >= width:
        width *= 2
    return width


def _rung(values: Iterable[int]) -> int:
    """The lowest rung whose bound holds every value."""
    values = list(values)
    return _room(2 * max(max(values, default=0), ~min(values, default=0)).bit_length() + 15)


def _values(rows: dict) -> Iterator[int]:
    """The stored entries of ``rows``, row by row."""
    return chain.from_iterable(map(dict.values, rows.values()))


@cache
def _window(width: int, k: int) -> tuple:
    """(offset, mask, half, low, unpack) for k fields of ``width`` bits: ``v +
    offset`` lies inside ``mask`` exactly when every field of v lies within
    the bound of the rung (the fit test), ``((v + half) & low) - half`` cuts
    an exact v to its k low fields, and on the base rung ``unpack`` reads k
    signed 64-bit fields from bytes (else it is None)."""
    offset = mask = half = 0
    for _ in range(k):
        offset = (offset << width) | (1 << _bound(width))
        mask = (mask << width) | ((2 << _bound(width)) - 1)
        half = (half << width) | (1 << (width - 1))
    unpack = struct.Struct(f"<{k}q").unpack if width == _BASE_WIDTH else None
    return offset, mask, half, (1 << (width * k)) - 1, unpack


def _pack(t: Iterable[int], width: int) -> int:
    """The polynomial ``t`` evaluated at ``2**width`` (Kronecker substitution)."""
    v = 0
    for c in reversed(tuple(t)):
        v = (v << width) + c
    return v


def _fields(v: int, width: int, k: int) -> tuple[int, ...]:
    """The k signed fields of a packed entry (the inverse of ``_pack``)."""
    half, _, unpack = _window(width, k)[2:]
    v += half  # no borrow crosses a field
    if unpack:  # the xor makes each field its two's complement again
        return unpack((v ^ half).to_bytes(8 * k, "little"))
    top = 1 << (width - 1)
    return tuple([((v >> s) & (2 * top - 1)) - top for s in range(0, width * k, width)])


def _settle(rows: dict, den: int, width: int, k: int,
            fits: bool = False) -> tuple[dict, int, int]:
    """The canonical ``(rows, den, width)`` of packed rows over ``den`` whose
    fields are exact at the rung ``width``: in lowest terms, on the lowest
    rung whose bound holds every numerator.  ``fits`` says that the bound of
    ``width`` holds, so rows over den 1 on the base rung are canonical as
    given; else one pass of add-and-mask tests checks the base rung."""
    if width == _BASE_WIDTH and fits and den == 1:
        return rows, den, width
    if den > 1:
        g = den
        for v in _values(rows):
            if (g := math.gcd(g, *_fields(v, width, k))) == 1:
                break
        else:
            rows = {i: {j: v // g for j, v in row.items()} for i, row in rows.items()}
            den //= g
    if width == _BASE_WIDTH:
        offset, mask = _window(width, k)[:2]
        seen = 0
        for row in () if fits else rows.values():
            for v in row.values():
                seen |= v + offset
        if seen | mask == mask:
            return rows, den, width
    rung = _rung(chain.from_iterable(_fields(v, width, k) for v in _values(rows)))
    if rung != width:
        rows = {i: {j: _pack(_fields(v, width, k), rung) for j, v in row.items()}
                for i, row in rows.items()}
    return rows, den, rung


def _aligned(morphisms) -> tuple[list[dict], int, int]:
    """The packed rows of each morphism over the lcm of their denominators,
    at one rung with room for a sign and a sum of two: ``(rows, den, width)``;
    every rung has that room over its bound, so one rung and den keep them."""
    den, width = morphisms[0].den, morphisms[0].width
    for m in morphisms:
        if m.den != den or m.width != width:
            break
    else:
        return [m.rows for m in morphisms], den, width
    den = math.lcm(*[m.den for m in morphisms])
    top = max([m.width for m in morphisms])
    factors = [den // m.den for m in morphisms]
    width = _room(_bound(top) + max(factors).bit_length() + 1, top)
    return [m._rows_at(width, f) for m, f in zip(morphisms, factors)], den, width


class SuperMorphism:
    """A parity-preserving matrix over Q[eps]/(eps^k) between graded spaces.

    Rows index the target basis, columns the source basis.  The eps^0
    layer must additionally preserve weight.  ``rows[i][j]`` is the packed
    integer of entry (i, j) at the rung ``width`` and ``den`` the positive
    common denominator, in the canonical form described in the module
    docstring.  Instances are treated as immutable after construction.
    """

    __slots__ = ("source", "target", "rows", "den", "width", "_fp", "_idem", "_real")

    @classmethod
    def _from_packed(cls, source: SuperSpace, target: SuperSpace, rows: dict,
                     den: int = 1, width: int = _BASE_WIDTH,
                     fits: bool = False) -> "SuperMorphism":
        """Trusted constructor from packed rows over ``den`` > 0, exact at the
        rung ``width``, with valid positions and no zero entries (see
        ``_settle``); ``rows`` may be kept, so it must not change afterwards."""
        self = object.__new__(cls)
        self.source = source
        self.target = target
        self.rows, self.den, self.width = _settle(rows, den, width, source.k, fits)
        self._fp = None
        self._idem = False
        self._real = None
        return self

    @classmethod
    def _from_products(cls, source: SuperSpace, target: SuperSpace, rows: dict,
                       den: int, width: int) -> "SuperMorphism":
        """Trusted constructor from sums of packed products whose low k fields
        are exact at ``width``: one add, mask and subtract cut each entry to
        those fields and test it against the bound of the rung."""
        offset, mask, half, low, _ = _window(width, source.k)
        cut, seen = {}, 0
        for i, row in rows.items():
            out = {}
            for j, v in row.items():
                y = (v + offset) & low
                if y != offset:
                    out[j] = y - offset
                    seen |= y
            if out:
                cut[i] = out
        fits = seen | mask == mask
        if not fits:
            # y - offset agrees with the cut modulo 2**(width k); recentre it
            cut = {i: {j: ((v + half) & low) - half for j, v in row.items()}
                   for i, row in cut.items()}
        return cls._from_packed(source, target, cut, den, width, fits)

    @classmethod
    def _from_blocks(cls, source: SuperSpace, target: SuperSpace,
                     blocks: list[tuple[int, int, "SuperMorphism"]]) -> "SuperMorphism":
        """Trusted constructor that places each ``(row offset, column
        offset, m)`` of one or more ``blocks`` over the lcm of their
        denominators; the caller guarantees that the blocks do not overlap
        and that each m maps the basis of ``source`` from its column offset
        on to that of ``target`` from its row offset on."""
        packed, den, width = _aligned([m for _, _, m in blocks])
        rows: dict[int, dict[int, int]] = {}
        for (r, c, _), block in zip(blocks, packed):
            for i, row in block.items():
                rows.setdefault(i + r, {}).update({j + c: v for j, v in row.items()})
        return cls._from_packed(source, target, rows, den, width)

    @classmethod
    def _from_numerators(cls, source: SuperSpace, target: SuperSpace,
                         rows: dict, den: int = 1) -> "SuperMorphism":
        """Trusted constructor from rows of numerator k-tuples over ``den``,
        packed on the lowest rung that holds them; the caller guarantees
        valid positions and no all-zero entries."""
        width = _rung(chain.from_iterable(_values(rows)))
        packed = {i: {j: _pack(t, width) for j, t in row.items()} for i, row in rows.items()}
        return cls._from_packed(source, target, packed, den, width, fits=True)

    # --- constructors -------------------------------------------------------

    @classmethod
    def from_entries(cls, source: SuperSpace, target: SuperSpace,
                     entries: Mapping[tuple[int, int], object]) -> "SuperMorphism":
        """Validate and store ``{(i, j): value}`` with values given as
        TruncatedScalar, int or Fraction."""
        if source.k != target.k:
            raise ValueError("truncation orders differ")
        k = source.k
        tp, tw = target.parities, target.weights
        sp, sw = source.parities, source.weights
        scalars = []
        for (i, j), s in entries.items():
            if not 0 <= i < target.dim:
                raise ValueError(f"row index {i} out of range")
            if not 0 <= j < source.dim:
                raise ValueError(f"column index {j} out of range")
            nums, d = _scalar_ints(s, k)
            if not any(nums):
                continue
            if tp[i] != sp[j]:
                raise ValueError(f"entry ({i},{j}) violates parity: {tp[i]} != {sp[j]}")
            if nums[0] and tw[i] != sw[j]:
                raise ValueError(
                    f"eps^0 entry ({i},{j}) violates weight: {tw[i]} != {sw[j]}")
            scalars.append((i, j, nums, d))
        den = math.lcm(*(d for _, _, _, d in scalars))
        rows: dict[int, dict[int, tuple[int, ...]]] = {}
        for i, j, nums, d in scalars:
            f = den // d
            rows.setdefault(i, {})[j] = nums if f == 1 else tuple(c * f for c in nums)
        return cls._from_numerators(source, target, rows, den)

    @classmethod
    def zero(cls, source, target=None) -> "SuperMorphism":
        return cls._from_packed(source, target if target is not None else source, {},
                                fits=True)

    @classmethod
    def identity(cls, space: SuperSpace) -> "SuperMorphism":
        return cls.projector(space, range(space.dim))

    @classmethod
    def projector(cls, space: SuperSpace, indices: Iterable[int]) -> "SuperMorphism":
        """The coordinate projector onto the basis vectors ``indices``."""
        return cls._from_packed(space, space, {i: {i: 1} for i in indices}, fits=True)

    @classmethod
    def diagonal(cls, space: SuperSpace, scalars: Iterable) -> "SuperMorphism":
        return cls.from_entries(space, space,
                                {(i, i): s for i, s in enumerate(scalars)})

    # --- access ---------------------------------------------------------------

    @property
    def k(self) -> int:
        return self.source.k

    def _scalar(self, v: int) -> TruncatedScalar:
        den = self.den
        return TruncatedScalar([Fraction(c, den) for c in _fields(v, self.width, self.k)])

    def entry(self, i: int, j: int) -> TruncatedScalar:
        v = self.rows.get(i, {}).get(j)
        return TruncatedScalar.zero(self.k) if v is None else self._scalar(v)

    def items(self) -> Iterator[tuple[int, int, TruncatedScalar]]:
        for i, row in self.rows.items():
            for j, v in row.items():
                yield i, j, self._scalar(v)

    def numerators(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """``(i, j, (c_0, ..., c_{k-1}))`` for each stored entry, over ``den``."""
        width, k = self.width, self.k
        for i, row in self.rows.items():
            for j, v in row.items():
                yield i, j, _fields(v, width, k)

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows.values())

    def fingerprint(self):
        if self._fp is None:
            body = tuple(sorted((i, j, v) for i, row in self.rows.items()
                                for j, v in row.items()))
            self._fp = (self.source, self.target, self.den, self.width, body)
        return self._fp

    def _rows_at(self, width: int, f: int = 1) -> dict:
        """The packed rows moved to ``width`` and multiplied by ``f``; the
        caller guarantees that every resulting field fits."""
        w, k = self.width, self.k
        if width == w and f == 1:
            return self.rows
        return {i: {j: (v if width == w else _pack(_fields(v, w, k), width)) * f
                    for j, v in row.items()} for i, row in self.rows.items()}

    # --- linear structure ------------------------------------------------------

    def _combine(self, other: "SuperMorphism", sign: int) -> "SuperMorphism":
        """``self + sign * other``."""
        # `is` first: the spaces are nearly always the same objects, and
        # SuperSpace.__eq__ is a Python-level call
        if ((other.source is not self.source and other.source != self.source)
                or (other.target is not self.target and other.target != self.target)):
            raise ValueError("morphisms are not parallel")
        (a, b), den, width = _aligned((self, other))
        rows = {i: dict(row) for i, row in a.items()}
        for i, row in b.items():
            acc = rows.setdefault(i, {})
            for j, v in row.items():
                v = acc.get(j, 0) + sign * v
                if v:
                    acc[j] = v
                else:
                    del acc[j]
            if not acc:
                del rows[i]
        return SuperMorphism._from_packed(self.source, self.target, rows, den, width)

    def __add__(self, other: "SuperMorphism") -> "SuperMorphism":
        return self._combine(other, 1)

    def __sub__(self, other: "SuperMorphism") -> "SuperMorphism":
        return self._combine(other, -1)

    def __neg__(self) -> "SuperMorphism":
        return self.scale(-1)

    def scale(self, c) -> "SuperMorphism":
        if not isinstance(c, (int, Fraction)):  # a product that spreads fields to cut
            return self.compose(SuperMorphism.diagonal(self.source, [c] * self.source.dim))
        # a constant multiplies each field alone: no field spreads
        n = c.numerator
        width = _room(_bound(self.width) + abs(n).bit_length(), self.width)
        rows = {i: {j: n * v for j, v in row.items()} for i, row in self._rows_at(width).items()}
        return SuperMorphism._from_packed(self.source, self.target, rows if n else {},
                                          self.den * c.denominator, width)

    def compose(self, other: "SuperMorphism") -> "SuperMorphism":
        """``self`` after ``other`` (matrix product self . other)."""
        source = self.source
        if other.target is not source and other.target != source:
            raise ValueError("composition mismatch")
        width = self.width if self.width >= other.width else other.width
        # the headroom 2 * _bound(width) + bitlen(dim k), as width - 16 + ...
        width = _room(width - 16 + (len(source.parities) * source.k).bit_length(), width)
        left = self.rows if self.width == width else self._rows_at(width)
        right = other.rows if other.width == width else other._rows_at(width)
        offset, mask, _, low, _ = _window(width, source.k)
        rows, seen = {}, 0
        for i, srow in left.items():
            # each sum starts at the offset of _from_products' cut and fit test
            acc: dict[int, int] = {}
            for m, a in srow.items():
                prow = right.get(m)
                if prow:
                    for j, b in prow.items():
                        acc[j] = acc.get(j, offset) + a * b
            out = {}
            for j, v in acc.items():
                y = v & low
                if y != offset:
                    out[j] = y - offset
                    seen |= y
            if out:
                rows[i] = out
        den = self.den * other.den
        if seen | mask == mask:
            return SuperMorphism._from_packed(other.source, self.target, rows, den, width,
                                              fits=True)
        # a field past the bound: cutting again recentres each entry
        return SuperMorphism._from_products(other.source, self.target, rows, den, width)

    def power(self, m: int) -> "SuperMorphism":
        if self.source != self.target:
            raise ValueError("power of a non-endomorphism")
        if m < 0:
            raise ValueError("negative power")
        out = self if m else SuperMorphism.identity(self.source)
        for _ in range(m - 1):
            out = out.compose(self)
        return out

    def tensor(self, other: "SuperMorphism") -> "SuperMorphism":
        """Kronecker product.

        All morphisms here are parity-preserving (parity-even), so the
        Koszul sign in the tensor of morphisms is always +1.
        """
        if self.k != other.k:
            raise ValueError("truncation orders differ")
        src = tensor(self.source, other.source)
        dst = (src if self.is_endomorphism() and other.is_endomorphism()
               else tensor(self.target, other.target))
        width = max(self.width, other.width)
        width = _room(2 * _bound(width) + self.k.bit_length(), width)
        right = other._rows_at(width)
        scols = other.source.dim
        dcols = other.target.dim
        rows = {i1 * dcols + i2: {j1 * scols + j2: a * b for j1, a in row1.items()
                                  for j2, b in row2.items()}
                for i1, row1 in self._rows_at(width).items() for i2, row2 in right.items()}
        return SuperMorphism._from_products(src, dst, rows, self.den * other.den, width)

    def dual(self) -> "SuperMorphism":
        """The transpose, as a map between the dual spaces."""
        rows: dict[int, dict[int, int]] = {}
        for i, row in self.rows.items():
            for j, v in row.items():
                rows.setdefault(j, {})[i] = v
        return SuperMorphism._from_packed(dual(self.target), dual(self.source),
                                          rows, self.den, self.width, fits=True)

    # --- predicates -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    def is_identity(self) -> bool:
        return (self.source == self.target and self.den == 1
                and len(self.rows) == self.source.dim
                and all(len(row) == 1 and row.get(i) == 1 for i, row in self.rows.items()))

    def is_endomorphism(self) -> bool:
        return self.source is self.target or self.source == self.target

    def is_idempotent(self) -> bool:
        """self . self == self; a True verdict is kept, a False one is not."""
        if not self._idem:
            self._idem = self.is_endomorphism() and self.compose(self) == self
        return self._idem

    def supertrace(self) -> TruncatedScalar:
        """The categorical trace: the diagonal sum with odd entries negated."""
        return self._diagonal_sum(self.source.parities)

    def trace(self) -> TruncatedScalar:
        """The classical trace: the diagonal sum, ignoring parity."""
        return self._diagonal_sum((EVEN,) * self.source.dim)

    def _diagonal_sum(self, parities: tuple[int, ...]) -> TruncatedScalar:
        """The diagonal sum with the entries of odd ``parities`` negated."""
        if not self.is_endomorphism():
            raise ValueError("trace of a non-endomorphism")
        width = _room(_bound(self.width) + self.source.dim.bit_length(), self.width)
        total = sum(-row[i] if parities[i] == ODD else row[i]
                    for i, row in self._rows_at(width).items() if i in row)
        return TruncatedScalar([Fraction(c, self.den) for c in _fields(total, width, self.k)])

    def realization(self) -> "SuperMorphism":
        """Set eps to 0.  A tensor functor onto the k = 1 layer; the result
        is kept, like a True idempotency verdict, and a k = 1 morphism is its
        own realization."""
        if self._real is not None:
            return self._real
        if self.k == 1:
            return self
        width = self.width
        half = 1 << (width - 1)
        mask = 2 * half - 1
        rows: dict[int, dict[int, int]] = {}
        for i, row in self.rows.items():
            acc = {j: c for j, v in row.items() if (c := ((v + half) & mask) - half)}
            if acc:
                rows[i] = acc
        source = self.source.with_k(1)
        target = source if self.is_endomorphism() else self.target.with_k(1)
        self._real = SuperMorphism._from_packed(source, target, rows, self.den, width, fits=True)
        return self._real

    def is_hom_trivial(self) -> bool:
        """Whether the realization vanishes."""
        return self.realization().is_zero()

    def promoted(self, k: int) -> "SuperMorphism":
        """The same numerators at truncation order ``k``: the packed
        integers are unchanged, only the spaces change."""
        if k < self.k:
            raise ValueError("cannot demote a morphism")
        return SuperMorphism._from_packed(self.source.with_k(k), self.target.with_k(k),
                                          self.rows, self.den, self.width, fits=True)

    def __eq__(self, other):
        return (
            isinstance(other, SuperMorphism)
            and (self.source is other.source or self.source == other.source)
            and (self.target is other.target or self.target == other.target)
            and self.den == other.den
            and self.width == other.width
            and self.rows == other.rows
        )

    def __repr__(self):
        return (f"SuperMorphism({self.source.dim}d -> {self.target.dim}d, "
                f"k={self.k}, nnz={self.nnz()})")


# --- categorical operations ---------------------------------------------------


def braiding(x: SuperSpace, y: SuperSpace) -> SuperMorphism:
    """The Koszul-signed swap X (x) Y -> Y (x) X."""
    if x.k != y.k:
        raise ValueError("truncation orders differ")
    src = tensor(x, y)
    dst = tensor(y, x)
    rows: dict[int, dict[int, int]] = {}
    for i in range(x.dim):
        pi = x.parities[i]
        for j in range(y.dim):
            rows[j * x.dim + i] = {i * y.dim + j: -1 if (pi and y.parities[j]) else 1}
    return SuperMorphism._from_packed(src, dst, rows, fits=True)


def signed_slot_map(images: tuple[int, ...], parities: tuple[int, ...]
                    ) -> list[tuple[int, int]]:
    """The signed basis map of a slot permutation on a tensor power.

    The content of slot ``a`` moves to slot ``images[a]``; ``parities``
    are those of the basis of the factor.  Entry ``col`` of the result is
    ``(row, sign)``: basis tensor ``col`` of the n-fold power (row-major,
    as ``tensor_power`` orders it) goes to ``sign`` times basis tensor
    ``row``.  The sign is (-1) to the number of inversions of the
    permutation among the odd slots of the source, which is the
    composite-of-braidings sign.
    """
    n = len(images)
    d = len(parities)
    # (target index, mask of odd slots so far, sign), one slot at a time
    level = [(0, 0, 1)]
    for a, dest in enumerate(images):
        weight = d ** (n - 1 - dest)
        # earlier slots that land after slot a: an inversion when both are odd
        later = sum(1 << b for b in range(a) if images[b] > dest)
        steps = [(x * weight, (1 << a) * parities[x]) for x in range(d)]
        level = [(row + off, mask | bit,
                  -sign if bit and (mask & later).bit_count() & 1 else sign)
                 for row, mask, sign in level for off, bit in steps]
    return [(row, sign) for row, _, sign in level]


def permutation_action(sigma, x: SuperSpace, n: int,
                       cap: int = TENSOR_DIM_CAP) -> SuperMorphism:
    """The signed action of the degree-n permutation ``sigma`` on the n-fold
    tensor power of ``x`` (see ``signed_slot_map``)."""
    if sigma.degree != n:
        raise ValueError(f"permutation degree {sigma.degree} != {n}")
    if x.dim**n > cap:
        raise SizeCapError(f"tensor power dimension {x.dim}**{n} exceeds cap {cap}")
    xn = tensor_power(x, n)
    rows = {row: {col: sign}
            for col, (row, sign) in enumerate(signed_slot_map(sigma.images, x.parities))}
    return SuperMorphism._from_packed(xn, xn, rows, fits=True)


def evaluation(x: SuperSpace) -> SuperMorphism:
    """X (x) X* -> 1, pairing each basis vector with its dual."""
    src = tensor(x, dual(x))
    d = x.dim
    rows = {0: {i * d + i: 1 for i in range(d)}} if d else {}
    return SuperMorphism._from_packed(src, SuperSpace.unit(x.k), rows, fits=True)


def coevaluation(x: SuperSpace) -> SuperMorphism:
    """1 -> X* (x) X, the sum of e^i (x) e_i."""
    dst = tensor(dual(x), x)
    d = x.dim
    rows = {i * d + i: {0: 1} for i in range(d)}
    return SuperMorphism._from_packed(SuperSpace.unit(x.k), dst, rows, fits=True)


def dim(x: SuperSpace) -> TruncatedScalar:
    """trace(id) = p - q."""
    return TruncatedScalar.of(x.p - x.q, x.k)


# --- exact elimination and inversion ---------------------------------------------


def fraction_free_reduce(mat: list[list[int]], ncols: int | None = None
                         ) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer matrix.

    Works in place and searches pivots in the first ``ncols`` columns (all
    of them by default).  Each step replaces every non-pivot row by
    ``(p * row - a * pivot_row) / p_prev``, where ``p`` is the new pivot,
    ``a`` the row's entry in the pivot column and ``p_prev`` the previous
    pivot; the division is exact because every entry stays a minor of the
    input, so numbers never outgrow a determinant.  Afterwards the r-th
    row carries the last pivot in the r-th pivot column and the other
    pivot columns are zero.  Returns the pivot columns (their count is the
    rank) and the last pivot (1 when there is none).  For a nonsingular
    square ``A`` reduced as ``[A | I]`` over its first n columns, the
    right block is ``p * A^-1``.
    """
    nrows = len(mat)
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, nrows) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        p = prow[col]
        for i in range(nrows):
            if i != r:
                a = mat[i][col]
                mat[i] = [(p * x - a * y) // prev for x, y in zip(mat[i], prow)]
        prev = p
        pivots.append(col)
    return pivots, prev


def _nilpotent_powers(r: SuperMorphism) -> Iterator[tuple[int, SuperMorphism]]:
    """``(m, r^m)`` for m = 1, 2, ... up to the first zero power, for a
    homologically trivial endomorphism ``r``.

    r^k = 0 at truncation order k, so at most k - 1 powers are yielded,
    r^k is never formed, and the first power is ``r`` itself.
    """
    term, m = r, 1
    while not term.is_zero():
        yield m, term
        if (m := m + 1) >= r.k:
            return
        term = term.compose(r)


def geometric_series(one: SuperMorphism, r: SuperMorphism) -> SuperMorphism:
    """``one + r + r^2 + ...`` for a homologically trivial ``r`` with
    ``one . r = r``.

    The powers start at ``r``, which the contract makes equal to one . r,
    and stop before r^k, which is 0 at truncation order k: at most k - 2
    products are formed.  When ``one`` is a unit of an algebra containing
    ``r``, the sum is the inverse of ``one - r`` there.
    """
    acc = one
    for _, term in _nilpotent_powers(r):
        acc = acc + term
    return acc


def invert_unit(f: SuperMorphism) -> SuperMorphism:
    """Exact inverse of an endomorphism whose realization is invertible.

    When the realization is the identity, f = id - r with r = id - f
    homologically trivial, and f^-1 is the Neumann series
    ``geometric_series(id, r)``: no elimination and no product with the
    identity.  Otherwise the realization is inverted by fraction-free
    elimination over the integers, giving g0, and the nilpotent correction
    is ``geometric_series(id, id - f . g0)``.  The identity is its own
    inverse and is returned unchanged.
    """
    if not f.is_endomorphism():
        raise ValueError("only endomorphisms are inverted")
    if f.is_identity():
        return f
    ident = SuperMorphism.identity(f.source)
    real = f.realization()
    if real.is_identity():
        return geometric_series(ident, ident - f)
    n = f.source.dim
    # the realization is R / den for the integer matrix R of its entries,
    # each a single field that packs to itself
    aug = [[0] * n + [int(i == r) for i in range(n)] for r in range(n)]
    for i, row in real.rows.items():
        for j, v in row.items():
            aug[i][j] = v
    pivots, det = fraction_free_reduce(aug, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    # (R / den)^-1 = den * (det * R^-1) / det
    scale = real.den if det > 0 else -real.den
    # a constant packs to itself at every width
    rows = {i: {j: scale * v for j, v in enumerate(aug[i][n:]) if v} for i in range(n)}
    g0 = SuperMorphism._from_packed(
        f.source, f.source, rows, abs(det),
        _rung(_values(rows)), fits=True)
    return g0.compose(geometric_series(ident, ident - f.compose(g0)))


def exp_nilpotent(f: SuperMorphism) -> SuperMorphism:
    """exp of a homologically trivial endomorphism: the finite sum of
    f^m / m! from the identity, whose powers start at f and stop before
    f^k = 0."""
    if not f.is_endomorphism():
        raise ValueError("exp of a non-endomorphism")
    if not f.is_hom_trivial():
        raise ValueError("exp is only defined here for hom-trivial morphisms")
    acc = SuperMorphism.identity(f.source)
    for m, term in _nilpotent_powers(f):
        acc = acc + term.scale(Fraction(1, math.factorial(m)))
    return acc
