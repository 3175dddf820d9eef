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
denominator ``den`` for the whole matrix and, for each nonzero entry, the
k-tuple of integer numerators of its eps-coefficients:
``rows[i][j] = (c_0, ..., c_{k-1})`` stands for
``(c_0 + c_1 eps + ... + c_{k-1} eps^(k-1)) / den``.  The form is
canonical -- all-zero entries are absent and ``gcd(den, every numerator)
== 1`` -- so equal morphisms have equal storage.  Products are truncated
convolutions on these integers, evaluated by Kronecker substitution (a
k-tuple packed into one integer with fields wide enough that none
overflows), followed by one gcd normalisation per result.

``TruncatedScalar``, with ``fractions.Fraction`` coefficients, is the value
type at the API boundary only: the constructors accept it, and ``entry``,
``items`` and ``supertrace`` return it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .errors import SizeCapError
from .symgroup import Permutation

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


@dataclass(frozen=True)
class SuperSpace:
    """A graded space: the parities and weights of its basis, in order."""

    parities: tuple[int, ...]
    weights: tuple[int, ...]
    k: int = 1

    def __post_init__(self):
        # lists would compare unequal to tuples and could not key a cache
        object.__setattr__(self, "parities", tuple(self.parities))
        object.__setattr__(self, "weights", tuple(self.weights))
        if self.k < 1:
            raise ValueError("truncation order k must be >= 1")
        if len(self.parities) != len(self.weights):
            raise ValueError("parities and weights differ in length")
        if not set(self.parities) <= {EVEN, ODD}:
            raise ValueError(f"parity must be 0 or 1, got {set(self.parities) - {EVEN, ODD}}")

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
        return SuperSpace(self.parities, self.weights, k)


def tensor(x: SuperSpace, y: SuperSpace) -> SuperSpace:
    """Ordered product basis; parity adds mod 2, weight adds."""
    if x.k != y.k:
        raise ValueError("truncation orders differ")
    return SuperSpace(tuple([px ^ py for px in x.parities for py in y.parities]),
                      tuple([wx + wy for wx in x.weights for wy in y.weights]), x.k)


def tensor_power(x: SuperSpace, n: int) -> SuperSpace:
    out = SuperSpace.unit(x.k)
    for _ in range(n):
        out = tensor(out, x)
    return out


def dual(x: SuperSpace) -> SuperSpace:
    """Same parities, negated weights, same basis order."""
    return SuperSpace(x.parities, tuple([-w for w in x.weights]), x.k)


def _unit_tuple(k: int, value: int = 1) -> tuple[int, ...]:
    """Numerators of the constant ``value`` at truncation order ``k``."""
    return (value,) + (0,) * (k - 1)


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


def _lowest_terms(rows: dict, den: int) -> tuple[dict, int]:
    """Divide ``den`` and every numerator by their gcd."""
    if den == 1:
        return rows, den
    g = den
    for row in rows.values():
        for t in row.values():
            g = math.gcd(g, *t)
            if g == 1:
                return rows, den
    return ({i: {j: tuple([c // g for c in t]) for j, t in row.items()}
             for i, row in rows.items()}, den // g)


def _pack(t: tuple[int, ...], width: int) -> int:
    """The polynomial ``t`` evaluated at ``2**width`` (Kronecker substitution)."""
    v = 0
    for c in reversed(t):
        v = (v << width) + c
    return v


@lru_cache(maxsize=256)
def _unpacker(width: int, k: int):
    """Inverse of ``_pack`` on the low ``k`` fields of a packed product.

    Every field must hold a value in ``[-2**(width-1), 2**(width-1))``;
    fields from k on (the eps^k and higher terms of a product) are
    discarded.  The returned function gives the k-tuple, or None when all
    k fields are zero.
    """
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    low = (1 << (width * k)) - 1
    offset = _pack((half,) * k, width)
    shifts = range(0, width * k, width)

    def unpack(v: int):
        v = (v + offset) & low
        if v == offset:
            return None
        return tuple([((v >> s) & mask) - half for s in shifts])

    return unpack


def _width(bits_a: int, bits_b: int, terms: int) -> int:
    """Field width that holds any sum of ``terms`` products of a
    ``bits_a``-bit and a ``bits_b``-bit integer, with its sign; rounded up
    to a multiple of 8 so that few distinct unpackers get built."""
    return (bits_a + bits_b + terms.bit_length() + 8) & ~7


class SuperMorphism:
    """A parity-preserving matrix over Q[eps]/(eps^k) between graded spaces.

    Rows index the target basis, columns the source basis.  The eps^0
    layer must additionally preserve weight.  ``rows[i][j]`` is the tuple
    of integer numerators of entry (i, j) and ``den`` the positive common
    denominator, in the canonical form described in the module docstring.
    Instances are treated as immutable after construction.
    """

    __slots__ = ("source", "target", "rows", "den", "_fp", "_bits")

    def __init__(self, source: SuperSpace, target: SuperSpace,
                 rows: Mapping[int, Mapping[int, object]]):
        """Validate and store entries given as TruncatedScalar, int or Fraction."""
        if source.k != target.k:
            raise ValueError("truncation orders differ")
        k = source.k
        tp, tw = target.parities, target.weights
        sp, sw = source.parities, source.weights
        scalars = []
        for i, row in rows.items():
            if not 0 <= i < target.dim:
                raise ValueError(f"row index {i} out of range")
            for j, s in row.items():
                if not 0 <= j < source.dim:
                    raise ValueError(f"column index {j} out of range")
                nums, d = _scalar_ints(s, k)
                if not any(nums):
                    continue
                if tp[i] != sp[j]:
                    raise ValueError(
                        f"entry ({i},{j}) violates parity: {tp[i]} != {sp[j]}"
                    )
                if nums[0] and tw[i] != sw[j]:
                    raise ValueError(
                        f"eps^0 entry ({i},{j}) violates weight: {tw[i]} != {sw[j]}"
                    )
                scalars.append((i, j, nums, d))
        # over the lcm of denominators in lowest terms the form is canonical
        den = math.lcm(*(d for _, _, _, d in scalars))
        clean: dict[int, dict[int, tuple[int, ...]]] = {}
        for i, j, nums, d in scalars:
            f = den // d
            clean.setdefault(i, {})[j] = nums if f == 1 else tuple(c * f for c in nums)
        self.source = source
        self.target = target
        self.rows = clean
        self.den = den
        self._fp = None
        self._bits = None

    @classmethod
    def _from_numerators(cls, source: SuperSpace, target: SuperSpace,
                         rows: dict, den: int = 1) -> "SuperMorphism":
        """Trusted constructor from numerator rows over ``den`` > 0.

        The caller guarantees valid positions and no all-zero entries;
        the result is reduced to lowest terms.
        """
        self = object.__new__(cls)
        self.source = source
        self.target = target
        self.rows, self.den = _lowest_terms(rows, den)
        self._fp = None
        self._bits = None
        return self

    # --- constructors -------------------------------------------------------

    @classmethod
    def from_entries(cls, source, target,
                     entries: Mapping[tuple[int, int], object]) -> "SuperMorphism":
        rows: dict[int, dict[int, object]] = {}
        for (i, j), s in entries.items():
            rows.setdefault(i, {})[j] = s
        return cls(source, target, rows)

    @classmethod
    def zero(cls, source, target=None) -> "SuperMorphism":
        return cls._from_numerators(source, target if target is not None else source, {})

    @classmethod
    def identity(cls, space: SuperSpace) -> "SuperMorphism":
        return cls.projector(space, range(space.dim))

    @classmethod
    def projector(cls, space: SuperSpace, indices: Iterable[int]) -> "SuperMorphism":
        """The coordinate projector onto the basis vectors ``indices``."""
        one = _unit_tuple(space.k)
        return cls._from_numerators(space, space, {i: {i: one} for i in indices})

    @classmethod
    def diagonal(cls, space: SuperSpace, scalars: Iterable) -> "SuperMorphism":
        return cls.from_entries(space, space,
                                {(i, i): s for i, s in enumerate(scalars)})

    # --- access ---------------------------------------------------------------

    @property
    def k(self) -> int:
        return self.source.k

    def _scalar(self, t: tuple[int, ...]) -> TruncatedScalar:
        den = self.den
        return TruncatedScalar([Fraction(c, den) for c in t])

    def entry(self, i: int, j: int) -> TruncatedScalar:
        t = self.rows.get(i, {}).get(j)
        return TruncatedScalar.zero(self.k) if t is None else self._scalar(t)

    def items(self) -> Iterator[tuple[int, int, TruncatedScalar]]:
        for i, row in self.rows.items():
            for j, t in row.items():
                yield i, j, self._scalar(t)

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows.values())

    def fingerprint(self):
        if self._fp is None:
            body = tuple(sorted((i, j, t) for i, row in self.rows.items()
                                for j, t in row.items()))
            self._fp = (self.source, self.target, self.den, body)
        return self._fp

    def _max_bits(self) -> int:
        """Bit length of the largest numerator magnitude, computed once."""
        if self._bits is None:
            values = chain.from_iterable(
                chain.from_iterable(map(dict.values, self.rows.values())))
            self._bits = max(map(abs, values), default=0).bit_length()
        return self._bits

    def _rows_over(self, den: int) -> dict:
        """Numerator rows rewritten over ``den``, a multiple of ``self.den``."""
        f = den // self.den
        if f == 1:
            return self.rows
        return {i: {j: tuple([c * f for c in t]) for j, t in row.items()}
                for i, row in self.rows.items()}

    # --- linear structure ------------------------------------------------------

    def _check_parallel(self, other: "SuperMorphism"):
        if self.source != other.source or self.target != other.target:
            raise ValueError("morphisms are not parallel")

    def _combine(self, other: "SuperMorphism", sign: int) -> "SuperMorphism":
        """``self + sign * other``."""
        self._check_parallel(other)
        den = math.lcm(self.den, other.den)
        f = sign * (den // other.den)
        rows = {i: dict(row) for i, row in self._rows_over(den).items()}
        for i, row in other.rows.items():
            acc = rows.setdefault(i, {})
            for j, t in row.items():
                cur = acc.get(j)
                if cur is None:
                    acc[j] = t if f == 1 else tuple([c * f for c in t])
                    continue
                v = tuple([x + c * f for x, c in zip(cur, t)])
                if any(v):
                    acc[j] = v
                else:
                    del acc[j]
            if not acc:
                del rows[i]
        return SuperMorphism._from_numerators(self.source, self.target, rows, den)

    def __add__(self, other: "SuperMorphism") -> "SuperMorphism":
        return self._combine(other, 1)

    def __sub__(self, other: "SuperMorphism") -> "SuperMorphism":
        return self._combine(other, -1)

    def __neg__(self) -> "SuperMorphism":
        rows = {i: {j: tuple([-c for c in t]) for j, t in row.items()}
                for i, row in self.rows.items()}
        return SuperMorphism._from_numerators(self.source, self.target, rows, self.den)

    def scale(self, c) -> "SuperMorphism":
        k = self.k
        nums, d = _scalar_ints(c, k)
        rows: dict[int, dict[int, tuple[int, ...]]] = {}
        if any(nums):
            width = _width(self._max_bits(), max(map(abs, nums)).bit_length(), k)
            unpack = _unpacker(width, k)
            pc = _pack(nums, width)
            for i, row in self.rows.items():
                acc = {}
                for j, t in row.items():
                    v = unpack(pc * _pack(t, width))
                    if v is not None:
                        acc[j] = v
                if acc:
                    rows[i] = acc
        return SuperMorphism._from_numerators(self.source, self.target, rows,
                                              self.den * d)

    def compose(self, other: "SuperMorphism") -> "SuperMorphism":
        """``self`` after ``other`` (matrix product self . other)."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        rows: dict[int, dict[int, tuple[int, ...]]] = {}
        if self.rows and other.rows:
            k = self.k
            width = _width(self._max_bits(), other._max_bits(), self.source.dim * k)
            unpack = _unpacker(width, k)
            packed = {m: {j: _pack(b, width) for j, b in row.items()}
                      for m, row in other.rows.items()}
            for i, srow in self.rows.items():
                acc: dict[int, int] = {}
                for m, a in srow.items():
                    prow = packed.get(m)
                    if prow:
                        pa = _pack(a, width)
                        for j, pb in prow.items():
                            acc[j] = acc.get(j, 0) + pa * pb
                out = {}
                for j, v in acc.items():
                    t = unpack(v)
                    if t is not None:
                        out[j] = t
                if out:
                    rows[i] = out
        return SuperMorphism._from_numerators(other.source, self.target, rows,
                                              self.den * other.den)

    def power(self, m: int) -> "SuperMorphism":
        if self.source != self.target:
            raise ValueError("power of a non-endomorphism")
        if m < 0:
            raise ValueError("negative power")
        out = SuperMorphism.identity(self.source)
        for _ in range(m):
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
        rows: dict[int, dict[int, tuple[int, ...]]] = {}
        if self.rows and other.rows:
            k = self.k
            width = _width(self._max_bits(), other._max_bits(), k)
            unpack = _unpacker(width, k)
            pa_rows = {i: {j: _pack(t, width) for j, t in row.items()}
                       for i, row in self.rows.items()}
            pb_rows = {i: {j: _pack(t, width) for j, t in row.items()}
                       for i, row in other.rows.items()}
            scols = other.source.dim
            dcols = other.target.dim
            for i1, row1 in pa_rows.items():
                for i2, row2 in pb_rows.items():
                    acc = {}
                    for j1, a in row1.items():
                        base = j1 * scols
                        for j2, b in row2.items():
                            t = unpack(a * b)
                            if t is not None:
                                acc[base + j2] = t
                    if acc:
                        rows[i1 * dcols + i2] = acc
        return SuperMorphism._from_numerators(src, dst, rows, self.den * other.den)

    def dual(self) -> "SuperMorphism":
        """The transpose, as a map between the dual spaces."""
        rows: dict[int, dict[int, tuple[int, ...]]] = {}
        for i, row in self.rows.items():
            for j, t in row.items():
                rows.setdefault(j, {})[i] = t
        return SuperMorphism._from_numerators(dual(self.target), dual(self.source),
                                              rows, self.den)

    # --- predicates -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    def is_identity(self) -> bool:
        if (self.source != self.target or self.den != 1
                or len(self.rows) != self.source.dim):
            return False
        one = _unit_tuple(self.k)
        return all(len(row) == 1 and row.get(i) == one for i, row in self.rows.items())

    def is_endomorphism(self) -> bool:
        return self.source == self.target

    def is_idempotent(self) -> bool:
        return self.is_endomorphism() and self.compose(self) == self

    def supertrace(self) -> TruncatedScalar:
        """The categorical trace: the diagonal sum with odd entries negated."""
        if not self.is_endomorphism():
            raise ValueError("trace of a non-endomorphism")
        total = [0] * self.k
        parities = self.source.parities
        for i, row in self.rows.items():
            t = row.get(i)
            if t is not None:
                sign = -1 if parities[i] == ODD else 1
                total = [x + sign * c for x, c in zip(total, t)]
        return self._scalar(total)

    def realization(self) -> "SuperMorphism":
        """Set eps to 0.  A tensor functor onto the k = 1 layer."""
        rows: dict[int, dict[int, tuple[int, ...]]] = {}
        for i, row in self.rows.items():
            acc = {j: (t[0],) for j, t in row.items() if t[0]}
            if acc:
                rows[i] = acc
        return SuperMorphism._from_numerators(self.source.with_k(1),
                                              self.target.with_k(1), rows, self.den)

    def is_hom_trivial(self) -> bool:
        """Whether the realization vanishes."""
        return all(not t[0] for row in self.rows.values() for t in row.values())

    def promoted(self, k: int) -> "SuperMorphism":
        if k < self.k:
            raise ValueError("cannot demote a morphism")
        pad = (0,) * (k - self.k)
        rows = {i: {j: t + pad for j, t in row.items()} for i, row in self.rows.items()}
        return SuperMorphism._from_numerators(self.source.with_k(k),
                                              self.target.with_k(k), rows, self.den)

    def __eq__(self, other):
        return (
            isinstance(other, SuperMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.den == other.den
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
    k = x.k
    one = _unit_tuple(k)
    minus = _unit_tuple(k, -1)
    rows: dict[int, dict[int, tuple[int, ...]]] = {}
    for i in range(x.dim):
        pi = x.parities[i]
        for j in range(y.dim):
            sign = minus if (pi and y.parities[j]) else one
            rows[j * x.dim + i] = {i * y.dim + j: sign}
    return SuperMorphism._from_numerators(src, dst, rows)


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


def permutation_action(sigma: Permutation, x: SuperSpace, n: int,
                       cap: int = TENSOR_DIM_CAP) -> SuperMorphism:
    """The signed action of ``sigma`` on the n-fold tensor power of ``x``
    (see ``signed_slot_map``)."""
    if sigma.degree != n:
        raise ValueError(f"permutation degree {sigma.degree} != {n}")
    if x.dim**n > cap:
        raise SizeCapError(f"tensor power dimension {x.dim}**{n} exceeds cap {cap}")
    xn = tensor_power(x, n)
    signed = {1: _unit_tuple(x.k), -1: _unit_tuple(x.k, -1)}
    rows = {row: {col: signed[sign]}
            for col, (row, sign) in enumerate(signed_slot_map(sigma.images, x.parities))}
    return SuperMorphism._from_numerators(xn, xn, rows)


def evaluation(x: SuperSpace) -> SuperMorphism:
    """X (x) X* -> 1, pairing each basis vector with its dual."""
    src = tensor(x, dual(x))
    one = _unit_tuple(x.k)
    d = x.dim
    rows = {0: {i * d + i: one for i in range(d)}} if d else {}
    return SuperMorphism._from_numerators(src, SuperSpace.unit(x.k), rows)


def coevaluation(x: SuperSpace) -> SuperMorphism:
    """1 -> X* (x) X, the sum of e^i (x) e_i."""
    dst = tensor(dual(x), x)
    one = _unit_tuple(x.k)
    d = x.dim
    rows = {i * d + i: {0: one} for i in range(d)}
    return SuperMorphism._from_numerators(SuperSpace.unit(x.k), dst, rows)


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


def geometric_series(one: SuperMorphism, r: SuperMorphism) -> SuperMorphism:
    """``one + r + r^2 + ...`` for a homologically trivial ``r`` with
    ``one . r = r``.

    r^k = 0 at truncation order k, so at most k - 1 powers are formed.
    When ``one`` is a unit of an algebra containing ``r``, the sum is the
    inverse of ``one - r`` there.
    """
    acc = term = one
    for _ in range(one.k - 1):
        term = term.compose(r)
        if term.is_zero():
            break
        acc = acc + term
    return acc


def invert_unit(f: SuperMorphism) -> SuperMorphism:
    """Exact inverse of an endomorphism whose realization is invertible.

    The realization is inverted by fraction-free elimination over the
    integers, giving g0; the nilpotent correction is
    ``geometric_series(id, id - f . g0)``.
    """
    if not f.is_endomorphism():
        raise ValueError("only endomorphisms are inverted")
    n = f.source.dim
    k = f.k
    # the realization is R / den for the integer matrix R of eps^0 numerators
    aug = [[0] * n + [int(i == r) for i in range(n)] for r in range(n)]
    for i, row in f.rows.items():
        for j, t in row.items():
            aug[i][j] = t[0]
    pivots, det = fraction_free_reduce(aug, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    # (R / den)^-1 = den * (det * R^-1) / det
    scale = f.den if det > 0 else -f.den
    rows = {}
    for i in range(n):
        acc = {j: _unit_tuple(k, scale * v) for j, v in enumerate(aug[i][n:]) if v}
        if acc:
            rows[i] = acc
    g0 = SuperMorphism._from_numerators(f.source, f.source, rows, abs(det))
    ident = SuperMorphism.identity(f.source)
    return g0.compose(geometric_series(ident, ident - f.compose(g0)))


def exp_nilpotent(f: SuperMorphism) -> SuperMorphism:
    """exp of a homologically trivial endomorphism (a finite sum)."""
    if not f.is_endomorphism():
        raise ValueError("exp of a non-endomorphism")
    if not f.is_hom_trivial():
        raise ValueError("exp is only defined here for hom-trivial morphisms")
    acc = SuperMorphism.identity(f.source)
    term = SuperMorphism.identity(f.source)
    for m in range(1, f.k):
        term = term.compose(f)
        if term.is_zero():
            break
        acc = acc + term.scale(Fraction(1, math.factorial(m)))
    return acc
