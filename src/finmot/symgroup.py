"""Symmetric-group combinatorics.

Partitions, permutations, irreducible characters (Murnaghan-Nakayama),
and the central idempotents of the rational group algebra Q[S_n].

All arithmetic is exact.  A group-algebra element stores integer
numerators, keyed by permutation images, over one positive common
denominator in lowest terms (for the central idempotents it divides n!).
Products run over permutation ranks: row rank(a) of the multiplication
table, the ranks of a * b for every b, is built on first use and kept,
at every degree up to ``CONVOLUTION_BOUND``.  ``fractions.Fraction`` is
the value type at the API boundary: the constructor accepts it and
``coefficient`` and ``terms`` return it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import InvariantError, SizeCapError
from .supercat import fraction_free_reduce

#: degree guard for partition / character enumeration
PARTITION_BOUND = 12
#: degree guard for group-algebra work (elements carry up to n! terms)
CONVOLUTION_BOUND = 7


class Partition:
    """A weakly decreasing tuple of positive integers summing to ``n``."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"parts must be positive, got {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        self.parts = parts

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({self.parts!r})"

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def hook_lengths(self) -> list[list[int]]:
        conj = self.conjugate().parts
        return [
            [(row - j) + (conj[j] - i) - 1 for j in range(row)]
            for i, row in enumerate(self.parts)
        ]


@lru_cache(maxsize=None)
def _partition_tuples(n: int, maxpart: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions(n: int) -> list[Partition]:
    """All partitions of ``n`` in reverse lexicographic order, (n) first."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > PARTITION_BOUND:
        raise SizeCapError(f"partition degree {n} exceeds bound {PARTITION_BOUND}")
    return [Partition(p) for p in _partition_tuples(n, n)]


def hook_dimension(lam: Partition) -> int:
    """Dimension of the irreducible S_n representation attached to ``lam``."""
    d = math.factorial(lam.n)
    for row in lam.hook_lengths():
        for h in row:
            d, rem = divmod(d, h)
            if rem:
                raise InvariantError(f"hook length {h} of {lam.parts} leaves remainder {rem}")
    return d


def hook_schur(lam: Partition, p: int, q: int) -> int:
    """hs_lam(1^p | 1^q), the hook Schur function at p even and q odd
    ones (Berele-Regev): the rank of S_lam X for X of rank (p|q), zero
    exactly outside the (p, q)-hook.  It is the super Jacobi-Trudi
    determinant det(h_(lam_i - i + j)) (Macdonald, I.3), where h_m counts
    the degree-m monomials in p commuting and q anticommuting variables,
    sum_i C(q, i) C(p + m - i - 1, m - i) with C(-1, 0) = 1.  It equals
    hs_lam'(1^q | 1^p), so the shorter of lam and its conjugate is used."""
    conj = lam.conjugate()
    if len(conj) < len(lam):
        lam, p, q = conj, q, p

    def h(m: int) -> int:
        return sum(math.comb(q, i) * (math.comb(p + m - i - 1, m - i) if m > i else 1)
                   for i in range(min(q, m) + 1))

    # the last pivot is the determinant up to the sign of the row swaps,
    # and hs_lam is a rank, never negative
    size = len(lam)
    pivots, last = fraction_free_reduce(
        [[h(lam[i] - i + j) for j in range(size)] for i in range(size)])
    return abs(last) if len(pivots) == size else 0


class Permutation:
    """A bijection of ``{0, ..., n-1}`` stored as its tuple of images."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        self.images = images
        self._hash = hash(images)

    @classmethod
    def _make(cls, images: tuple[int, ...]) -> "Permutation":
        # internal fast path: caller guarantees validity
        self = object.__new__(cls)
        self.images = images
        self._hash = hash(images)
        return self

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._make(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        images = list(range(n))
        for cycle in cycles:
            cycle = list(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Compose, ``other`` applied first: ``(a * b)(i) == a(b(i))``."""
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError("degrees differ")
        return Permutation._make(tuple(a[b[i]] for i in range(len(a))))

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for i, j in enumerate(self.images):
            images[j] = i
        return Permutation._make(tuple(images))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(tuple(cycle))
        return out

    def cycle_type(self) -> Partition:
        return Partition(sorted((len(c) for c in self.cycles()), reverse=True))

    def sign(self) -> int:
        return -1 if (len(self.images) - len(self.cycles())) % 2 else 1

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Permutation({self.images!r})"


def all_permutations(n: int) -> Iterator[Permutation]:
    """The n! permutations of S_n, refused above ``CONVOLUTION_BOUND``."""
    if n > CONVOLUTION_BOUND:
        raise SizeCapError(f"enumeration of S_{n} exceeds bound {CONVOLUTION_BOUND}")
    return map(Permutation._make, itertools.permutations(range(n)))


def conjugacy_class_size(ct: Partition) -> int:
    """Number of permutations of cycle type ``ct``."""
    z = 1
    for length, mult in _multiplicities(ct.parts).items():
        z *= length**mult * math.factorial(mult)
    return math.factorial(ct.n) // z


def _multiplicities(parts: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in parts:
        out[p] = out.get(p, 0) + 1
    return out


# --- characters ------------------------------------------------------------


def character(lam: Partition, ct: Partition) -> int:
    """Character of the irreducible attached to ``lam`` on the class of
    cycle type ``ct``."""
    if lam.n != ct.n:
        raise ValueError(f"degree mismatch: |{lam.parts}| = {lam.n}, |{ct.parts}| = {ct.n}")
    return _mn(lam.parts, ct.parts)


@lru_cache(maxsize=None)
def _mn(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    if not rho:
        return 1
    m, rest = rho[0], rho[1:]
    total = 0
    for mu, height in _border_strip_removals(lam, m):
        total += (-1) ** height * _mn(mu, rest)
    return total


def _border_strip_removals(lam: tuple[int, ...], m: int):
    """All ways to remove a connected border strip of ``m`` cells."""
    out = []
    L = len(lam)
    for s in range(L):
        for e in range(s, L):
            tail = lam[e + 1] if e + 1 < L else 0
            last = lam[s] + (e - s) - m
            if not (tail <= last <= lam[e] - 1):
                continue
            mu = list(lam[:s])
            mu.extend(lam[i + 1] - 1 for i in range(s, e))
            mu.append(last)
            mu.extend(lam[e + 1:])
            while mu and mu[-1] == 0:
                mu.pop()
            out.append((tuple(mu), e - s))
    return out


# --- group algebra ----------------------------------------------------------


@lru_cache(maxsize=None)
def _ranked(n: int) -> tuple[tuple[int, ...], ...]:
    """Image tuples of degree ``n`` in lexicographic order; the index is the rank."""
    return tuple(itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def _rank_of(n: int) -> dict[tuple[int, ...], int]:
    return {images: r for r, images in enumerate(_ranked(n))}


@lru_cache(maxsize=None)
def _row(n: int, rank: int):
    """Row ``rank`` of the multiplication table: an ``array('H')`` of
    ``rank(a * b)`` for every rank b, where a has rank ``rank``.

    ``itertools.permutations(a)`` lists a * b = (a[b[0]], a[b[1]], ...) for
    b in lexicographic order, so no product is formed pair by pair.  Built
    on first use; ``array`` is an extension module, so it is imported here
    rather than with the package.
    """
    from array import array

    return array("H", map(_rank_of(n).__getitem__, itertools.permutations(_ranked(n)[rank])))


class GroupAlgebraElement:
    """A finite Q-linear combination of degree-``n`` permutations.

    ``numerators`` maps permutation images to nonzero integers over the
    positive common denominator ``den``, with ``gcd(den, numerators) ==
    1``.  ``*`` is convolution, guarded by ``CONVOLUTION_BOUND`` because
    elements carry up to n! terms.
    """

    __slots__ = ("n", "numerators", "den")

    def __init__(self, n: int, terms=None):
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for perm, c in (terms or {}).items():
            if perm.degree != n:
                raise ValueError(f"term degree {perm.degree} != {n}")
            c = Fraction(c)
            if c:
                coeffs[perm.images] = c
        # over the lcm of denominators in lowest terms the form is canonical
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.n = n
        self.numerators = {p: c.numerator * (den // c.denominator)
                           for p, c in coeffs.items()}
        self.den = den

    @classmethod
    def _from_numerators(cls, n: int, numerators: dict, den: int = 1
                         ) -> "GroupAlgebraElement":
        """Trusted constructor: nonzero integer numerators over ``den`` > 0,
        reduced to lowest terms."""
        g = math.gcd(den, *numerators.values())
        if g > 1:
            numerators = {p: c // g for p, c in numerators.items()}
            den //= g
        self = object.__new__(cls)
        self.n = n
        self.numerators = numerators
        self.den = den
        return self

    @classmethod
    def identity(cls, n: int) -> "GroupAlgebraElement":
        return cls._from_numerators(n, {tuple(range(n)): 1})

    @property
    def terms(self) -> dict[Permutation, Fraction]:
        """The nonzero coefficients as a fresh ``{Permutation: Fraction}`` dict."""
        return {Permutation._make(p): Fraction(c, self.den)
                for p, c in self.numerators.items()}

    def coefficient(self, perm: Permutation) -> Fraction:
        return Fraction(self.numerators.get(perm.images, 0), self.den)

    def __add__(self, other):
        self._check_degree(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        acc = {p: c * fa for p, c in self.numerators.items()}
        for p, c in other.numerators.items():
            acc[p] = acc.get(p, 0) + c * fb
        return GroupAlgebraElement._from_numerators(
            self.n, {p: c for p, c in acc.items() if c}, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GroupAlgebraElement._from_numerators(
            self.n, {p: -c for p, c in self.numerators.items()}, self.den)

    def scaled(self, c) -> "GroupAlgebraElement":
        c = Fraction(c)
        if not c:
            return GroupAlgebraElement(self.n)
        return GroupAlgebraElement._from_numerators(
            self.n, {p: c.numerator * v for p, v in self.numerators.items()},
            self.den * c.denominator)

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scaled(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_degree(other)
        if self.n > CONVOLUTION_BOUND:
            raise SizeCapError(
                f"convolution degree {self.n} exceeds bound {CONVOLUTION_BOUND}"
            )
        n = self.n
        ranked, rank_of = _ranked(n), _rank_of(n)
        acc = [0] * len(ranked)
        right = [(rank_of[p], c) for p, c in other.numerators.items()]
        for pa, ca in self.numerators.items():
            row = _row(n, rank_of[pa])
            for b, cb in right:
                acc[row[b]] += ca * cb
        out = {ranked[r]: c for r, c in enumerate(acc) if c}
        return GroupAlgebraElement._from_numerators(n, out, self.den * other.den)

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebraElement)
            and self.n == other.n
            and self.den == other.den
            and self.numerators == other.numerators
        )

    def __repr__(self):
        if not self.numerators:
            return f"GroupAlgebraElement({self.n}, 0)"
        bits = [f"{Fraction(c, self.den)}*{p}" for p, c in sorted(self.numerators.items())]
        return f"GroupAlgebraElement({self.n}, {' + '.join(bits)})"

    def _check_degree(self, other):
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} != {other.n}")


def young_idempotent(lam: Partition) -> GroupAlgebraElement:
    """The central idempotent of Q[S_n] attached to ``lam``.

    Coefficient of a permutation with cycle type ``ct`` is
    ``dim * character(lam, ct) / n!`` where ``dim = hook_dimension(lam)``.
    ``all_permutations`` refuses n above ``CONVOLUTION_BOUND``.
    """
    n = lam.n
    dim = hook_dimension(lam)
    chi_by_type: dict[tuple[int, ...], int] = {}
    numerators: dict[tuple[int, ...], int] = {}
    for perm in all_permutations(n):
        ct = perm.cycle_type()
        chi = chi_by_type.get(ct.parts)
        if chi is None:
            chi = character(lam, ct)
            chi_by_type[ct.parts] = chi
        if chi:
            numerators[perm.images] = dim * chi
    return GroupAlgebraElement._from_numerators(n, numerators, math.factorial(n))
