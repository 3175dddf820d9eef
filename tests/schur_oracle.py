"""Schur idempotents on tensor powers, materialised for the tests only.

The package reads every Schur verdict (zero test, rank, super dimension)
off orbit types: Lambda and S count surviving orbits, any other partition
reads the type blocks of ``karoubi._young_blocks``, and no idempotent is
built on a tensor power.  Two independent routes build one here:

* ``young_rows`` relabels the type blocks onto every orbit of the d^n
  basis tensors: the block route, materialised.  ``young_blocks`` builds
  them for every partition, Lambda and S among them, by the n!-term sum,
  and keeps them for the process;
* ``permutation_sum_rows`` sums the n! signed slot maps of e_lam: the
  definition.

``tensor_power_oracle`` applies the permutation sum to e^(n) of a summand
of any ambient, never through its free image.
"""

import functools
import math
from itertools import combinations, groupby
from operator import mul

from finmot import karoubi
from finmot.supercat import EVEN, ODD, SuperMorphism, SuperSpace, signed_slot_map, tensor_power
from finmot.symgroup import young_idempotent

cached_young_idempotent = functools.cache(young_idempotent)
young_blocks = functools.cache(karoubi._young_blocks)


def permutation_sum_rows(parities, lam):
    """``(rows, den)``: e_lam on the tensor power as the sum of its n!
    signed slot maps, integer rows over one denominator in lowest terms."""
    elem = cached_young_idempotent(lam)
    acc = {}
    for img, coeff in elem.numerators.items():
        for col, (row, sign) in enumerate(signed_slot_map(img, parities)):
            acc[row, col] = acc.get((row, col), 0) + sign * coeff
    g = math.gcd(elem.den, *acc.values())
    rows = {}
    for (row, col), c in acc.items():
        if c:
            rows.setdefault(row, {})[col] = c // g
    return rows, elem.den // g


def young_rows(parities, lam):
    """``(rows, den)``: the type blocks (``young_blocks``) relabelled onto
    every orbit of the n-th tensor power, in the form of
    ``permutation_sum_rows``.

    An orbit gives the labels of its type distinct indices of their
    parities, increasing along each run of equal (multiplicity, parity);
    the type's block then sits on the tensors of that orbit."""
    table, den = young_blocks(parities, lam)
    n, d = lam.n, len(parities)
    pools = [[i for i, parity in enumerate(parities) if parity == want] for want in (EVEN, ODD)]
    place = [d ** (n - 1 - a) for a in range(n)]
    rows = {}
    for kind, (orbit, block, _) in table.items():
        if not block:
            continue
        orbits = [[]]
        for (_, parity), run in groupby(kind):
            size = len(list(run))
            orbits = [values + list(pick) for values in orbits for pick in
                      combinations([i for i in pools[parity] if i not in values], size)]
        # tensor t of the orbit sits at sum_a values[t[a]] d^(n-1-a)
        spread = [[sum(w for label, w in zip(t, place) if label == m) for m in range(len(kind))]
                  for t in orbit]
        for values in orbits:
            code = [sum(map(mul, values, w)) for w in spread]
            for i, row in block.items():
                rows[code[i]] = {code[j]: c for j, c in row.items()}
    return rows, den


def operator(rows, den, space, n):
    """The integer ``rows`` over ``den`` as an endomorphism of the n-th
    tensor power of ``space``."""
    xn = tensor_power(space, n)
    pad = (0,) * (space.k - 1)
    return SuperMorphism._from_numerators(
        xn, xn, {i: {j: (c,) + pad for j, c in row.items()} for i, row in rows.items()}, den)


def image_idempotent(lam, x):
    """The idempotent of ``schur_apply(lam, x)`` on the n-th tensor power of
    x's free image, relabelled from the type blocks (``young_rows``)."""
    space = x.free_image()[0].ambient
    if not space.dim:  # the unit at n = 0, the zero space beyond
        return SuperMorphism.identity(tensor_power(space, lam.n))
    return operator(*young_rows(space.parities, lam), space, lam.n)


def tensor_power_of(f, n):
    """f (x) ... (x) f, n factors, built by ``SuperMorphism.tensor``."""
    fn = SuperMorphism.identity(SuperSpace.unit(f.k))
    for _ in range(n):
        fn = fn.tensor(f)
    return fn


def tensor_power_oracle(lam, e):
    """op . e^(n): op the permutation-sum rows, e^(n) built by
    ``SuperMorphism.tensor``."""
    rows, den = permutation_sum_rows(e.source.parities, lam)
    return operator(rows, den, e.source, lam.n).compose(tensor_power_of(e, lam.n))
