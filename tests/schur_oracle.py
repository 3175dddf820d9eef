"""Schur idempotents on tensor powers, materialised for the tests only.

The package reads every Schur verdict (zero test, rank, super dimension)
off orbit types, each type's trace a strip count (``karoubi._strip_count``),
and no idempotent is built on a tensor power.  Here ``permutation_sum_rows``
builds one by its definition, the sum of the n! signed slot maps of e_lam,
summed once per conjugacy class for all partitions of n (``class_sums``).

``image_idempotent`` applies it to the free image of a summand, and
``tensor_power_oracle`` to e^(n) of a summand of any ambient, never through
its free image.
"""

import functools
import math
from operator import mul

from finmot.supercat import SuperMorphism, SuperSpace, signed_slot_map, tensor_power
from finmot.symgroup import all_permutations, partitions, young_idempotent

cached_young_idempotent = functools.cache(young_idempotent)


@functools.lru_cache(maxsize=2)
def class_sums(parities, n):
    """``(images, groups)``: the images of one permutation of each conjugacy
    class of S_n, and the entries (row, col) of the n-th tensor power grouped
    by the signed count of each class's slot maps there, in the same class
    order: each count vector maps to the columns of its entries, row by row."""
    order = {ct: i for i, ct in enumerate(partitions(n))}
    images = [None] * len(order)
    sums = {}
    for sigma in all_permutations(n):
        i = order[sigma.cycle_type()]
        images[i] = sigma.images
        for col, (row, sign) in enumerate(signed_slot_map(sigma.images, parities)):
            counts = sums.get((row, col))
            if counts is None:
                counts = sums[row, col] = [0] * len(order)
            counts[i] += sign
    groups = {}
    for (row, col), counts in sums.items():
        groups.setdefault(tuple(counts), {}).setdefault(row, []).append(col)
    return images, groups


def permutation_sum_rows(parities, lam):
    """``(rows, den)``: e_lam on the tensor power as the sum of its n!
    signed slot maps, whose coefficients are constant on each class
    (``class_sums``), as integer rows over one denominator in lowest terms.
    Entries with equal class counts are equal, so each count vector is
    weighed once."""
    elem = cached_young_idempotent(lam)
    images, groups = class_sums(parities, lam.n)
    coeffs = [elem.numerators.get(img, 0) for img in images]
    acc = {counts: sum(map(mul, counts, coeffs)) for counts in groups}
    g = math.gcd(elem.den, *acc.values())
    rows = {}
    for counts, cols_by_row in groups.items():
        if c := acc[counts] // g:
            for row, cols in cols_by_row.items():
                rows.setdefault(row, {}).update(dict.fromkeys(cols, c))
    return rows, elem.den // g


def operator(rows, den, space, n):
    """The integer ``rows`` over ``den`` as an endomorphism of the n-th
    tensor power of ``space``."""
    xn = tensor_power(space, n)
    pad = (0,) * (space.k - 1)
    return SuperMorphism._from_numerators(
        xn, xn, {i: {j: (c,) + pad for j, c in row.items()} for i, row in rows.items()}, den)


def image_idempotent(lam, x):
    """The idempotent of ``schur_apply(lam, x)`` on the n-th tensor power of
    x's free image, by the permutation sum (``permutation_sum_rows``)."""
    space = x.free_image()[0].ambient
    if not space.dim:  # the unit at n = 0, the zero space beyond
        return SuperMorphism.identity(tensor_power(space, lam.n))
    return operator(*permutation_sum_rows(space.parities, lam), space, lam.n)


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
