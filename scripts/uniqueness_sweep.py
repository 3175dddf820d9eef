#!/usr/bin/env python3
"""Sweep the corner calculus over truncation orders.

For each k, conjugate a diagonal projector family by seeded units and
record how often the corner element pi . pi~ . pi equals pi exactly.  At
k = 2 the square-zero ideal forces exact equality; from k = 3 on a
nilpotent corner defect generically appears, yet the assembled summand
isomorphisms stay exact, which this script also verifies.

Usage: python scripts/uniqueness_sweep.py [--kmax K] [--seeds N]
with K in 1..6 and N >= 1.
"""

import argparse
from collections import Counter

from finmot.cli import K_RANGE
from finmot.errors import InvariantError
from finmot.lifting import (
    ProjectorFamily,
    corner_unit_check,
    seeded_rng,
    seeded_unit,
)
from finmot.supercat import SuperMorphism, SuperSpace, invert_unit


def sweep(kmax: int, seeds: int) -> None:
    print(f"{'k':>3}  {'exact':>12}  {'lowest defect order':>19}")
    for k in range(1, kmax + 1):
        space = SuperSpace.standard(2, 2, k)
        family = ProjectorFamily(space, tuple(
            SuperMorphism.diagonal(space, [int(i == j) for j in range(4)])
            for i in range(4)))
        exact = 0
        total = 0
        orders = Counter()
        for seed in range(seeds):
            u = seeded_unit(space, seeded_rng(seed + 1))
            uinv = invert_unit(u)
            for pi in family.members:
                pit = uinv.compose(pi).compose(u)
                rep = corner_unit_check(pi, pit)
                total += 1
                if rep.exact_equality:
                    exact += 1
                else:
                    # lowest eps order present in the defect
                    order = min(
                        next(i for i, c in enumerate(s.coeffs) if c)
                        for _, _, s in rep.defect.items()
                    )
                    orders[order] += 1
                if rep.iso_from.compose(rep.iso_to) != pi:
                    raise InvariantError(f"k={k} seed={seed}: iso_from . iso_to != pi")
                if rep.iso_to.compose(rep.iso_from) != pit:
                    raise InvariantError(f"k={k} seed={seed}: iso_to . iso_from != pi~")
        order_note = (
            ", ".join(f"eps^{o}: {n}" for o, n in sorted(orders.items()))
            if orders else "-"
        )
        print(f"{k:>3}  {exact:>7}/{total:<4}  {order_note:>19}")
    print("summand isomorphisms were exact in every instance")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=6, choices=K_RANGE,
                        metavar="1..6")
    parser.add_argument("--seeds", type=int, default=50, help="at least 1")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    sweep(args.kmax, args.seeds)


if __name__ == "__main__":
    main()
