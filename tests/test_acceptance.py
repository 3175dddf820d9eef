"""Acceptance suite: one test per top-level criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them live).  Every check is
exact rational arithmetic; the stated runtime bounds are asserted too.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from finmot.karoubi import (
    KaroubiObject,
    assemble_summand,
    s_wedge,
    split_parity,
    sym,
    wedge,
)
from finmot.lifting import (
    ProjectorFamily,
    conjugating_unit,
    corner_unit_check,
    eps_perturbation,
    lift_idempotent,
    murre_rigidity,
    nilpotency_index,
    random_endomorphism,
    random_hom_trivial,
    seeded_rng,
    seeded_unit,
)
from finmot.motives import (
    MotiveSpec,
    abelian_multiplication_action,
    albanese_wedge,
    chow_kunneth,
    murre_filtration,
    pg_zero_conclusion,
    surface_projector_relations,
)
from finmot.supercat import (
    SuperMorphism,
    SuperSpace,
    invert_unit,
    permutation_action,
)
from finmot.symgroup import (
    GroupAlgebraElement,
    all_permutations,
    partitions,
    young_idempotent,
)


@contextmanager
def criterion(num: int, title: str, budget: float | None = None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {title}")
        raise
    elapsed = time.monotonic() - started
    within = budget is None or elapsed < budget
    print(f"ACCEPTANCE {num:02d} {'PASS' if within else 'FAIL'}  {title}  "
          f"({elapsed:.2f}s)")
    assert within, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def seeded_identity_object(p, q, k, seed):
    """(p|q) with a seeded eps-perturbed identity idempotent.

    The only idempotent congruent to the identity mod eps is the identity
    itself, which the lift must reproduce; the assertion documents that
    collapse for every seed.
    """
    space = SuperSpace.standard(p, q, k)
    ident = SuperMorphism.identity(space)
    if k > 1:
        lifted = lift_idempotent(ident + eps_perturbation(space, seeded_rng(seed)))
        assert lifted == ident
    return KaroubiObject.full(space)


def test_criterion_01_symmetrizer_algebra():
    with criterion(1, "symmetrizer algebra: exact orthogonal idempotents, n <= 5",
                   budget=10.0):
        for n in range(6):
            parts = partitions(n)
            idems = [young_idempotent(lam) for lam in parts]
            total = GroupAlgebraElement(n)
            for d in idems:
                total = total + d
            assert total == GroupAlgebraElement.identity(n)
            for i, di in enumerate(idems):
                for j, dj in enumerate(idems):
                    expected = di if i == j else GroupAlgebraElement(n)
                    assert di * dj == expected


def test_criterion_02_dimension_identities():
    with criterion(2, "wedge/sym dimensions match binomials, even d <= 4, n <= 5",
                   budget=30.0):
        for d in range(1, 5):
            obj = KaroubiObject.full(SuperSpace.standard(d, 0, 1))
            for n in range(1, 6):
                assert wedge(n, obj).dimension() == math.comb(d, n)
                assert sym(n, obj).dimension() == math.comb(d + n - 1, n)


def test_criterion_03_vanishing_bounds():
    with criterion(3, "wedge/sym/s-wedge vanishing thresholds, p,q <= 2, k <= 3, "
                      "25 seeds", budget=120.0):
        for k in (1, 2, 3):
            for p in range(3):
                for q in range(3):
                    for seed in range(25):
                        obj = seeded_identity_object(p, q, k, seed + 1)
                        split = split_parity(obj)
                        assert wedge(p + 1, split[0]).is_zero()
                        assert sym(q + 1, split[1]).is_zero()
                        assert s_wedge(p + q + 1, obj, split).is_zero()
                        assert not s_wedge(p + q, obj, split).is_zero()


def test_criterion_04_supertrace_oracle():
    with criterion(4, "supertrace of slot permutations equals (p-q)^cycles, "
                      "n <= 4, (p|q) <= (2|2)"):
        for p in range(3):
            for q in range(3):
                space = SuperSpace.standard(p, q, 1)
                for n in range(1, 5):
                    for sigma in all_permutations(n):
                        got = permutation_action(sigma, space, n).supertrace()
                        assert got.eps_part_is_zero()
                        want = Fraction(p - q) ** len(sigma.cycles())
                        assert got.realization() == want


def test_criterion_05_nilpotency():
    with criterion(5, "hom-trivial endomorphisms satisfy f^k = 0, "
                      "100 seeds per k in 2..5"):
        for k in (2, 3, 4, 5):
            space = SuperSpace.standard(2, 1, k)
            for seed in range(100):
                f = random_hom_trivial(space, seeded_rng(seed + 1))
                assert f.power(k).is_zero()
                assert nilpotency_index(f) <= k


def test_criterion_06_uniqueness_calculus():
    with criterion(6, "corner calculus: k=2 exact, k in {3,4} summand isos exact, "
                      "conjugating unit intertwines", budget=60.0):
        for k in (2, 3, 4):
            space = SuperSpace.standard(2, 2, k)
            base = ProjectorFamily(space, tuple(
                SuperMorphism.diagonal(space, [int(i == j) for j in range(4)])
                for i in range(4)))
            for seed in range(25):
                u = seeded_unit(space, seeded_rng(seed + 1))
                uinv = invert_unit(u)
                other = ProjectorFamily(space, tuple(
                    uinv.compose(m).compose(u) for m in base.members))
                cu = conjugating_unit(base, other)
                for a, b in zip(base.members, other.members):
                    assert cu.compose(a) == b.compose(cu)
                    rep = corner_unit_check(a, b)
                    if k == 2:
                        assert rep.exact_equality
                    assert rep.iso_from.compose(rep.iso_to) == a
                    assert rep.iso_to.compose(rep.iso_from) == b


def test_criterion_07_rigidity():
    with criterion(7, "hom-trivial endomorphisms under the rigidity hypotheses "
                      "are certified zero blockwise, 100 seeds"):
        spec = MotiveSpec(kind="surface", q=1, pg=1, b2=3, rho=2, k=3)
        family = chow_kunneth(spec)
        space = family.ambient
        for seed in range(100):
            raw = random_hom_trivial(space, seeded_rng(seed + 1))
            # enforce the structural hypotheses blockwise
            enforced = SuperMorphism.zero(space, space)
            for member in family.members:
                block = member.compose(raw).compose(member)
                enforced = enforced + block.realization().promoted(spec.k)
            rep = murre_rigidity(family, enforced)
            assert rep.within_hypotheses and rep.certified_zero
            assert all(b.is_zero for b in rep.blocks)
            if not raw.is_zero():
                assert not murre_rigidity(family, raw).within_hypotheses


def test_criterion_08_surface_calculus():
    with criterion(8, "surface calculus: transpose formula, gradeds (1,q,t), "
                      "filtration ends, wedge vanishing, kernel forced zero"):
        # transpose and subtraction formulas in the unperturbed model
        for spec in (
            MotiveSpec(kind="surface", q=0, pg=0, b2=9, rho=9),
            MotiveSpec(kind="surface", q=2, pg=1, b2=10, rho=8, t=2),
            MotiveSpec(kind="surface", q=1, pg=1, b2=5, rho=2, t=3),
        ):
            rel = surface_projector_relations(spec)
            assert rel.all_passed, [c.name for c in rel.checks if not c.passed]
            model = murre_filtration(spec)
            assert model.graded_dims() == (1, spec.q, spec.t)
            assert model.filtration_dims()[3] == 0
        # wedge of d+1 kernel classes vanishes for every d <= 3
        for d in range(4):
            rng = seeded_rng(d + 1)
            cycles = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d + 1)]
            assert albanese_wedge(cycles) == {}
        # all-algebraic weight 2 plus finite dimensionality forces t = 0
        flat = MotiveSpec(kind="surface", q=0, pg=0, b2=9, rho=9, t=0)
        assert pg_zero_conclusion(flat).consistent is True
        bad = MotiveSpec(kind="surface", q=0, pg=0, b2=9, rho=9, t=3)
        assert pg_zero_conclusion(bad).consistent is False


def test_criterion_09_abelian_relations():
    with criterion(9, "multiplication-by-n eigenrelations, g <= 3, n in -2..3"):
        for g in (1, 2, 3):
            for n in range(-2, 4):
                report = abelian_multiplication_action(g, n)
                assert report.holds, report.failures
                assert report.eigenvalues == tuple(n**i for i in range(2 * g + 1))


def test_criterion_10_summand_assembly():
    with criterion(10, "assembled summand maps satisfy g . f = id, 100 seeds"):
        space = SuperSpace.standard(2, 1, 2)
        ident = SuperMorphism.identity(space)
        for seed in range(100):
            rng = seeded_rng(seed + 1)
            a1 = seeded_unit(space, rng)
            a2 = random_endomorphism(space, rng)
            b2 = random_endomorphism(space, rng)
            a3 = random_endomorphism(space, rng)
            b3 = random_endomorphism(space, rng)
            rest = b2.compose(a2) + b3.compose(a3)
            b1 = (ident - rest).compose(invert_unit(a1))
            f, g, e = assemble_summand([a1, a2, a3], [b1, b2, b3])
            assert g.compose(f) == ident
            assert e.compose(e) == e
