import itertools
import json
import os
from fractions import Fraction

import pytest

from finmot.supercat import (
    SuperMorphism,
    SuperSpace,
    TruncatedScalar,
    invert_unit,
)
from finmot.lifting import (
    ProjectorFamily,
    conjugating_unit,
    corner_unit_check,
    eps_perturbation,
    lift_family,
    lift_idempotent,
    murre_rigidity,
    nilpotency_index,
    random_endomorphism,
    random_hom_trivial,
    seeded_rng,
    seeded_unit,
    _newton_rounds,
)


def diag_family(space, supports):
    members = tuple(
        SuperMorphism.diagonal(space, [int(i in sup) for i in range(space.dim)])
        for sup in supports
    )
    return ProjectorFamily(space, members)


# --- seeded draws ------------------------------------------------------------------

# Rows of each seeded builder and the next rng.getrandbits(32) after it,
# keyed "space/k/seed/builder"; recorded before the three builders shared
# one drawing loop.  The trailing draw pins how many values each consumed.
with open(os.path.join(os.path.dirname(__file__), "seeded_draws.json"),
          encoding="utf-8") as _fh:
    SEEDED_DRAWS = json.load(_fh)

PIN_SPACES = {
    "2|1": ((0, 0), (0, 0), (1, 1)),
    "2|2": ((0, 0), (0, 0), (1, 1), (1, 1)),
    "mixed": ((0, 0), (1, 1), (0, 2), (1, 3), (0, 2)),
}


@pytest.mark.parametrize("builder", [eps_perturbation, random_hom_trivial,
                                     random_endomorphism],
                         ids=lambda fn: fn.__name__)
def test_seeded_draws_match_the_recorded_pin(builder):
    cases = 0
    for name, basis in PIN_SPACES.items():
        for k in (1, 3, 6):
            space = SuperSpace(*zip(*basis), k)
            for seed in (1, 7, 25):
                rng = seeded_rng(seed)
                m = builder(space, rng)
                got = {"den": m.den, "next": rng.getrandbits(32),
                       "rows": sorted([i, j, list(t)] for i, j, t in m.numerators())}
                assert got == SEEDED_DRAWS[f"{name}/k{k}/s{seed}/{builder.__name__}"]
                cases += 1
    assert cases == 27


# --- newton lifting -------------------------------------------------------------


def test_lift_returns_idempotent_unchanged():
    space = SuperSpace.standard(2, 1, 3)
    e = SuperMorphism.diagonal(space, [1, 0, 1])
    assert lift_idempotent(e) is e


def test_lift_square_zero_case_needs_one_round():
    # k = 2: a single Newton round must land exactly
    space = SuperSpace.standard(2, 0, 2)
    start = SuperMorphism.diagonal(space, [1, 0]) + eps_perturbation(
        space, seeded_rng(2)
    )
    e = lift_idempotent(start)
    assert e.is_idempotent()
    assert e.realization() == start.realization()


@pytest.mark.parametrize("k", range(1, 7))
def test_lift_seeded_all_k(k):
    space = SuperSpace.standard(2, 1, k)
    for seed in range(100):
        rng = seeded_rng(seed + 1)
        base = SuperMorphism.diagonal(space, [rng.randint(0, 1) for _ in range(3)])
        start = base + eps_perturbation(space, rng)
        e = lift_idempotent(start)
        assert e.is_idempotent()
        assert e.realization() == base.realization()


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_newton_step_count_is_logarithmic(k):
    # the defect order doubles per step, so ceil(log2 k) steps suffice
    import math as _math

    space = SuperSpace.standard(2, 1, k)
    bound = max(1, _math.ceil(_math.log2(k)))
    for seed in range(10):
        rng = seeded_rng(seed + 1)
        base = SuperMorphism.diagonal(space, [1, 0, rng.randint(0, 1)])
        e = base + eps_perturbation(space, rng)
        steps = 0
        while e.compose(e) != e:
            e2 = e.compose(e)
            e = e2.scale(3) - e2.compose(e).scale(2)
            steps += 1
            assert steps <= bound
        assert e.is_idempotent()


def test_newton_round_bound_is_ceil_log2_in_integers():
    import math as _math

    assert [_newton_rounds(k) for k in range(1, 7)] == [1, 1, 2, 2, 3, 3]
    for k in range(2, 300):
        assert _newton_rounds(k) == _math.ceil(_math.log2(k)), k


def test_lift_rejects_non_idempotent_residue():
    space = SuperSpace.standard(1, 0, 2)
    f = SuperMorphism.from_entries(space, space, {(0, 0): 2})
    with pytest.raises(ValueError):
        lift_idempotent(f)


def test_identity_perturbation_collapses_to_identity():
    # the identity is the only idempotent congruent to it mod eps
    space = SuperSpace.standard(2, 2, 3)
    ident = SuperMorphism.identity(space)
    for seed in range(10):
        start = ident + eps_perturbation(space, seeded_rng(seed + 1))
        assert lift_idempotent(start) == ident


# --- families --------------------------------------------------------------------


def test_lift_family_k1_returns_input():
    space = SuperSpace.standard(2, 1, 1)
    fam = diag_family(space, [{0}, {1}, {2}])
    assert lift_family(fam, 1) is fam


def test_lift_family_two_members():
    space = SuperSpace.standard(2, 0, 1)
    fam = diag_family(space, [{0}, {1}])
    for seed in range(10):
        lifted = lift_family(fam, 2, seed=seed)
        lifted.validate()
        for res, mem in zip(fam.members, lifted.members):
            assert mem.realization() == res


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lift_family_larger(k):
    space = SuperSpace.standard(2, 2, 1)
    fam = diag_family(space, [{0, 2}, {1}, {3}])
    lifted = lift_family(fam, k, seed=5)
    lifted.validate()


def test_conjugate_of_family_is_family():
    space = SuperSpace.standard(2, 1, 3)
    fam = lift_family(diag_family(space.with_k(1), [{0}, {1, 2}]), 3, seed=1)
    u = seeded_unit(space, seeded_rng(8))
    uinv = invert_unit(u)
    conj = ProjectorFamily(space, tuple(
        uinv.compose(m).compose(u) for m in fam.members))
    conj.validate()


def test_family_validation_catches_defects():
    space = SuperSpace.standard(2, 0, 1)
    not_complete = ProjectorFamily(
        space, (SuperMorphism.diagonal(space, [1, 0]),))
    with pytest.raises(ValueError):
        not_complete.validate()
    overlapping = ProjectorFamily(
        space,
        (SuperMorphism.diagonal(space, [1, 1]), SuperMorphism.diagonal(space, [1, 0])),
    )
    with pytest.raises(ValueError):
        overlapping.validate()


def test_family_validation_is_kept_and_failures_repeat(monkeypatch):
    space = SuperSpace.standard(2, 1, 3)
    lifted = lift_family(diag_family(space.with_k(1), [{0}, {1, 2}]), 3, seed=1)
    fresh = ProjectorFamily(space, lifted.members)
    assert fresh == lifted
    calls = []
    compose = SuperMorphism.compose
    monkeypatch.setattr(SuperMorphism, "compose",
                        lambda a, b: calls.append(1) or compose(a, b))
    lifted.validate()  # lift_family validated it
    assert calls == []
    fresh.validate()  # its members keep the idempotency verdicts lift_family found
    assert calls == []
    # fresh member objects: one square per idempotency test, and no pairwise
    # product, since idempotents that sum to the identity are orthogonal
    renewed = ProjectorFamily(space, tuple(m.promoted(m.k) for m in lifted.members))
    renewed.validate()
    assert len(calls) == len(renewed.members)
    calls.clear()
    renewed.validate()
    assert calls == []
    broken = ProjectorFamily(space, (SuperMorphism.diagonal(space, [1, 0, 0]),))
    for _ in range(2):
        with pytest.raises(ValueError, match="do not sum to the identity"):
            broken.validate()


def _assert_pairwise_orthogonal(fam):
    for i, a in enumerate(fam.members):
        for j, b in enumerate(fam.members):
            assert i == j or a.compose(b).is_zero(), (i, j)


@pytest.mark.parametrize("k", range(1, 7))
def test_validated_families_are_orthogonal_when_the_products_are_formed(k):
    # validate checks idempotency and completeness, which imply orthogonality
    # over the local ring Q[eps]/(eps^k); here the products are formed
    space = SuperSpace((0, 1, 0, 0, 1), (0, 1, 2, 2, 3), k)
    residues = diag_family(space.with_k(1), [{0}, {1}, {2, 3}, {4}])
    for seed in range(3):
        lifted = lift_family(residues, k, seed=seed)
        _assert_pairwise_orthogonal(lifted)
        u = seeded_unit(space, seeded_rng(seed + 11))
        conj = ProjectorFamily(space, tuple(
            invert_unit(u).compose(m).compose(u) for m in lifted.members))
        conj.validate()
        _assert_pairwise_orthogonal(conj)


def test_every_complete_idempotent_triple_of_small_integer_matrices_is_orthogonal():
    # all 3 x 3 matrices with entries in -1..1: 164 are idempotent, and 1035
    # ordered triples of them sum to the identity
    span = range(3)

    def product(a, b):
        return tuple(sum(a[3 * i + m] * b[3 * m + j] for m in span)
                     for i in span for j in span)

    idempotents = {v for v in itertools.product((-1, 0, 1), repeat=9) if product(v, v) == v}
    ident = tuple(int(i == j) for i in span for j in span)
    triples = [(a, b, c) for a in idempotents for b in idempotents
               if (c := tuple(x - y - z for x, y, z in zip(ident, a, b))) in idempotents]
    assert (len(idempotents), len(triples)) == (164, 1035)
    space = SuperSpace.standard(3, 0, 1)
    morphism = {v: SuperMorphism.from_entries(
        space, space, {(i, j): v[3 * i + j] for i in span for j in span}) for v in idempotents}
    for triple in triples:
        fam = ProjectorFamily(space, tuple(morphism[v] for v in triple))
        fam.validate()
        _assert_pairwise_orthogonal(fam)


# --- conjugating unit ---------------------------------------------------------------


def test_conjugating_unit_identity_case():
    space = SuperSpace.standard(2, 2, 2)
    fam = diag_family(space, [{0, 1}, {2, 3}])
    u = conjugating_unit(fam, fam)
    assert u == SuperMorphism.identity(space)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_conjugating_unit_intertwines(k):
    space = SuperSpace.standard(2, 2, k)
    fam = diag_family(space, [{0}, {1}, {2}, {3}])
    for seed in range(15):
        w = seeded_unit(space, seeded_rng(seed + 1))
        winv = invert_unit(w)
        fam2 = ProjectorFamily(space, tuple(
            winv.compose(m).compose(w) for m in fam.members))
        u = conjugating_unit(fam, fam2)
        uinv = invert_unit(u)
        for a, b in zip(fam.members, fam2.members):
            assert u.compose(a) == b.compose(u)
            assert u.compose(a).compose(uinv) == b


def test_conjugating_unit_rejects_mismatched_realizations():
    space = SuperSpace.standard(2, 0, 2)
    fam = diag_family(space, [{0}, {1}])
    fam2 = diag_family(space, [{1}, {0}])
    with pytest.raises(ValueError):
        conjugating_unit(fam, fam2)


# --- corner calculus -----------------------------------------------------------------


def test_corner_check_equal_idempotents():
    space = SuperSpace.standard(2, 0, 3)
    pi = SuperMorphism.diagonal(space, [1, 0])
    rep = corner_unit_check(pi, pi)
    assert rep.exact_equality and rep.corner_inverse is None
    assert rep.e == pi and rep.defect.is_zero()


def test_corner_check_square_zero_ideal_is_exact():
    # with eps^2 = 0 the corner element always equals the projector
    space = SuperSpace.standard(2, 2, 2)
    pi = SuperMorphism.diagonal(space, [1, 0, 1, 0])
    for seed in range(25):
        u = seeded_unit(space, seeded_rng(seed + 1))
        pit = invert_unit(u).compose(pi).compose(u)
        rep = corner_unit_check(pi, pit)
        assert rep.exact_equality
        assert rep.iso_from.compose(rep.iso_to) == pi
        assert rep.iso_to.compose(rep.iso_from) == pit


def test_corner_check_frozen_k3_example():
    # 2-dim even ambient over k = 3, pi = E11, conjugator 1 + eps * antidiagonal:
    # defect eps^2 E11, corner inverse (1 - eps^2) E11
    space = SuperSpace((0, 0), (0, 0), 3)
    pi = SuperMorphism.from_entries(space, space, {(0, 0): 1})
    n = SuperMorphism.from_entries(
        space, space,
        {(0, 1): TruncatedScalar.eps(3), (1, 0): TruncatedScalar.eps(3)})
    u = SuperMorphism.identity(space) + n
    pit = invert_unit(u).compose(pi).compose(u)
    rep = corner_unit_check(pi, pit)
    assert not rep.exact_equality
    eps2 = TruncatedScalar.eps(3, 2)
    assert rep.defect == SuperMorphism.from_entries(space, space, {(0, 0): eps2})
    assert rep.corner_inverse == SuperMorphism.from_entries(
        space, space, {(0, 0): TruncatedScalar.one(3) - eps2})
    assert rep.iso_from.compose(rep.iso_to) == pi
    assert rep.iso_to.compose(rep.iso_from) == pit


@pytest.mark.parametrize("k", [3, 4])
def test_corner_check_isos_exact_for_higher_k(k):
    space = SuperSpace.standard(2, 2, k)
    pi = SuperMorphism.diagonal(space, [1, 1, 0, 0])
    for seed in range(25):
        u = seeded_unit(space, seeded_rng(seed + 1))
        pit = invert_unit(u).compose(pi).compose(u)
        rep = corner_unit_check(pi, pit)
        assert rep.defect.is_hom_trivial()
        assert rep.iso_from.compose(rep.iso_to) == pi
        assert rep.iso_to.compose(rep.iso_from) == pit
        if not rep.exact_equality:
            assert rep.corner_inverse is not None
            assert rep.corner_inverse.compose(rep.e) == pi


@pytest.mark.parametrize("k", [2, 4])
def test_corner_check_shares_the_round_trip(k, monkeypatch):
    # e = pi . (pi~ . pi) and iso_to = pi~ . pi come from one product, and
    # iso_from = v . pi~ equals v . pi . pi~ since v lies in pi A pi
    space = SuperSpace.standard(2, 2, k)
    pi = SuperMorphism.diagonal(space, [1, 0, 1, 0])
    for seed in range(10):
        u = seeded_unit(space, seeded_rng(seed + 1))
        pit = invert_unit(u).compose(pi).compose(u)
        pairs = []
        compose = SuperMorphism.compose
        monkeypatch.setattr(SuperMorphism, "compose",
                            lambda a, b: pairs.append((a, b)) or compose(a, b))
        rep = corner_unit_check(pi, pit)
        monkeypatch.undo()
        # pi is a right factor in pi~ . pi, and for the first seed also in
        # the idempotency check pi . pi, whose True verdict pi then keeps
        assert sum(b is pi for _, b in pairs) == (2 if seed == 0 else 1)
        assert sum(a is pit and b is pi for a, b in pairs) == 1
        v = pi if rep.exact_equality else rep.corner_inverse
        assert rep.e == pi.compose(pit).compose(pi)
        assert rep.iso_to == pit.compose(pi)
        assert rep.iso_from == v.compose(pi).compose(pit)


def test_corner_check_rejects_mismatch():
    space = SuperSpace.standard(2, 0, 2)
    a = SuperMorphism.diagonal(space, [1, 0])
    b = SuperMorphism.diagonal(space, [0, 1])
    with pytest.raises(ValueError):
        corner_unit_check(a, b)


# --- nilpotency ------------------------------------------------------------------------


def test_nilpotency_of_zero_is_one():
    space = SuperSpace.standard(2, 0, 3)
    assert nilpotency_index(SuperMorphism.zero(space, space)) == 1


def test_nilpotency_explicit_eps_matrix():
    # eps * N with N of square zero has index 2 independently of k
    space = SuperSpace.standard(2, 0, 3)
    f = SuperMorphism.from_entries(space, space, {(0, 1): TruncatedScalar.eps(3)})
    assert nilpotency_index(f) == 2


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_nilpotency_bounded_by_k(k):
    space = SuperSpace.standard(2, 1, k)
    for seed in range(100):
        f = random_hom_trivial(space, seeded_rng(seed + 1))
        assert f.power(k).is_zero()
        assert nilpotency_index(f) <= k


def test_nilpotency_requires_hom_trivial():
    space = SuperSpace.standard(1, 0, 2)
    with pytest.raises(ValueError):
        nilpotency_index(SuperMorphism.identity(space))


# --- rigidity ---------------------------------------------------------------------------


def weight_family(k):
    space = SuperSpace((0, 0, 0, 1), (0, 0, 2, 1), k)
    return ProjectorFamily(space, (
        SuperMorphism.diagonal(space, [1, 1, 0, 0]),
        SuperMorphism.diagonal(space, [0, 0, 0, 1]),
        SuperMorphism.diagonal(space, [0, 0, 1, 0]),
    ))


def test_rigidity_zero_is_certified():
    fam = weight_family(3)
    rep = murre_rigidity(fam, SuperMorphism.zero(fam.ambient, fam.ambient))
    assert rep.within_hypotheses and rep.certified_zero


def test_rigidity_reports_eps_diagonal_violation():
    fam = weight_family(3)
    space = fam.ambient
    q = SuperMorphism.from_entries(space, space, {(0, 1): TruncatedScalar.eps(3)})
    rep = murre_rigidity(fam, q)
    assert not rep.within_hypotheses
    assert any("eps" in reason for (_, _, reason) in rep.violations)


def test_rigidity_reports_off_diagonal_violation():
    fam = weight_family(3)
    space = fam.ambient
    q = SuperMorphism.from_entries(space, space, {(2, 0): TruncatedScalar.eps(3)})
    rep = murre_rigidity(fam, q)
    assert not rep.within_hypotheses
    assert any(reason == "nonzero off-diagonal block" for (_, _, reason) in rep.violations)


def test_rigidity_nonzero_hom_trivial_never_within_hypotheses():
    fam = weight_family(4)
    space = fam.ambient
    for seed in range(100):
        q = random_hom_trivial(space, seeded_rng(seed + 1))
        rep = murre_rigidity(fam, q)
        if q.is_zero():
            assert rep.certified_zero
        else:
            assert not rep.within_hypotheses


def test_rigidity_enforced_blocks_certify_zero():
    fam = weight_family(4)
    space = fam.ambient
    for seed in range(100):
        raw = random_hom_trivial(space, seeded_rng(seed + 1))
        enforced = SuperMorphism.zero(space, space)
        for member in fam.members:
            block = member.compose(raw).compose(member)
            enforced = enforced + block.realization().promoted(4)
        rep = murre_rigidity(fam, enforced)
        assert rep.within_hypotheses and rep.certified_zero
        assert all(b.is_zero for b in rep.blocks)


def test_rigidity_forms_each_left_product_once(monkeypatch):
    # pi_t . q once per member, then one product per block: m + m^2 composes
    # for m members, and the blocks equal pi_t . q . pi_s
    fam = weight_family(4)
    fam.validate()
    space = fam.ambient
    q = random_hom_trivial(space, seeded_rng(3))
    enforced = SuperMorphism.zero(space, space)
    for member in fam.members:
        enforced = enforced + member.compose(q).compose(member).realization().promoted(4)
    calls = []
    compose = SuperMorphism.compose
    monkeypatch.setattr(SuperMorphism, "compose",
                        lambda a, b: calls.append(1) or compose(a, b))
    rep = murre_rigidity(fam, enforced)
    m = len(fam.members)
    assert len(calls) == m + m * m
    monkeypatch.undo()
    assert rep.within_hypotheses and len(rep.blocks) == m * m
    for block in rep.blocks:
        b = fam.members[block.t].compose(enforced).compose(fam.members[block.s])
        assert block.is_zero == b.is_zero()


def test_rigidity_diagonal_rational_q_within_hypotheses():
    fam = weight_family(2)
    space = fam.ambient
    q = SuperMorphism.from_entries(space, space, {(0, 0): 3, (1, 1): Fraction(1, 2)})
    rep = murre_rigidity(fam, q)
    assert rep.within_hypotheses
    assert not rep.hom_trivial
    assert not rep.certified_zero


def test_rigidity_requires_weight_homogeneous_members():
    space = SuperSpace((0, 0), (0, 2), 2)
    fam = ProjectorFamily(space, (SuperMorphism.identity(space),))
    with pytest.raises(ValueError):
        murre_rigidity(fam, SuperMorphism.zero(space, space))
