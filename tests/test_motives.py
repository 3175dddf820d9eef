import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from finmot.errors import InvariantError, SizeCapError
from finmot.karoubi import KaroubiObject, classify, direct_sum, tensor_k
from finmot.lifting import (
    ProjectorFamily,
    corner_unit_check,
    eps_perturbation,
    random_hom_trivial,
    seeded_rng,
    seeded_unit,
)
from finmot.motives import (
    MotiveSpec,
    _transpose_partner,
    abelian_multiplication_action,
    acts_as_zero_on_gradeds,
    albanese_wedge,
    build_realization,
    chow_kunneth,
    graded_action,
    murre_filtration,
    pg_zero_conclusion,
    split_middle,
    surface_projector_relations,
    weight_projector,
    weight_transpose,
)
from finmot.supercat import (
    SuperMorphism,
    SuperSpace,
    exp_nilpotent,
    fraction_free_reduce,
    invert_unit,
)
from finmot.symgroup import Partition
from schur_oracle import permutation_sum_rows


SURFACE = MotiveSpec(kind="surface", q=2, pg=1, b2=10, rho=8, k=2, t=2)
RATIONAL_LIKE = MotiveSpec(kind="surface", q=0, pg=0, b2=9, rho=9, k=2, t=0)


# --- spec validation -------------------------------------------------------------


def test_spec_rejects_inconsistent_pg():
    with pytest.raises(ValueError):
        MotiveSpec(kind="surface", q=0, pg=0, b2=9, rho=8)
    with pytest.raises(ValueError):
        MotiveSpec(kind="surface", q=0, pg=1, b2=9, rho=9)
    with pytest.raises(ValueError):
        MotiveSpec(kind="surface", q=0, pg=0, b2=2, rho=3)
    with pytest.raises(ValueError):
        MotiveSpec(kind="plane")


# --- realizations -----------------------------------------------------------------


def test_point_realization():
    space = build_realization(MotiveSpec(kind="point"))
    assert (space.parities, space.weights) == ((0,), (0,))


def test_lefschetz_realization():
    space = build_realization(MotiveSpec(kind="lefschetz", r=2))
    assert (space.parities, space.weights) == ((0,), (4,))


def test_curve_realization():
    space = build_realization(MotiveSpec(kind="curve", g=1))
    assert space.weights == (0, 1, 1, 2)
    assert space.parities == (0, 1, 1, 0)


def test_surface_realization_dims_by_weight():
    space = build_realization(SURFACE)
    by_weight = {}
    for w in space.weights:
        by_weight[w] = by_weight.get(w, 0) + 1
    assert by_weight == {0: 1, 1: 4, 2: 10, 3: 4, 4: 1}
    space0 = build_realization(RATIONAL_LIKE)
    by_weight0 = {}
    for w in space0.weights:
        by_weight0[w] = by_weight0.get(w, 0) + 1
    assert by_weight0 == {0: 1, 2: 9, 4: 1}


def test_abelian_realization_is_exterior_algebra():
    for g in (1, 2, 3):
        space = build_realization(MotiveSpec(kind="abelian", g=g))
        assert space.dim == 2 ** (2 * g)
        for i in range(2 * g + 1):
            count = sum(1 for w in space.weights if w == i)
            assert count == math.comb(2 * g, i)
        assert all(p == w % 2 for p, w in zip(space.parities, space.weights))


@pytest.mark.parametrize("spec, expected", [
    (MotiveSpec(kind="point"), 0),
    (MotiveSpec(kind="lefschetz", r=0), 0),
    (MotiveSpec(kind="lefschetz", r=1), 1),
    (MotiveSpec(kind="lefschetz", r=-1), -1),
    (MotiveSpec(kind="curve", g=2), 1),
    (SURFACE, 2),
    (MotiveSpec(kind="abelian", g=0), 0),
    (MotiveSpec(kind="abelian", g=3), 3),
])
def test_motive_dimension_is_half_the_top_weight(spec, expected):
    assert spec.motive_dimension == expected
    assert 2 * expected == max(build_realization(spec).weights)


# --- projector families --------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    MotiveSpec(kind="point", k=2),
    MotiveSpec(kind="curve", g=2, k=2),
    SURFACE,
    MotiveSpec(kind="abelian", g=1, k=3),
])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_chow_kunneth_always_valid(spec, seed):
    spec = MotiveSpec(**{**spec.__dict__, "seed": seed})
    fam = chow_kunneth(spec)
    fam.validate()
    space = build_realization(spec)
    for i, member in enumerate(fam.members):
        expected = weight_projector(space, i).realization()
        assert member.realization() == expected


@pytest.mark.parametrize("k", [2, 5, 6])
@pytest.mark.parametrize("seed", [1, 7, 25])
def test_exp_of_minus_s_inverts_the_family_unit(k, seed):
    # chow_kunneth conjugates by u = exp(S) and inverts it as the transpose
    # of u, which is exp(-S) because the transpose is an anti-involution
    # and S^t = -S
    spec = MotiveSpec(**{**SURFACE.__dict__, "k": k, "seed": seed})
    space = build_realization(spec)
    partner = _transpose_partner(space, 4)
    n = eps_perturbation(space, seeded_rng(seed))
    s = n - weight_transpose(n, partner)
    assert s.is_hom_trivial() and not s.is_zero()
    assert weight_transpose(s, partner) == -s
    u, v = exp_nilpotent(s), exp_nilpotent(-s)
    ident = SuperMorphism.identity(space)
    assert v.compose(u) == ident and u.compose(v) == ident
    assert weight_transpose(u, partner) == v == invert_unit(u)
    assert chow_kunneth(spec).members == tuple(
        v.compose(weight_projector(space, w)).compose(u) for w in range(5))


def test_point_family_is_single_identity():
    fam = chow_kunneth(MotiveSpec(kind="point"))
    assert len(fam) == 1
    assert fam[0] == SuperMorphism.identity(fam.ambient)


def test_unseeded_surface_family_is_weight_projectors():
    fam = chow_kunneth(RATIONAL_LIKE)
    space = fam.ambient
    for i, member in enumerate(fam.members):
        assert member == weight_projector(space, i)


def test_families_from_two_seeds_have_isomorphic_summands():
    base = {**SURFACE.__dict__}
    fam_a = chow_kunneth(MotiveSpec(**{**base, "seed": 3}))
    fam_b = chow_kunneth(MotiveSpec(**{**base, "seed": 4}))
    for a, b in zip(fam_a.members, fam_b.members):
        rep = corner_unit_check(a, b)
        assert rep.iso_from.compose(rep.iso_to) == a
        assert rep.iso_to.compose(rep.iso_from) == b


# --- surface relations -----------------------------------------------------------------


def test_surface_relations_unperturbed():
    rep = surface_projector_relations(SURFACE)
    assert rep.all_passed


def test_surface_relations_q0_has_zero_odd_projectors():
    fam = chow_kunneth(RATIONAL_LIKE)
    assert fam[1].is_zero() and fam[3].is_zero()
    rep = surface_projector_relations(RATIONAL_LIKE)
    assert rep.all_passed


@pytest.mark.parametrize("seed", [1, 2, 9])
def test_surface_relations_transport_along_pairing_units(seed):
    spec = MotiveSpec(**{**SURFACE.__dict__, "seed": seed, "k": 3})
    rep = surface_projector_relations(spec)
    assert rep.all_passed, [c.name for c in rep.checks if not c.passed]


def test_surface_relations_report_failures_with_defects():
    # a family conjugated by a unit that ignores the pairing generally
    # breaks the transpose formula; the report carries the defects
    spec = MotiveSpec(**{**SURFACE.__dict__, "seed": 21, "k": 3})
    space = build_realization(spec)
    u = seeded_unit(space, seeded_rng(21))  # plain 1 + eps N, not pairing-orthogonal
    uinv = invert_unit(u)
    fam = ProjectorFamily(space, tuple(
        uinv.compose(weight_projector(space, w)).compose(u) for w in range(5)))
    rep = surface_projector_relations(spec, family=fam)
    failed = [c for c in rep.checks if not c.passed]
    assert failed
    assert all(c.defect is not None and not c.defect.is_zero() for c in failed)


def test_surface_relations_reject_non_surface():
    with pytest.raises(ValueError):
        surface_projector_relations(MotiveSpec(kind="curve", g=1))


# --- filtration ------------------------------------------------------------------------


def test_filtration_dims_and_gradeds():
    model = murre_filtration(MotiveSpec(kind="surface", q=2, pg=1, b2=9, rho=7, t=5))
    assert model.filtration_dims() == (8, 7, 5, 0)
    assert model.graded_dims() == (1, 2, 5)


def test_murre_filtration_eliminates_the_kernel_chain_once(monkeypatch):
    # one elimination per kernel in the chain, shared by both checks
    from finmot import motives

    calls = []

    def counted(mat, ncols=None):
        calls.append(len(mat))
        return fraction_free_reduce(mat, ncols)

    monkeypatch.setattr(motives, "fraction_free_reduce", counted)
    spec = MotiveSpec(kind="surface", q=2, pg=1, b2=9, rho=7, t=5)
    murre_filtration(spec)
    assert calls == [8, 16, 24]
    monkeypatch.setattr(motives.ChowModel, "filtration_dims", lambda self: (8, 7, 4, 0))
    with pytest.raises(InvariantError, match=r"filtration dims \(8, 7, 4, 0\) != \(8, 7, 5, 0\)"):
        murre_filtration(spec)


def test_filtration_always_ends_at_zero():
    for t in (0, 1, 4):
        for q in (0, 1, 3):
            spec = MotiveSpec(kind="surface", q=q, pg=1, b2=5, rho=3, t=t)
            assert murre_filtration(spec).filtration_dims()[3] == 0


def test_hom_trivial_correspondence_acts_zero_on_gradeds():
    spec = MotiveSpec(**{**SURFACE.__dict__, "k": 3})
    space = build_realization(spec)
    for seed in range(10):
        f = random_hom_trivial(space, seeded_rng(seed + 1))
        assert acts_as_zero_on_gradeds(spec, f)


def test_non_hom_trivial_correspondence_can_act_nonzero():
    spec = SURFACE
    space = build_realization(spec)
    f = SuperMorphism.identity(space)
    blocks = graded_action(spec, f)
    assert any(any(any(v for v in row) for row in block) for block in blocks)
    assert not acts_as_zero_on_gradeds(spec, f)


# --- middle splitting --------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 5])
def test_split_middle_kernel_classification(seed):
    spec = MotiveSpec(**{**SURFACE.__dict__, "seed": seed})
    split = split_middle(spec)
    assert len(split.line_summands) == spec.rho
    for line in split.line_summands:
        assert line.dimension() == 1
    report = classify(split.kernel)
    assert report.kind == "even"
    assert report.kim_plus == spec.d_param
    assert report.dim == spec.d_param


def test_split_middle_iso_pair_identities():
    for seed in (0, 7):
        spec = MotiveSpec(**{**SURFACE.__dict__, "seed": seed, "k": 3})
        split = split_middle(spec)
        small = split.kernel.ambient
        # the conjugating unit is the identity mod eps, so the free image's
        # pivot columns are the weight-2 vectors after the rho algebraic ones
        space = split.middle.ambient
        rest = [i for i, w in enumerate(space.weights) if w == 2][spec.rho:]
        assert split.kernel is split.kernel_in_ambient.free_image()[0]
        assert split.kernel.idem.is_identity()
        assert small == SuperSpace(tuple(space.parities[i] for i in rest),
                                   tuple(space.weights[i] for i in rest), spec.k)
        assert split.project.compose(split.embed) == SuperMorphism.identity(small)
        assert split.embed.compose(split.project) == split.kernel_in_ambient.idem


def test_split_middle_lines_sum_into_middle():
    split = split_middle(SURFACE)
    total = split.kernel_in_ambient.idem
    for line in split.line_summands:
        total = total + line.idem
    assert total == split.middle.idem


def test_split_middle_single_transcendental_class():
    spec = MotiveSpec(kind="surface", q=0, pg=1, b2=10, rho=9, k=2)
    split = split_middle(spec)
    assert split.kernel.dimension() == 1
    assert classify(split.kernel).kim_plus == 1


# --- wedge of zero-cycles ------------------------------------------------------------------


def test_wedge_with_repeated_cycle_vanishes():
    assert albanese_wedge([[1, 2], [1, 2]]) == {}
    assert albanese_wedge([[1, 0], [0, 1], [1, 0]]) == {}


def test_wedge_three_cycles_in_two_dims_vanishes():
    cycles = [[2, 3], [-1, 4], [5, 5]]
    assert albanese_wedge(cycles) == {}


def test_wedge_of_basis_pair_is_nonzero_and_antisymmetric():
    out = albanese_wedge([[1, 0], [0, 1]])
    assert out[(0, 1)] == -out[(1, 0)]
    assert out[(0, 1)] != 0
    assert (0, 0) not in out and (1, 1) not in out


def test_wedge_dimension_bound_various():
    for d in (1, 2, 3):
        rng = seeded_rng(d)
        cycles = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d + 1)]
        assert albanese_wedge(cycles) == {}


def _fraction_det(mat):
    """Determinant by Fraction Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def test_wedge_matches_the_determinant_closed_form():
    # coefficient at idx = (1/n!) sum_sigma sign(sigma) prod_a v_sigma(a)[idx_a]
    # = det([[v[i] for i in idx] for v in cycles]) / n!
    rng = random.Random(11)
    nonzero = 0
    for _ in range(40):
        t = rng.randint(1, 3)
        n = rng.randint(1, 4)
        cycles = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(t)]
                  for _ in range(n)]
        out = albanese_wedge(cycles)
        assert all(out.values())
        for idx in itertools.product(range(t), repeat=n):
            want = _fraction_det([[v[i] for i in idx] for v in cycles])
            assert out.get(idx, 0) == want / math.factorial(n)
        nonzero += bool(out)
    assert nonzero >= 10


def _permutation_sum_wedge(cycles, rows_of):
    """The outer product of the cycles cut by the n!-term antisymmetrizer
    on (Q^t)^(n), the even parities (0,) * t, as a sorted sparse map: a
    route that shares nothing with the minors ``albanese_wedge`` reads."""
    t, n = len(cycles[0]), len(cycles)
    rows, den = rows_of(t, n)
    basis = list(itertools.product(range(t), repeat=n))
    outer = [math.prod(Fraction(v[i]) for v, i in zip(cycles, idx)) for idx in basis]
    out = {}
    for r in sorted(rows):
        c = sum(coeff * outer[col] for col, coeff in rows[r].items())
        if c:
            out[basis[r]] = c / den
    return out


def test_wedge_matches_the_permutation_sum_route():
    # 40 seeded cases with t, n <= 5 and the inputs of criterion 08, against
    # the permutation-sum Lambda^n rows applied to the outer product
    rows_of = functools.cache(
        lambda t, n: permutation_sum_rows((0,) * t, Partition((1,) * n)))
    rng = random.Random(27)
    cases = []
    for _ in range(40):
        t, n = rng.randint(1, 5), rng.randint(1, 5)
        cases.append([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(t)]
                      for _ in range(n)])
    for d in range(4):
        draw = seeded_rng(d + 1)
        cases.append([[draw.randint(-3, 3) for _ in range(d)] for _ in range(d + 1)])
    nonzero = 0
    for cycles in cases:
        out = albanese_wedge(cycles)
        assert out == _permutation_sum_wedge(cycles, rows_of), cycles
        assert list(out) == sorted(out)
        nonzero += bool(out)
    assert nonzero >= 10


def test_seven_cycles_in_q3_wedge_to_zero():
    # Lambda^7 of a (3|0) space lies outside the (3, 0)-hook
    cycles = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [2, 0, 1], [1, 2, 3], [3, 1, 1]]
    assert albanese_wedge(cycles) == {}


def test_wedge_shares_the_schur_size_guards():
    cycles = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [2, 0, 1]]
    with pytest.raises(SizeCapError):
        albanese_wedge(cycles, cap=242)
    assert albanese_wedge(cycles, cap=243) == {}
    # 3**9 > 4096: refused before any work
    with pytest.raises(SizeCapError, match=r"tensor power 3\*\*9 exceeds cap 4096"):
        albanese_wedge([[1, 2, 3]] * 9)
    # 1**8 is within the cap, and the minors need no group algebra: eight
    # cycles in Q^1 wedge to zero
    assert albanese_wedge([[1]] * 8) == {}


# --- kernel-vanishing conclusion --------------------------------------------------------------


def test_pg_zero_consistent_with_shape():
    verdict = pg_zero_conclusion(RATIONAL_LIKE)
    assert verdict.consistent is True
    assert verdict.motive_shape == "1 + 9L + L^2"


def test_trivial_shape_matches_realization():
    space = build_realization(RATIONAL_LIKE)
    by_weight = {}
    for w in space.weights:
        by_weight[w] = by_weight.get(w, 0) + 1
    assert by_weight == {0: 1, 2: RATIONAL_LIKE.b2, 4: 1}
    pieces = [KaroubiObject.unit(RATIONAL_LIKE.k)]
    pieces += [KaroubiObject.lefschetz(1, RATIONAL_LIKE.k)] * RATIONAL_LIKE.b2
    pieces += [KaroubiObject.lefschetz(2, RATIONAL_LIKE.k)]
    shape = direct_sum(*pieces)
    assert sorted(shape.ambient.weights) == sorted(space.weights)
    assert sorted(shape.ambient.parities) == sorted(space.parities)


def test_pg_zero_nonzero_kernel_is_inconsistent():
    spec = MotiveSpec(kind="surface", q=0, pg=0, b2=9, rho=9, t=3)
    verdict = pg_zero_conclusion(spec)
    assert verdict.consistent is False


def test_pg_zero_refuses_positive_genus():
    with pytest.raises(ValueError):
        pg_zero_conclusion(SURFACE)


# --- classification of whole models -----------------------------------------------------------


def test_small_models_are_finite_dimensional():
    curve = KaroubiObject.full(build_realization(MotiveSpec(kind="curve", g=1)))
    rep = classify(curve)
    assert rep.kind == "mixed" and rep.kim_plus == 2 and rep.kim_minus == 2
    abelian = KaroubiObject.full(build_realization(MotiveSpec(kind="abelian", g=1)))
    rep2 = classify(abelian)
    assert rep2.kim_plus - rep2.kim_minus == rep2.dim == 0
    small_surface = KaroubiObject.full(
        build_realization(MotiveSpec(kind="surface", q=0, pg=0, b2=1, rho=1))
    )
    rep3 = classify(small_surface)
    assert rep3.kind == "even" and rep3.kim_plus == 3


def test_products_of_small_models_stay_finite_dimensional():
    curve = KaroubiObject.full(build_realization(MotiveSpec(kind="curve", g=1)))
    point = KaroubiObject.full(build_realization(MotiveSpec(kind="point")))
    product = tensor_k(curve, point)
    rep = classify(product)
    assert rep.kim_plus - rep.kim_minus == rep.dim


# --- abelian eigenrelations ----------------------------------------------------------------------


def test_abelian_identity_action():
    rep = abelian_multiplication_action(2, 1)
    assert rep.holds and rep.eigenvalues == (1, 1, 1, 1, 1)


def test_abelian_doubling_on_elliptic_model():
    rep = abelian_multiplication_action(1, 2)
    assert rep.holds and rep.eigenvalues == (1, 2, 4)


def test_abelian_negation_acts_by_parity():
    for g in (1, 2, 3):
        rep = abelian_multiplication_action(g, -1)
        assert rep.holds
        assert all(rep.eigenvalues[i] == (-1) ** i for i in range(2 * g + 1))


def test_abelian_guards():
    with pytest.raises(SizeCapError):
        abelian_multiplication_action(4, 1)
    with pytest.raises(ValueError):
        abelian_multiplication_action(2, 6)
