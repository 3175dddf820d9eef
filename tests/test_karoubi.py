import inspect
import itertools
import json
import math
import re
from fractions import Fraction

import pytest

from finmot.errors import InvariantError, SizeCapError
from finmot.karoubi import (
    FiniteDimReport,
    KaroubiObject,
    SchurImage,
    SummandDefectError,
    assemble_summand,
    classify,
    direct_sum,
    dual_k,
    s_wedge,
    schur_apply,
    schur_super_dimension,
    split_parity,
    sym,
    tate_twist,
    tensor_k,
    wedge,
)
from finmot.supercat import (
    SuperMorphism,
    SuperSpace,
    TruncatedScalar,
    fraction_free_reduce,
    permutation_action,
    tensor_power,
)
from finmot.symgroup import (
    Partition,
    all_permutations,
    hook_dimension,
    hook_schur,
    partitions,
)
from finmot.lifting import (
    eps_perturbation,
    lift_idempotent,
    random_endomorphism,
    seeded_rng,
    seeded_unit,
)
from finmot.supercat import invert_unit
from schur_oracle import (
    image_idempotent,
    permutation_sum_rows,
    tensor_power_of,
    tensor_power_oracle,
)


def full(p, q, k=1):
    return KaroubiObject.full(SuperSpace.standard(p, q, k))


def _ambient_parity_parts(x):
    """The even and odd summands x.idem . P_parity of x's ambient, cut out
    by the coordinate projectors P_parity: the parts that ``split_parity``
    returns up to isomorphism, built without it."""
    space = x.ambient
    return tuple(
        KaroubiObject(space, x.idem.compose(SuperMorphism.projector(
            space, [i for i, p in enumerate(space.parities) if p == parity])))
        for parity in (0, 1))


def _clear_schur_images():
    from finmot import karoubi

    karoubi._schur_image.cache_clear()


# --- construction guards ---------------------------------------------------------


def test_space_built_from_lists_is_the_tuple_space():
    # a space given lists composes with, and keys the Schur cache like,
    # the same space given tuples
    listed = SuperSpace([0, 1], [0, 1])
    tupled = SuperSpace((0, 1), (0, 1))
    assert listed == tupled and hash(listed) == hash(tupled)
    ident = SuperMorphism.identity(tupled)
    assert ident.compose(SuperMorphism.identity(listed)) == ident
    image = wedge(2, KaroubiObject.full(listed))
    assert (image.dimension(), image.classical_rank()) == (0, 2)


def test_rejects_non_idempotent():
    space = SuperSpace.standard(2, 0, 1)
    f = SuperMorphism.from_entries(space, space, {(0, 0): 2})
    with pytest.raises(ValueError):
        KaroubiObject(space, f)


def test_idempotent_trace_is_integer_constant():
    # holds for every idempotent over the truncated ring
    space = SuperSpace.standard(2, 1, 3)
    rng = seeded_rng(7)
    for _ in range(20):
        base = SuperMorphism.diagonal(space, [rng.randint(0, 1) for _ in range(3)])
        e = lift_idempotent(base + eps_perturbation(space, rng))
        obj = KaroubiObject(space, e)
        tr = e.supertrace()
        assert tr.eps_part_is_zero()
        assert tr.realization().denominator == 1
        assert obj.dimension() == int(tr.realization())


def test_zero_test_matches_realization():
    # an idempotent with nilpotent entries is zero, so the exact-zero test
    # and the realization-zero test agree
    space = SuperSpace.standard(1, 1, 3)
    rng = seeded_rng(13)
    for _ in range(20):
        base = SuperMorphism.diagonal(space, [rng.randint(0, 1), rng.randint(0, 1)])
        e = lift_idempotent(base + eps_perturbation(space, rng))
        obj = KaroubiObject(space, e)
        assert obj.is_zero() == e.realization().is_zero()


# --- schur functors -----------------------------------------------------------------


def test_schur_trivial_examples():
    assert wedge(2, full(1, 0)).is_zero()          # wedge square of an even line
    assert sym(2, full(0, 1)).is_zero()            # sym square of an odd line
    w = wedge(2, full(0, 1))                       # an even line of dimension +1
    assert w.dimension() == 1 and w.classical_rank() == 1
    # the swap acts as -1 on the square of an odd line, so the
    # antisymmetrizer is the identity there
    assert image_idempotent(Partition((1, 1)), full(0, 1)).is_identity()


def test_schur_apply_idempotent_and_commutes():
    # the image's idempotent, materialised by the permutation sum, is one,
    # and commutes with every slot permutation; its traces are the image's
    # verdicts
    x = full(2, 1, 2)
    for lam in partitions(3):
        obj = schur_apply(lam, x)
        e = image_idempotent(lam, x)
        assert e.is_idempotent()
        for sigma in all_permutations(3):
            action = permutation_action(sigma, x.ambient, 3)
            assert action.compose(e) == e.compose(action), (lam, sigma)
        assert (e.trace().realization(), e.supertrace().realization()) == \
            (obj.classical_rank(), obj.dimension())


def test_schur_of_empty_partition_is_unit():
    obj = schur_apply(Partition(()), full(2, 1, 2))
    assert obj == SchurImage(1, 1) and obj.classical_rank() == obj.dimension() == 1
    assert image_idempotent(Partition(()), full(2, 1, 2)) == \
        SuperMorphism.identity(SuperSpace.unit(2))


def test_schur_of_empty_partition_on_a_summand_is_the_kept_unit():
    # Lambda^0 = S^0 of any summand is the unit, read off the one orbit (the
    # empty tuple) and kept for the process like every other image, one per
    # (parities, lam) of the free image: the full object on those parities
    # at another k has the same one; the zero summand's free image is the
    # zero space, whose 0-th power is the unit
    space = SuperSpace.standard(2, 1, 3)
    u = seeded_unit(space, seeded_rng(4))
    proper = KaroubiObject(space, invert_unit(u).compose(
        SuperMorphism.diagonal(space, [1, 0, 1])).compose(u))
    for x in (proper, KaroubiObject(space, SuperMorphism.zero(space))):
        assert not x.idem.is_identity()
        image = schur_apply(Partition(()), x)
        assert image == SchurImage(1, 1) and not image.is_zero()
        assert image_idempotent(Partition(()), x) == SuperMorphism.identity(SuperSpace.unit(3))
        assert schur_apply(Partition(()), x) is image
        assert wedge(0, x) is image and sym(0, x) is image
        assert wedge(0, KaroubiObject.full(x.free_image()[0].ambient.with_k(1))) is image


def test_schur_size_guard():
    # a full object's verdicts are read off its orbit types, so the cap
    # bounds the orbit count C(4 + 7 - 1, 7) = 120 of Lambda^7 on (2|2), not
    # its 4**7 basis tensors
    with pytest.raises(SizeCapError, match=r"orbit count C\(10, 7\) = 120 exceeds cap 119"):
        wedge(7, full(2, 2), cap=119)
    # Lambda^7 (2|2) = sum_i Lambda^i (2|0) (x) S^(7-i) (0|2): ranks 8 + 14 + 6
    image = wedge(7, full(2, 2), cap=4096)
    assert image.dimension() == 0 and image.classical_rank() == 28
    # an image is its verdicts: it carries no idempotent
    with pytest.raises(AttributeError):
        image.idem


def test_wedge_dims_even():
    for d in (2, 3, 4):
        x = full(d, 0)
        for n in range(1, d + 2):
            assert wedge(n, x).dimension() == math.comb(d, n)
            assert sym(n, x).dimension() == math.comb(d + n - 1, n)


def test_dims_odd_and_super_signs():
    # dim(0|q) = -q, so sym picks up the sign (-1)^n and the classical
    # ranks swap roles with the even case
    for q in (1, 2, 3):
        x = full(0, q)
        for n in range(1, q + 2):
            s = sym(n, x)
            w = wedge(n, x)
            assert s.dimension() == (-1) ** n * math.comb(q, n)
            assert s.classical_rank() == math.comb(q, n)
            assert w.dimension() == (-1) ** n * math.comb(q + n - 1, n)
            assert w.classical_rank() == math.comb(q + n - 1, n)


def test_wedge_vanishing_above_dimension():
    assert wedge(4, full(3, 0)).is_zero()
    assert sym(4, full(0, 3)).is_zero()


def test_two_way_dimension_agreement():
    # trace of the materialized idempotent against the character-sum route
    for (p, q) in [(2, 0), (1, 1), (2, 1), (0, 2)]:
        x = full(p, q, 2)
        for n in range(1, 5):
            for lam in partitions(n):
                obj = schur_apply(lam, x)
                assert Fraction(obj.dimension()) == schur_super_dimension(lam, x)


def test_two_way_dimension_on_proper_summand():
    space = SuperSpace.standard(2, 2, 2)
    idem = SuperMorphism.diagonal(space, [1, 0, 1, 0])
    rng = seeded_rng(3)
    u = seeded_unit(space, rng)
    conj = invert_unit(u).compose(idem).compose(u)
    x = KaroubiObject(space, conj)
    for n in (2, 3):
        for lam in partitions(n):
            obj = schur_apply(lam, x)
            assert Fraction(obj.dimension()) == schur_super_dimension(lam, x)


def test_permutation_supertrace_is_dimension_to_the_cycle_count():
    # the identity behind the closed-form super dimension, materialized:
    # str(sigma . e^(n)) = (str e)^(number of cycles of sigma) for seeded
    # conjugates of diagonal summands of a (3|2) space
    space = SuperSpace.standard(3, 2, 2)
    diagonals = {2: [1, 1, 0, 0, 0], 0: [1, 0, 0, 1, 0],
                 -1: [0, 1, 0, 1, 1], 1: [1, 1, 0, 1, 0]}
    cases = 0
    for seed in (1, 2):
        u = seeded_unit(space, seeded_rng(seed))
        uinv = invert_unit(u)
        for dim, diag in diagonals.items():
            e = uinv.compose(SuperMorphism.diagonal(space, diag)).compose(u)
            assert KaroubiObject(space, e).dimension() == dim
            en = e
            for n in range(1, 4):
                for sigma in all_permutations(n):
                    tr = permutation_action(sigma, space, n).compose(en).supertrace()
                    assert tr.eps_part_is_zero()
                    assert tr.realization() == dim ** len(sigma.cycles()), (seed, diag, sigma)
                    cases += 1
                en = en.tensor(e)
    assert cases == 72


def _binomial(x, n):
    """The generalised binomial coefficient x (x-1) ... (x-n+1) / n!."""
    return Fraction(math.prod(x - i for i in range(n)), math.factorial(n))


@pytest.mark.parametrize("p,q", [(3, 2), (2, 3)])
def test_super_dimension_binomials_beyond_the_cap(p, q):
    # dim(wedge^n X) = C(d, n) and dim(S^n X) = C(d+n-1, n) with d = p - q;
    # the character route needs no tensor power.  schur_apply counts the
    # same numbers off the surviving orbit types up to n = 8 (495 orbits,
    # 5**8 basis tensors), and below n = 6 the supertrace of the idempotent,
    # materialised in the tests by the permutation sum, agrees
    x = full(p, q)
    d = p - q
    for n in range(9):
        lam_wedge, lam_sym = Partition((1,) * n), Partition((n,) if n else ())
        assert schur_super_dimension(lam_wedge, x) == _binomial(d, n)
        assert schur_super_dimension(lam_sym, x) == _binomial(d + n - 1, n)
        for lam, want in ((lam_wedge, _binomial(d, n)), (lam_sym, _binomial(d + n - 1, n))):
            assert schur_apply(lam, x).dimension() == want, (lam, n)
            if n < 6:
                assert image_idempotent(lam, x).supertrace().realization() == want


@pytest.mark.parametrize("k", [1, 2])
def test_schur_vanishing_matches_hook_criterion(k):
    # Berele-Regev: S_lam of a (p|q) space vanishes iff lam does not fit in
    # the (p, q)-hook, i.e. iff lam has a (p+1)-th part larger than q
    cases = [(p, q, lam) for p in range(4) for q in range(4 - p)
             for n in range(5) for lam in partitions(n)]
    # edge sizes that took seconds each by the n! * d^n row sweep
    cases += [(0, 4, Partition((6,))), (3, 0, Partition((1,) * 6))]
    for p, q, lam in cases:
        outside_hook = len(lam) > p and lam[p] > q
        assert schur_apply(lam, full(p, q, k)).is_zero() == outside_hook, (p, q, lam)


def test_block_read_verdicts_equal_the_materialized_image_and_hook_schur():
    # every partition of n <= 5 on every (p|q), p, q <= 4, with (p+q)**n <=
    # 4096: the zero test, rank and super dimension read off the orbit types
    # equal those of the idempotent on the tensor power and
    # f^lam hs_lam(1^p | 1^q), and the character sum for the super dimension.
    # The idempotent's verdicts are read off its permutation-sum entries
    # (those of image_idempotent, which packs them into a morphism): it is
    # zero when no entry is, its trace is the diagonal sum over den, and its
    # supertrace that sum signed by the parities of the tensor basis
    cases = zero = 0
    for p in range(5):
        for q in range(5):
            for n in range(6):
                if p + q == 0 or (p + q) ** n > 4096:
                    continue
                x = full(p, q, 2)
                space = x.free_image()[0].ambient
                signs = [(-1) ** parity for parity in tensor_power(space, n).parities]
                for lam in partitions(n):
                    image = schur_apply(lam, x)
                    verdicts = image.is_zero(), image.classical_rank(), image.dimension()
                    rank = hook_dimension(lam) * hook_schur(lam, p, q)
                    rows, den = permutation_sum_rows(space.parities, lam)
                    diagonal = [(i, row[i]) for i, row in rows.items() if i in row]
                    materialized = (not rows, Fraction(sum(c for _, c in diagonal), den),
                                    Fraction(sum(signs[i] * c for i, c in diagonal), den))
                    assert verdicts == materialized, (p, q, lam)
                    assert verdicts[:2] == (rank == 0, rank), (p, q, lam)
                    assert verdicts[2] == schur_super_dimension(lam, x), (p, q, lam)
                    cases += 1
                    zero += verdicts[0]
    assert (cases, zero) == (414, 51)


@pytest.mark.parametrize("parts, p, q", [((2, 1), 1, 1), ((1, 1, 1), 2, 1), ((3,), 0, 2)])
def test_every_orbit_count_off_by_one_raises(monkeypatch, parts, p, q):
    # the counts of _orbit_types, which every partition reads, must add up
    # to C(d + n - 1, n), whether or not the type's strip count is zero
    from finmot import karoubi

    lam = Partition(parts)
    original = karoubi._orbit_types
    kinds = list(original(p, q, lam.n))
    for kind in kinds:
        for step in (1, -1):
            def shifted(p, q, n, kind=kind, step=step):
                counts = dict(original(p, q, n))
                counts[kind] += step
                return counts

            monkeypatch.setattr(karoubi, "_orbit_types", shifted)
            _clear_schur_images()
            with pytest.raises(InvariantError, match=r"orbits, not C\("):
                schur_apply(lam, full(p, q))
    assert len(kinds) >= 2
    monkeypatch.undo()
    _clear_schur_images()


def test_orbit_type_traces_equal_the_permutation_sum():
    # for every partition, the diagonal of the n!-term sum over the tensors
    # of one orbit type adds up to den . count . f^lam . K_lam: e_lam has
    # trace f^lam times the type's strip count on each of its orbits.  Types
    # and their orbit counts are read off the tensors themselves
    from finmot import karoubi

    cases = general = triples = 0
    for d in range(1, 7):
        for p in range(d + 1):
            parities = (0,) * p + (1,) * (d - p)
            for n in range(1, 8):
                if math.factorial(n) * d**n > 20_000:
                    continue
                kinds, diagonal = {}, []
                for t in itertools.product(range(d), repeat=n):
                    kind = tuple(sorted(((t.count(i), parities[i]) for i in set(t)),
                                        key=lambda label: (label[1], -label[0])))
                    diagonal.append(kind)
                    kinds[kind] = kinds.get(kind, 0) + (list(t) == sorted(t))
                assert kinds == karoubi._orbit_types(p, d - p, n), (p, d - p, n)
                for lam in partitions(n):
                    rows, den = permutation_sum_rows(parities, lam)
                    traces = dict.fromkeys(kinds, 0)
                    for i, kind in enumerate(diagonal):
                        traces[kind] += rows.get(i, {}).get(i, 0)
                    f = hook_dimension(lam)
                    assert traces == {kind: den * count * f * karoubi._strip_count(lam, kind)
                                      for kind, count in kinds.items()}, (p, d - p, lam)
                    cases += 1
                    general += len(lam) not in (1, n)
                    triples += len(kinds)
    assert (cases, general, triples) == (349, 156, 1547)


def _large_unit(space):
    """A unit with eps^0 entries of about 40 bits over 20-bit denominators
    and eps parts in every order: its conjugates have wide numerators."""
    k, par = space.k, space.parities
    entries = {}
    for i, pi in enumerate(par):
        for j, pj in enumerate(par):
            if pi == pj:  # parity is kept in every eps order
                coeffs = [Fraction((-1) ** (i + r) * (5 ** 17 + 4 * i + j), 3 ** 11 + r)
                          for r in range(k)]
                if j < i:
                    coeffs[0] = 0
                else:
                    coeffs[0] = Fraction((-1) ** j * (3 ** 25 + 7 * i + j), 2 ** 19 + 2 * j + 1)
                entries[i, j] = TruncatedScalar(coeffs)
    return SuperMorphism.from_entries(space, space, entries)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_schur_apply_equals_the_tensor_power_oracle(k):
    # seeded proper summands of (p|q) ambients with d <= 4, their ambient
    # parity parts and one conjugate by a unit with wide fractional entries,
    # against op . e^(n) for every partition of n <= 4: the image lives on
    # the free image W, and a^(n) . S_lam(W) . b^(n), its idempotent built
    # by the permutation sum on W, carries it back onto the ambient
    objects = []
    for (p, q), diag in {(1, 1): [1, 0], (2, 1): [1, 0, 1], (1, 2): [0, 1, 0],
                         (2, 2): [1, 0, 0, 1], (3, 1): [1, 1, 0, 1]}.items():
        space = SuperSpace.standard(p, q, k)
        u = seeded_unit(space, seeded_rng(p + 4 * q))
        x = KaroubiObject(space, invert_unit(u).compose(
            SuperMorphism.diagonal(space, diag)).compose(u))
        objects += [x, *_ambient_parity_parts(x)]
    space = SuperSpace.standard(2, 1, k)
    u = _large_unit(space)
    wide = KaroubiObject(space, invert_unit(u).compose(
        SuperMorphism.diagonal(space, [1, 0, 1])).compose(u))
    assert max(abs(c) for _, _, t in wide.idem.numerators() for c in t).bit_length() > 50 * k
    objects.append(wide)
    checked = 0
    for x in objects:
        assert not x.idem.is_identity()
        w, a, b = x.free_image()
        for n in range(1, 5):
            an, bn = tensor_power_of(a, n), tensor_power_of(b, n)
            for lam in partitions(n):
                image = schur_apply(lam, x)
                e = image_idempotent(lam, x)
                assert e.source == tensor_power(w.ambient, n)
                assert an.compose(e).compose(bn) == tensor_power_oracle(lam, x.idem), \
                    (x.ambient.parities, x.idem.nnz(), lam)
                assert (e.trace().realization(), e.supertrace().realization()) == \
                    (image.classical_rank(), image.dimension())
                checked += 1
    assert checked == 16 * 11


def test_proper_summand_schur_builds_no_tensor_power(monkeypatch):
    def refused(self, other):
        raise AssertionError("SuperMorphism.tensor called")

    space = SuperSpace.standard(2, 2, 3)
    u = seeded_unit(space, seeded_rng(11))
    x = KaroubiObject(space, invert_unit(u).compose(
        SuperMorphism.diagonal(space, [1, 0, 1, 0])).compose(u))
    monkeypatch.setattr(SuperMorphism, "tensor", refused)
    plus, minus = split_parity(x)
    assert wedge(2, plus).is_zero() and not wedge(1, plus).is_zero()
    assert sym(2, minus).is_zero() and not sym(1, minus).is_zero()
    assert not wedge(3, x).is_zero()
    assert classify(x) == FiniteDimReport("mixed", 1, 1, 0)


def test_schur_images_are_kept_on_their_object():
    # a proper summand's image is the Schur image of its free image w, kept
    # for the process under w's parities and lam: a second wedge on the same
    # summand, on w itself, or on a new object with an equal idempotent
    # returns the same image
    space = SuperSpace.standard(2, 1, 3)
    u = seeded_unit(space, seeded_rng(5))
    e = invert_unit(u).compose(SuperMorphism.diagonal(space, [1, 1, 0])).compose(u)
    x = KaroubiObject(space, e)
    image = wedge(2, x)
    w = x.free_image()[0]
    assert not hasattr(x, "_images") and not hasattr(w, "_images")
    assert wedge(2, x) is image and wedge(2, w) is image
    assert w.ambient == SuperSpace.standard(2, 0, 3)
    assert wedge(2, KaroubiObject(space, e)) is image == SchurImage(1, 1)
    assert not image.is_zero() and image.dimension() == 1


@pytest.mark.parametrize("power", [wedge, sym, s_wedge])
def test_negative_degree_is_rejected(power):
    with pytest.raises(ValueError, match=r"Schur degree n = -1 is negative"):
        power(-1, full(1, 1))


@pytest.fixture
def mutant(monkeypatch):
    """``mutant(name, old, new)`` puts in place of ``karoubi.<name>`` the
    function compiled from its own source with the one occurrence of ``old``
    replaced by ``new``; the Schur images are cleared on the way in and out."""
    from finmot import karoubi

    def install(name, old, new):
        source = inspect.getsource(getattr(karoubi, name))
        assert source.count(old) == 1, old
        namespace = dict(vars(karoubi))
        exec(compile(source.replace(old, new), karoubi.__file__, "exec"), namespace)
        monkeypatch.setattr(karoubi, name, namespace[name])
        _clear_schur_images()

    yield install
    monkeypatch.undo()
    _clear_schur_images()


# the step of _strip_count that grows a label's strip: vertical for odd labels
_VERTICAL = "parity == ODD"


@pytest.fixture
def swapped_orbit_rows(mutant):
    """Strip counts with the strips swapped: even labels grow vertical
    strips and odd labels horizontal ones."""
    mutant("_strip_count", _VERTICAL, "parity == EVEN")


def test_hook_cross_check_catches_swapped_orbit_rows(swapped_orbit_rows):
    with pytest.raises(InvariantError, match=r"\(1, 1\) of the full \(1\|0\) object "
                                             r"is nonzero, against the hook rule"):
        wedge(2, full(1, 0))
    with pytest.raises(InvariantError, match=r"\(2,\) of the full \(0\|1\) object "
                                             r"is nonzero, against the hook rule"):
        sym(2, full(0, 1))


def test_rank_check_catches_a_repeated_even_label_under_lambda(mutant):
    # even labels grown as vertical strips let an even label repeat under
    # Lambda and forbid it under S.  Inside the hook that keeps the orbit
    # count and the zero test: only f^lam hs_lam sees it.  Lambda^2 of (1|0)
    # turns nonzero against the hook rule; a space with no even label is
    # unchanged
    mutant("_strip_count", _VERTICAL, "True")
    for p, q, n in ((2, 0, 2), (1, 1, 2), (3, 2, 3), (2, 2, 4)):
        with pytest.raises(InvariantError, match=rf"S_\({', '.join(['1'] * n)}\) of the full "
                                                 rf"\({p}\|{q}\) object has rank \d+ .* "
                                                 r"against f\^lam hs_lam"):
            wedge(n, full(p, q))
    with pytest.raises(InvariantError, match=r"S_\(2,\) of the full \(2\|1\) object has rank"):
        sym(2, full(2, 1))
    with pytest.raises(InvariantError, match=r"\(1, 1\) of the full \(1\|0\) object "
                                             r"is nonzero, against the hook rule"):
        wedge(2, full(1, 0))
    assert wedge(2, full(0, 2)) == SchurImage(3, 3)
    assert sym(2, full(0, 2)) == SchurImage(1, 1)


def test_rank_check_catches_a_repeated_odd_label_under_s(mutant):
    # odd labels grown as horizontal strips let an odd label repeat under S
    # and forbid it under Lambda, and change the counts of types with a
    # repeated odd label under (3, 1) and (2, 1, 1): inside the hook only
    # f^lam hs_lam sees it.  S^2 of (0|1) turns nonzero against the hook
    # rule; a space with no odd label is unchanged
    mutant("_strip_count", _VERTICAL, "False")
    for lam, p, q in (((2,), 1, 1), ((3,), 2, 3), ((1, 1), 1, 1), ((1, 1, 1), 2, 2),
                      ((3, 1), 1, 2), ((2, 1, 1), 2, 1)):
        with pytest.raises(InvariantError, match=rf"S_{re.escape(str(lam))} of the full "
                                                 rf"\({p}\|{q}\) object has rank \d+ .* "
                                                 r"against f\^lam hs_lam"):
            schur_apply(Partition(lam), full(p, q))
    with pytest.raises(InvariantError, match=r"\(2,\) of the full \(0\|1\) object "
                                             r"is nonzero, against the hook rule"):
        sym(2, full(0, 1))
    assert schur_apply(Partition((2, 1)), full(3, 0)) == SchurImage(16, 16)


def test_dropped_odd_slot_sign_turns_the_dimension_checks_red(mutant, capsys):
    # with every orbit type counted +1 in the super dimension, the odd
    # kimura-dim checks and the two-way dimension check fail in the report,
    # with no traceback; the even checks, which have no odd slot, pass
    from finmot.cli import main

    mutant("_schur_image",
           "dimension += -t if sum(mult for mult, parity in kind if parity) & 1 else t",
           "dimension += t")
    assert main(["--out", "json", "verify", "kimura-dim"]) == 1
    out, err = capsys.readouterr()
    checks = {c["id"]: c["passed"] for c in json.loads(out)["checks"]}
    assert "Traceback" not in err
    assert {i for i, passed in checks.items() if not passed} == \
        {i for i in checks if i.startswith("kimura-dim/odd-")} != set()
    # Lambda^3 of (1|2) has rank C(4, 3) + C(3, 2) = 7 and super dimension
    # C(-1, 3) = -1
    assert main(["--out", "json", "schur", "--lam", "1,1,1", "--p", "1", "--q", "2"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert json.loads(out)["checks"] == [{
        "detail": "trace 7, character sum -1", "id": "schur/dimension-two-ways",
        "passed": False}]


def test_lambda_and_s_verdicts_build_no_block(monkeypatch):
    # every wedge, sym, s_wedge and classify of a full (p|q), p, q <= 7, and
    # every other partition of n <= 8 on it within the orbit cap, reads
    # strip counts: no n!-term idempotent is built or multiplied.  Lambda
    # and S verdicts are binomials, and every rank is f^lam hs_lam
    from finmot import symgroup
    from finmot.symgroup import GroupAlgebraElement

    def refused(name):
        def raising(*args):
            raise AssertionError(f"{name} called")
        return raising

    monkeypatch.setattr(symgroup, "young_idempotent", refused("young_idempotent"))
    monkeypatch.setattr(GroupAlgebraElement, "__mul__", refused("GroupAlgebraElement.__mul__"))
    _clear_schur_images()
    cap = 10**5
    general = 0
    for p in range(8):
        for q in range(8):
            x = full(p, q)
            split = split_parity(x)
            plus, minus = split
            for n in range(9):
                assert wedge(n, plus, cap).classical_rank() == math.comb(p, n)
                assert sym(n, minus, cap).classical_rank() == math.comb(q, n)
                if p + q and math.comb(p + q + n - 1, n) <= cap:
                    for lam in partitions(n):
                        rank = hook_dimension(lam) * hook_schur(lam, p, q)
                        assert schur_apply(lam, x, cap).classical_rank() == rank, (p, q, lam)
                        general += len(lam) not in (1, n)
                # SLambda^n X = sum_i Lambda^i X+ (x) S^(n-i) X-
                assert s_wedge(n, x, split, cap) == SchurImage(
                    math.comb(p + q, n),
                    sum(math.comb(p, i) * math.comb(q, n - i) * (-1) ** (n - i)
                        for i in range(n + 1)))
            kind = "mixed" if p and q else "odd" if q else "even"
            assert classify(x) == FiniteDimReport(kind, p, q, p - q)
    # two general partitions of the goldens (tests/golden)
    assert schur_apply(Partition((2, 2, 1, 1)), full(2, 2)) == SchurImage(432, 0)
    assert schur_apply(Partition((3, 2, 1)), full(3, 3)) == SchurImage(14336, 0)
    assert general == 3153
    _clear_schur_images()


def test_report_verdicts_build_no_tensor_power_idempotent(monkeypatch, capsys):
    # every zero test, rank and super dimension in a Schur report, s_wedge's
    # among them, is read off the orbit types: no idempotent is tensored or
    # block-summed, and no n!-term group-algebra idempotent is built, for
    # Lambda and S or any other partition
    from finmot import karoubi, symgroup
    from finmot.cli import main

    def refused(name):
        def raising(*args):
            raise AssertionError(f"{name} called")
        return raising

    monkeypatch.setattr(karoubi, "_block_diagonal", refused("_block_diagonal"))
    monkeypatch.setattr(symgroup, "young_idempotent", refused("young_idempotent"))
    monkeypatch.setattr(SuperMorphism, "tensor", refused("SuperMorphism.tensor"))
    assert main(["--out", "json", "verify", "vanishing"]) == 0
    assert main(["--out", "json", "verify", "kimura-dim"]) == 0
    assert main(["--out", "json", "verify", "vanishing", "--grid", "p=6,q=0,k=1"]) == 0
    assert main(["--out", "json", "--k", "3", "schur", "--lam", "3,1", "--p", "2",
                 "--q", "6"]) == 0
    capsys.readouterr()
    # the library calls of the perturbed benchmark on seeded proper summands
    for x in _seeded_summands(2):
        split = split_parity(x)
        plus, minus = split
        a, b = plus.classical_rank(), minus.classical_rank()
        assert wedge(a + 1, plus).is_zero() and sym(b + 1, minus).is_zero()
        assert s_wedge(a + b + 1, x, split).is_zero()
        top = s_wedge(a + b, x, split)
        assert not top.is_zero() and top.dimension() == (-1) ** b


def test_seeded_wedge_vanishing_on_padded_ambient():
    # a rank-(1|0) summand of a (2|1) ambient, conjugated by a seeded unit:
    # its wedge square vanishes and its sym powers are all 1-dimensional
    space = SuperSpace.standard(2, 1, 3)
    for seed in range(5):
        u = seeded_unit(space, seeded_rng(seed + 1))
        base = SuperMorphism.diagonal(space, [1, 0, 0])
        conj = invert_unit(u).compose(base).compose(u)
        x = KaroubiObject(space, conj)
        assert wedge(2, x).is_zero()
        assert not wedge(1, x).is_zero()
        assert sym(2, x).dimension() == 1
        report = classify(x)
        assert report.kind == "even" and report.kim_plus == 1


def test_seeded_mixed_rank_summand_classification():
    # a genuinely eps-perturbed rank-(2|1) summand of a (3|3) ambient keeps
    # the vanishing thresholds of its ranks
    space = SuperSpace.standard(3, 3, 2)
    base = SuperMorphism.diagonal(space, [1, 1, 0, 1, 0, 0])
    for seed in range(3):
        u = seeded_unit(space, seeded_rng(seed + 1))
        conj = invert_unit(u).compose(base).compose(u)
        assert conj != base  # the perturbation is not trivial here
        x = KaroubiObject(space, conj)
        plus, minus = split_parity(x)
        assert wedge(3, plus).is_zero()
        assert not wedge(2, plus).is_zero()
        assert sym(2, minus).is_zero()
        assert not sym(1, minus).is_zero()
        report = classify(x)
        assert report == FiniteDimReport("mixed", 2, 1, 1)


# --- parity split and classification -----------------------------------------------------


def test_split_parity_of_full_object():
    # the parts are the parity blocks of the object itself, selected by
    # parity and kept in order, also when the parities interleave
    plus, minus = split_parity(full(2, 1))
    assert plus.idem.is_identity() and minus.idem.is_identity()
    assert (plus.ambient, minus.ambient) == (SuperSpace.standard(2, 0),
                                             SuperSpace((1,), (1,)))
    assert plus.dimension() == 2 and plus.classical_rank() == 2
    assert minus.dimension() == -1 and minus.classical_rank() == 1
    weighted = SuperSpace((1, 0, 0, 1, 0), (0, 2, 0, 1, 3), 2)
    plus, minus = split_parity(KaroubiObject.full(weighted))
    assert (plus.ambient, minus.ambient) == (SuperSpace((0, 0, 0), (2, 0, 3), 2),
                                             SuperSpace((1, 1), (0, 1), 2))
    assert plus.idem.is_identity() and minus.idem.is_identity()


def test_split_parity_of_perturbed_idempotent():
    # a proper rank-(1|2) summand splits into the even and odd blocks of
    # its free image, full objects of the ranks of its ambient parity parts
    space = SuperSpace.standard(2, 2, 2)
    rng = seeded_rng(9)
    base = SuperMorphism.diagonal(space, [1, 0, 1, 1])
    u = seeded_unit(space, rng)
    conj = invert_unit(u).compose(base).compose(u)
    x = KaroubiObject(space, conj)
    plus, minus = split_parity(x)
    assert plus.idem.is_identity() and minus.idem.is_identity()
    assert SuperSpace.concat(plus.ambient, minus.ambient) == x.free_image()[0].ambient
    assert (plus.classical_rank(), minus.classical_rank()) == (1, 2)
    assert (plus.dimension(), minus.dimension()) == (1, -2)
    ambient_plus, ambient_minus = _ambient_parity_parts(x)
    assert (ambient_plus.classical_rank(), ambient_minus.classical_rank()) == (1, 2)


def test_split_parity_and_classify_split_each_summand_once(monkeypatch):
    # a full object is its own free image, so its parts and their powers
    # need no compose and no elimination; a proper summand is eliminated
    # once, by its own free image, and none of its parts is split again
    from finmot import karoubi

    def refused(name):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return wrapper

    weighted = SuperSpace((1, 0, 0, 1, 0), (0, 2, 0, 1, 3), 2)
    x = _seeded_summands(2)[3]  # rank (2|1) in a (3|2) ambient
    x.free_image()
    monkeypatch.setattr(SuperMorphism, "compose", refused("SuperMorphism.compose"))
    monkeypatch.setattr(karoubi, "fraction_free_reduce", refused("fraction_free_reduce"))
    for obj, report in [(full(2, 1, 3), FiniteDimReport("mixed", 2, 1, 1)),
                        (KaroubiObject.full(weighted), FiniteDimReport("mixed", 3, 2, 1))]:
        assert all(part.idem.is_identity() for part in split_parity(obj))
        assert classify(obj) == report
    assert classify(x) == FiniteDimReport("mixed", 2, 1, 1)


def test_parity_decomposition_unique_up_to_explicit_isomorphism():
    # two parity splits of the same object are matched summand by summand
    # by the corner-unit construction
    from finmot.lifting import corner_unit_check, eps_perturbation

    space = SuperSpace.standard(2, 2, 3)
    ident = SuperMorphism.identity(space)
    for seed in range(5):
        rng = seeded_rng(seed + 1)
        p = SuperMorphism.diagonal(space, [1, 0, 1, 0])
        plus, minus = _ambient_parity_parts(KaroubiObject(space, p))
        # a unit commuting with p produces a second split of the same object
        n = eps_perturbation(space, rng)
        r = ident - p
        w = ident + p.compose(n).compose(p) + r.compose(n).compose(r)
        assert w.compose(p) == p.compose(w)
        winv = invert_unit(w)
        for part in (plus, minus):
            other = winv.compose(part.idem).compose(w)
            assert other.is_idempotent()
            rep = corner_unit_check(part.idem, other)
            assert rep.iso_from.compose(rep.iso_to) == part.idem
            assert rep.iso_to.compose(rep.iso_from) == other


def test_seeded_vanishing_thresholds_up_to_rank_three():
    # wedge(p+1) of a rank-(p|0) part and sym(q+1) of a rank-(0|q) part
    # vanish for p, q <= 3 at every truncation k <= 3
    for k in (1, 2, 3):
        for rank in (1, 2, 3):
            space = SuperSpace.standard(rank, rank, k)
            for seed in range(3):
                rng = seeded_rng(seed + 1)
                u = seeded_unit(space, rng)
                uinv = invert_unit(u)
                base = SuperMorphism.identity(space)
                conj = uinv.compose(base).compose(u)
                obj = KaroubiObject(space, conj)
                plus, minus = split_parity(obj)
                assert wedge(rank + 1, plus, cap=5000).is_zero()
                assert not wedge(rank, plus, cap=5000).is_zero()
                assert sym(rank + 1, minus, cap=5000).is_zero()
                assert not sym(rank, minus, cap=5000).is_zero()


def test_classify_makes_two_schur_calls_per_part(monkeypatch):
    # kim_+ and kim_- are the parity ranks r, checked by the witnesses
    # Lambda^r != 0 = Lambda^(r+1) on X+ and S^r != 0 = S^(r+1) on X-
    from finmot import karoubi

    calls = []
    original = karoubi.schur_apply

    def counted(lam, x, cap):
        calls.append(lam.parts)
        return original(lam, x, cap)

    monkeypatch.setattr(karoubi, "schur_apply", counted)
    for x, (p, q) in [(full(3, 2), (3, 2)), (KaroubiObject.full(SuperSpace.zero_space(1)), (0, 0)),
                      (_seeded_summands(2)[3], (2, 1))]:
        calls.clear()
        report = classify(x)
        assert (report.kim_plus, report.kim_minus) == (p, q)
        assert calls == [(1,) * p, (1,) * (p + 1), (q,) if q else (), (q + 1,)]


def test_classify_names_the_failing_witness(monkeypatch):
    # a wedge that answers one degree too high makes Lambda^r X+ vanish
    from finmot import karoubi

    monkeypatch.setattr(karoubi, "wedge", lambda n, x, cap: wedge(n + 1, x, cap))
    with pytest.raises(InvariantError, match=r"Lambda\^3 X\+ is zero on a part of rank 3"):
        classify(full(3, 1))
    monkeypatch.setattr(karoubi, "wedge", wedge)
    monkeypatch.setattr(karoubi, "sym", lambda n, x, cap: sym(max(n - 1, 0), x, cap))
    with pytest.raises(InvariantError, match=r"S\^2 X- is nonzero on a part of rank 1"):
        classify(full(3, 1))


def test_classify_examples():
    assert classify(full(3, 0)) == FiniteDimReport("even", 3, 0, 3)
    assert classify(full(0, 2)) == FiniteDimReport("odd", 0, 2, -2)
    zero = classify(KaroubiObject.full(SuperSpace.zero_space(1)))
    assert zero.evenly_finite_dimensional and zero.oddly_finite_dimensional
    assert zero.dim == 0
    mixed = classify(full(2, 1))
    assert mixed.kind == "mixed" and mixed.dim == 1
    assert mixed.kim_plus == 2 and mixed.kim_minus == 1


def test_classify_respects_sum_and_tensor():
    a, b = full(2, 0, 2), full(0, 1, 2)
    s = direct_sum(a, b)
    assert classify(s).dim == classify(a).dim + classify(b).dim
    t = tensor_k(a, b)
    rt = classify(t)
    assert rt.dim == classify(a).dim * classify(b).dim
    assert rt.kim_plus - rt.kim_minus == rt.dim


def _sheared_summand(p, q, diag, c, k=3):
    """u^-1 diag u for a seeded unit u times a shear by 1/c: the idempotent
    has denominator c^2."""
    space = SuperSpace.standard(p, q, k)
    shear = SuperMorphism.identity(space) + SuperMorphism.from_entries(
        space, space, {(0, 1): Fraction(1, c)})
    u = seeded_unit(space, seeded_rng(p + 4 * q)).compose(shear)
    return KaroubiObject(space, invert_unit(u).compose(
        SuperMorphism.diagonal(space, diag)).compose(u))


# (p, q, diag, c) of seeded mixed-parity summands with den > 1
_SHEARS = [(2, 1, [1, 0, 1], 2), (2, 2, [0, 1, 0, 1], 3),
           (3, 1, [1, 0, 1, 1], 5), (2, 3, [1, 0, 1, 1, 0], 4)]


def test_classical_rank_is_the_rank_of_the_realization():
    # seeded mixed-parity summands with den > 1, and their ambient parity
    # parts, against fraction-free elimination of the eps^0 layer
    checked = 0
    for p, q, diag, c in _SHEARS:
        x = _sheared_summand(p, q, diag, c)
        assert x.idem.den > 1
        for part in (x, *_ambient_parity_parts(x)):
            d = part.ambient.dim
            mat = [[0] * d for _ in range(d)]
            for i, j, t in part.idem.numerators():
                mat[i][j] = t[0]
            pivots, _ = fraction_free_reduce(mat)
            assert part.classical_rank() == len(pivots)
            checked += 1
        assert x.classical_rank() == sum(diag)
    assert checked == 12


def test_direct_sum_is_the_block_diagonal_of_its_parts():
    parts = [_sheared_summand(2, 1, [1, 0, 1], 2),
             _sheared_summand(2, 2, [0, 1, 0, 1], 3),
             _sheared_summand(3, 1, [1, 0, 1, 0], 5)]
    assert [x.idem.den for x in parts] == [4, 9, 25]
    assert not any(x.idem.is_identity() for x in parts)
    ambient = SuperSpace(sum((x.ambient.parities for x in parts), ()),
                         sum((x.ambient.weights for x in parts), ()), 3)
    entries = {}
    off = 0
    for x in parts:
        for i, j, s in x.idem.items():
            entries[i + off, j + off] = s
        off += x.ambient.dim
    total = direct_sum(*parts)
    assert total.ambient == ambient
    assert total.idem == SuperMorphism.from_entries(ambient, ambient, entries)
    nested = direct_sum(direct_sum(parts[0], parts[1]), parts[2])
    assert nested.ambient == ambient and nested.idem == total.idem
    assert total.dimension() == sum(x.dimension() for x in parts)
    assert direct_sum(parts[1]).idem == parts[1].idem


def test_direct_sum_needs_parts_of_one_truncation_order():
    with pytest.raises(ValueError, match="empty direct sum"):
        direct_sum()
    with pytest.raises(ValueError, match="truncation orders differ"):
        direct_sum(full(1, 0, 2), full(1, 1, 2), full(0, 1, 3))


def test_sums_and_products_of_summands_build_each_space_once(monkeypatch):
    from finmot import karoubi, supercat

    calls = {"tensor": 0, "block_diagonal": 0, "objects": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(supercat, "tensor", counted("tensor", supercat.tensor))
    monkeypatch.setattr(karoubi, "_block_diagonal",
                        counted("block_diagonal", karoubi._block_diagonal))
    a, b = _sheared_summand(2, 1, [1, 0, 1], 2), _sheared_summand(2, 2, [0, 1, 0, 1], 3)
    calls["tensor"] = 0
    product = tensor_k(a, b)
    assert calls["tensor"] == 1
    assert product.ambient == SuperSpace(
        tuple(pa ^ pb for pa in a.ambient.parities for pb in b.ambient.parities),
        tuple(wa + wb for wa in a.ambient.weights for wb in b.ambient.weights), 3)
    # a morphism between different spaces still gets its own target product
    f = SuperMorphism.zero(SuperSpace.standard(1, 0), SuperSpace.standard(0, 1))
    calls["tensor"] = 0
    assert f.tensor(f).target == SuperSpace((0,), (2,))
    assert calls["tensor"] == 2
    # on (2|1) some Lambda^i (2|0) (x) S^(n-i) (0|1) is nonzero for n <= 3;
    # at n = 4 every term vanishes.  The sum is read off its terms, kept for
    # the process, so s_wedge constructs no object and
    # sums no blocks, and its image carries no idempotent
    x = full(2, 1, 1)
    split = split_parity(x)
    monkeypatch.setattr(KaroubiObject, "_of", classmethod(
        counted("objects", KaroubiObject._of.__func__)))
    for n in range(5):
        calls.update(block_diagonal=0, objects=0)
        image = s_wedge(n, x, split)
        assert image.is_zero() == (n == 4), n
        with pytest.raises(AttributeError):
            image.idem
        assert (calls["block_diagonal"], calls["objects"]) == (0, 0), n


def test_classify_dual_same_report():
    for (p, q) in [(2, 0), (0, 2), (2, 1)]:
        x = full(p, q, 2)
        assert classify(dual_k(x)) == classify(x)


def test_classify_surfaces_size_guard():
    # classify counts the surviving orbits of the parity parts' powers, so
    # the cap bounds the orbit count: Lambda^6 of the
    # (5|0) part of (5|5) has C(10, 6) = 210 orbits (5**6 > 4096 refused it
    # when the cap bounded the tensor power), and none survives
    assert classify(full(4, 4), cap=4096) == FiniteDimReport("mixed", 4, 4, 0)
    assert classify(full(5, 5), cap=4096) == FiniteDimReport("mixed", 5, 5, 0)
    with pytest.raises(SizeCapError, match=r"orbit count C\(10, 6\) = 210 exceeds cap 209"):
        classify(full(5, 5), cap=209)


# --- twists ------------------------------------------------------------------------------


def test_tate_twist_shifts_weights():
    line = KaroubiObject.lefschetz(1, 2)
    assert line.ambient.weights == (2,)
    twisted = tate_twist(line, 1)
    assert twisted.ambient.weights == (0,)
    assert twisted.dimension() == 1


def test_tensor_adds_twists_and_dual_negates():
    l1 = KaroubiObject.lefschetz(1, 1)
    l2 = tensor_k(l1, l1)
    assert l2.ambient.weights == (4,)
    assert dual_k(l1).ambient.weights == (-2,)


# --- s_wedge ------------------------------------------------------------------------------


@pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)])
def test_s_wedge_vanishing_threshold(p, q):
    x = full(p, q, 1)
    split = split_parity(x)
    assert s_wedge(p + q + 1, x, split).is_zero()
    assert not s_wedge(p + q, x, split).is_zero()


def test_s_wedge_examples_on_1_1():
    x = full(1, 1)
    assert s_wedge(3, x).is_zero()
    assert not s_wedge(2, x).is_zero()
    # the three level-2 summands explicitly: only the mixed one survives,
    # as a product of two nonzero factors
    plus, minus = split_parity(x)
    assert wedge(2, plus).is_zero()
    assert wedge(1, plus) == SchurImage(1, 1)
    assert sym(1, minus) == s_wedge(2, x) == SchurImage(1, -1)
    assert sym(2, minus).is_zero()
    assert KaroubiObject.full(SuperSpace.zero_space(1)).is_zero()


@pytest.mark.parametrize("k", [1, 3])
def test_s_wedge_idempotent_is_the_block_sum_of_its_terms(k):
    # the block sum of wedge (x) sym over the terms whose two factors are
    # nonzero, each factor's idempotent built by the permutation sum, has the
    # rank and super dimension that s_wedge reads off those terms as its
    # trace and supertrace
    from finmot.karoubi import _block_diagonal

    checked = 0
    for x in _seeded_summands(k):
        split = split_parity(x)
        plus, minus = split
        for n in range(5):
            image = s_wedge(n, x, split)
            terms = [(Partition((1,) * i), Partition((n - i,) if n > i else ()))
                     for i in range(n + 1)]
            terms = [(a, b) for a, b in terms
                     if not (schur_apply(a, plus).is_zero() or schur_apply(b, minus).is_zero())]
            if not terms:
                assert image == SchurImage(0, 0)
                continue
            e = _block_diagonal([image_idempotent(a, plus).tensor(image_idempotent(b, minus))
                                 for a, b in terms])
            assert e.is_idempotent()
            assert e.trace().realization() == image.classical_rank()
            assert e.supertrace().realization() == image.dimension()
            checked += 1
    assert checked >= 30


def test_s_wedge_of_full_objects_in_closed_form():
    # SLambda^n of (p|q) is sum_i Lambda^i (p|0) (x) S^(n-i) (0|q): rank
    # C(p + q, n), and super dimension the t^n coefficient of
    # (1 + t)^p (1 - t)^q; (6|0) and (0|6) reach n = 6 and 7 within the cap
    cases = 0
    for d in range(7):
        for p in range(d + 1):
            x = full(p, d - p)
            split = split_parity(x)
            for n in range(d + 2):
                image = s_wedge(n, x, split)
                dimension = sum(math.comb(p, i) * (-1) ** (n - i) * math.comb(d - p, n - i)
                                for i in range(n + 1))
                assert (image.classical_rank(), image.dimension(), image.is_zero()) == \
                    (math.comb(d, n), dimension, n > d), (p, d - p, n)
                cases += 1
    assert cases == 168


# --- free images ------------------------------------------------------------------------


def _seeded_summands(k):
    """u^-1 P u on the ambients (2|1), (3|2) and (2|3) for seeded units u,
    and sheared summands whose idempotent has den > 1."""
    out = []
    for (p, q), diags in {(2, 1): ([1, 0, 1], [0, 1, 0], [1, 1, 1]),
                          (3, 2): ([1, 0, 1, 1, 0], [0, 1, 0, 1, 1], [0, 0, 0, 0, 0]),
                          (2, 3): ([1, 1, 0, 1, 0], [0, 1, 1, 0, 1])}.items():
        space = SuperSpace.standard(p, q, k)
        for seed, diag in enumerate(diags):
            u = seeded_unit(space, seeded_rng(10 * p + q + seed))
            out.append(KaroubiObject(space, invert_unit(u).compose(
                SuperMorphism.diagonal(space, diag)).compose(u)))
    out += [_sheared_summand(2, 1, [1, 0, 1], 2, k), _sheared_summand(2, 3, [1, 0, 1, 1, 0], 4, k)]
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_free_image_round_trips_on_seeded_summands(k):
    # w is a full (p|q) object of the realization's parity ranks, and the
    # split (a, b) satisfies b . a = id_W and a . b = e, on each summand and
    # on its ambient parity parts
    sheared = 0
    for x in _seeded_summands(k):
        sheared += x.idem.den > 1
        for part in (x, *_ambient_parity_parts(x)):
            w, a, b = part.free_image()
            assert part.free_image() is part.free_image()
            assert w.idem.is_identity() and w.k == k
            assert w.dimension() == part.dimension()
            assert w.ambient.dim == part.classical_rank()
            assert b.compose(a) == SuperMorphism.identity(w.ambient)
            assert a.compose(b) == part.idem
    assert sheared >= 2


def _pivot_row_summands():
    """e0 = [[0, 0], [1, 1]] at k = 1 and 3."""
    out = []
    for k in (1, 3):
        space = SuperSpace.standard(2, 0, k)
        out.append(KaroubiObject(space, SuperMorphism.from_entries(
            space, space, {(1, 0): 1, (1, 1): 1})))
    return out


def test_free_image_needs_pivot_rows():
    # e0 = [[0, 0], [1, 1]]: the pivot column 0 has principal entry 0, so
    # the minor on the column pivots alone is singular; the reduced row
    # (1, 1) of the pivot column gives left . e0 . iota_J = 1
    for x in _pivot_row_summands():
        e0 = x.idem
        w, a, b = x.free_image()
        assert e0.entry(0, 0).is_zero() and w.ambient.dim == 1
        assert b.compose(a) == SuperMorphism.identity(w.ambient)
        assert a.compose(b) == e0


def _coordinate_projectors():
    """The ambient parity parts of a full object, and a projector onto
    scattered basis vectors of a weighted ambient, whose support listed
    block by block is (2, 4, 1, 0)."""
    weighted = SuperSpace((1, 0, 0, 1, 0), (0, 2, 0, 0, 0), 2)
    return [*_ambient_parity_parts(full(2, 2, 3)),
            KaroubiObject(weighted, SuperMorphism.projector(weighted, [4, 0, 2, 1]))]


def test_free_image_of_a_coordinate_projector_is_its_support():
    # J is the support, listed block by block, and its reduced rows are
    # unit rows, so the split is (full(W), iota_J, pi_J): left . a is the
    # identity, which inverts to itself
    supports = [[0, 1], [2, 3], [2, 4, 1, 0]]
    for x, cols in zip(_coordinate_projectors(), supports):
        space = x.ambient
        w = SuperSpace(tuple(space.parities[j] for j in cols),
                       tuple(space.weights[j] for j in cols), space.k)
        incl = SuperMorphism.from_entries(w, space, {(j, c): 1 for c, j in enumerate(cols)})
        proj = SuperMorphism.from_entries(space, w, {(c, j): 1 for c, j in enumerate(cols)})
        image, a, b = x.free_image()
        assert (image.idem, a, b) == (SuperMorphism.identity(w), incl, proj)
    assert w.parities == (0, 0, 0, 1) and w.weights == (0, 0, 2, 0)


def _block_pivots(e):
    """Pivot columns of the realization of e, found by one elimination per
    (parity, weight) block and listed block by block."""
    space = e.source
    blocks = {}
    for i, key in enumerate(zip(space.parities, space.weights)):
        blocks.setdefault(key, []).append(i)
    real = {(i, j): t[0] for i, j, t in e.numerators() if t[0]}
    cols = []
    for key in sorted(blocks):
        idx = blocks[key]
        cols += [idx[c] for c in fraction_free_reduce(
            [[real.get((i, j), 0) for j in idx] for i in idx])[0]]
    return cols


@pytest.mark.parametrize("k", [1, 3])
def test_free_image_pivots_equal_the_per_block_pivots(k, monkeypatch):
    # one elimination of the whole realization finds the pivot columns
    # that one elimination per (parity, weight) block finds, and
    # a = e iota_J lists the columns J block by block
    from finmot import karoubi

    found = []

    def recorded(mat, ncols=None):
        pivots, det = fraction_free_reduce(mat, ncols)
        found.append(pivots)
        return pivots, det

    monkeypatch.setattr(karoubi, "fraction_free_reduce", recorded)
    checked = 0
    for x in _seeded_summands(k):
        for part in (x, *_ambient_parity_parts(x)):
            if part.idem.is_identity():
                continue
            cols = _block_pivots(part.idem)
            found.clear()
            _, a, _ = part.free_image()
            assert [sorted(p) for p in found] == [sorted(cols)]
            space = part.ambient
            w = SuperSpace(tuple(space.parities[j] for j in cols),
                           tuple(space.weights[j] for j in cols), k)
            assert a == part.idem.compose(SuperMorphism.from_entries(
                w, space, {(j, c): 1 for c, j in enumerate(cols)}))
            checked += 1
    assert checked >= 25
    for x in _coordinate_projectors():
        found.clear()
        x.free_image()
        assert [sorted(p) for p in found] == [sorted(_block_pivots(x.idem))]


def _two_sided_split(e):
    """The split of e by pivot columns J and pivot rows K of its
    realization, one elimination per direction, each listed by (parity,
    weight, index): a = e iota_J and b = (pi_K e iota_J)^-1 pi_K e, the
    inverse by ``invert_unit``.  An oracle for ``free_image``, which reads
    the split off one elimination."""
    space = e.source
    span = range(space.dim)
    real = {(i, j): t[0] for i, j, t in e.numerators() if t[0]}

    def order(i):
        return space.parities[i], space.weights[i], i

    cols = sorted(fraction_free_reduce(
        [[real.get((i, j), 0) for j in span] for i in span])[0], key=order)
    rows = sorted(fraction_free_reduce(
        [[real.get((i, j), 0) for i in span] for j in span])[0], key=order)
    w = SuperSpace(tuple(space.parities[j] for j in cols),
                   tuple(space.weights[j] for j in cols), space.k)
    proj = SuperMorphism.from_entries(space, w, {(r, i): 1 for r, i in enumerate(rows)})
    incl = SuperMorphism.from_entries(w, space, {(j, c): 1 for c, j in enumerate(cols)})
    a = e.compose(incl)
    return w, a, invert_unit(proj.compose(a)).compose(proj.compose(e))


def _split_cases(k):
    """The seeded and the sheared summands at k, each with its ambient
    parity parts."""
    summands = [*_seeded_summands(k), *(_sheared_summand(*s, k) for s in _SHEARS)]
    return [part for x in summands for part in (x, *_ambient_parity_parts(x))]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_free_image_equals_the_two_sided_split(k):
    # b is fixed by a (b1 = b1 . a . b2 = b2), so the split read off one
    # elimination is the two-sided one, morphism for morphism
    cases = _split_cases(k)
    for x in cases:
        w, a, b = x.free_image()
        assert (w.ambient, a, b) == _two_sided_split(x.idem)
    assert sum(x.idem.den > 1 for x in cases) >= 6


def test_free_image_of_projectors_equals_the_two_sided_split():
    for x in (*_coordinate_projectors(), *_pivot_row_summands()):
        w, a, b = x.free_image()
        assert (w.ambient, a, b) == _two_sided_split(x.idem)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_free_image_inverts_without_elimination(k, monkeypatch):
    # left . a has realization 1, so invert_unit takes the Neumann series:
    # the sheared summands split with supercat's elimination refused, the
    # (2|2) one too, whose pivot-row minor pi_K e iota_J is not 1 mod eps
    from finmot import supercat

    cases = _split_cases(k)

    def refused(mat, ncols=None):
        raise AssertionError("invert_unit eliminated")

    monkeypatch.setattr(supercat, "fraction_free_reduce", refused)
    for x in cases:
        assert x.free_image()[0].ambient.dim == x.classical_rank()
    assert sum(x.idem.den > 1 for x in cases) >= 6


def test_free_image_round_trip_checks_name_the_failing_trip(monkeypatch):
    from finmot import karoubi

    def x():
        return _seeded_summands(2)[1]

    # one pivot too few: b . a = id still holds, a . b != e
    def short(mat, ncols=None, reduce=fraction_free_reduce):
        pivots, det = reduce(mat, ncols)
        return pivots[:-1], det

    monkeypatch.setattr(karoubi, "fraction_free_reduce", short)
    with pytest.raises(InvariantError, match=r"a \. b != e"):
        x().free_image()
    monkeypatch.undo()
    monkeypatch.setattr(karoubi, "invert_unit", lambda m: invert_unit(m).scale(2))
    with pytest.raises(InvariantError, match=r"b \. a != id_W"):
        x().free_image()


def _ambient_wedge(n, part):
    """Lambda^n of a summand as op . e^(n) on its ambient's tensor power
    (``tensor_power_oracle``), never through its free image."""
    return tensor_power_oracle(Partition((1,) * n), part.idem)


def _ambient_sym(n, part):
    """S^n of a summand, as ``_ambient_wedge``."""
    return tensor_power_oracle(Partition((n,) if n else ()), part.idem)


def _ambient_classify(x):
    """The finite-dimensionality report with every power taken on the
    parity parts as summands of the ambient (the materialised route)."""
    plus, minus = _ambient_parity_parts(x)
    assert plus.ambient == minus.ambient == x.ambient
    kims = []
    for power, part in ((_ambient_wedge, plus), (_ambient_sym, minus)):
        n = 1
        while not power(n, part).is_zero():
            n += 1
        kims.append(n - 1)
    kind = "even" if not kims[1] else "odd" if not kims[0] else "mixed"
    return FiniteDimReport(kind, kims[0], kims[1], x.dimension())


@pytest.mark.parametrize("k", [1, 3])
def test_free_image_route_matches_the_ambient_route(k):
    # s_wedge on the parity blocks of the free images against the block sum
    # of wedge (x) sym on the parity summands of the ambient, in dimension,
    # rank and zero verdict for n <= 4, and classify against the ambient route
    from finmot.karoubi import _block_diagonal

    checked = 0
    for x in _seeded_summands(k):
        split = split_parity(x)
        plus, minus = _ambient_parity_parts(x)
        assert plus.ambient == minus.ambient == x.ambient
        for n in range(5):
            image = s_wedge(n, x, split)
            oracle = KaroubiObject._of(_block_diagonal(
                [_ambient_wedge(i, plus).tensor(_ambient_sym(n - i, minus))
                 for i in range(n + 1)]))
            assert (image.dimension(), image.classical_rank(), image.is_zero()) == \
                (oracle.dimension(), oracle.classical_rank(), oracle.is_zero()), (x.ambient, n)
            checked += 1
        assert classify(x) == _ambient_classify(x)
    assert checked == 10 * 5


def test_classify_rank_4_1_summand_of_a_6_3_ambient():
    # Lambda^4 of the even part is read off the blocks of its free image
    # (4|0), so the cap bounds C(4 + 4 - 1, 4) = 35 orbits, not the 9**4
    # tensors of the ambient
    space = SuperSpace.standard(6, 3, 3)
    u = seeded_unit(space, seeded_rng(5))
    x = KaroubiObject(space, invert_unit(u).compose(
        SuperMorphism.diagonal(space, [1, 0, 1, 1, 0, 1, 0, 1, 0])).compose(u))
    plus, _ = split_parity(x)
    top = wedge(4, plus)
    assert (top.classical_rank(), top.dimension()) == (1, 1)
    with pytest.raises(SizeCapError, match=r"orbit count C\(7, 4\) = 35 exceeds cap 34"):
        wedge(4, plus, cap=34)
    assert classify(x) == FiniteDimReport("mixed", 4, 1, 3)


# --- direct summand assembly ---------------------------------------------------------------


def test_assemble_summand_single_pair():
    space = SuperSpace.standard(2, 1, 2)
    a = SuperMorphism.identity(space)
    f, g, e = assemble_summand([a], [a])
    assert g.compose(f) == SuperMorphism.identity(space)
    assert e.is_idempotent()


def test_assemble_summand_split_identity_in_halves():
    space = SuperSpace.standard(1, 0, 1)
    half = SuperMorphism.from_entries(space, space, {(0, 0): Fraction(1, 2)})
    ident = SuperMorphism.identity(space)
    f, g, e = assemble_summand([ident, ident], [half, half])
    assert g.compose(f) == ident
    assert e.is_idempotent()


def test_assemble_summand_seeded_instances():
    rng = seeded_rng(31)
    space = SuperSpace.standard(2, 1, 2)
    ident = SuperMorphism.identity(space)
    for _ in range(20):
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


def test_assemble_summand_reports_defect():
    space = SuperSpace.standard(1, 0, 1)
    ident = SuperMorphism.identity(space)
    half = SuperMorphism.from_entries(space, space, {(0, 0): Fraction(1, 2)})
    with pytest.raises(SummandDefectError) as err:
        assemble_summand([ident], [half])
    assert not err.value.defect.is_zero()
