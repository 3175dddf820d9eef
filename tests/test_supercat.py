import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmot import supercat
from finmot.errors import SizeCapError
from finmot.supercat import (
    EVEN,
    ODD,
    SuperMorphism,
    SuperSpace,
    TruncatedScalar,
    braiding,
    coevaluation,
    dim,
    dual,
    evaluation,
    exp_nilpotent,
    fraction_free_reduce,
    invert_unit,
    permutation_action,
    signed_slot_map,
    tensor,
    tensor_power,
)
from finmot.symgroup import Permutation, all_permutations
from finmot.lifting import random_endomorphism, seeded_rng, seeded_unit


# --- scalar ring ------------------------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def scalars(k):
    return st.lists(rationals, min_size=k, max_size=k).map(TruncatedScalar)


@given(scalars(3), scalars(3), scalars(3))
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    zero, one = TruncatedScalar.zero(3), TruncatedScalar.one(3)
    assert a + zero == a
    assert a * one == a
    assert a + (-a) == zero


@given(scalars(4))
def test_scalar_unit_iff_constant_term(a):
    assert a.is_unit() == bool(a.coeffs[0])
    if a.is_unit():
        assert a * a.inverse() == TruncatedScalar.one(4)


def test_eps_is_nilpotent_of_index_k():
    for k in range(1, 6):
        e = TruncatedScalar.eps(k)
        power = TruncatedScalar.one(k)
        for _ in range(k - 1):
            power = power * e
            assert not power.is_zero()
        assert (power * e).is_zero()


def test_scalar_string():
    s = TruncatedScalar([Fraction(1), Fraction(0), Fraction(-2)])
    assert str(s) == "1 + -2*eps^2"


# --- spaces and morphism validation ---------------------------------------------------


def test_tensor_parity_and_weight():
    x = SuperSpace.line(EVEN, 2, 1)
    y = SuperSpace.line(ODD, 3, 1)
    t = tensor(x, y)
    assert (t.parities, t.weights) == ((ODD,), (5,))
    assert dim(t).realization() == -1
    # a power of a mixed-weight (p|q) space, against the row-major product
    for p in range(5):
        for q in range(5 - p):
            x = SuperSpace((EVEN,) * p + (ODD,) * q,
                           tuple(3 * i - 2 for i in range(p + q)), 2)
            for n in range(5):
                basis = list(itertools.product(zip(x.parities, x.weights), repeat=n))
                xn = tensor_power(x, n)
                assert xn.parities == tuple(sum(pa for pa, _ in b) % 2 for b in basis)
                assert xn.weights == tuple(sum(w for _, w in b) for b in basis)
                assert xn.k == 2
                # a derived space skips validation but equals and hashes
                # like the validated one
                checked = SuperSpace(list(xn.parities), list(xn.weights), 2)
                assert xn == checked and hash(xn) == hash(checked)
    with pytest.raises(ValueError, match="truncation order"):
        SuperSpace.standard(1, 1).with_k(0)
    with pytest.raises(ValueError, match=r"parity must be 0 or 1, got \{2\}"):
        SuperSpace((EVEN, 2), (0, 0))
    with pytest.raises(ValueError, match="differ in length"):
        SuperSpace((EVEN, ODD), (0,))
    with pytest.raises(ValueError, match="truncation order"):
        SuperSpace((EVEN,), (0,), 0)


def test_dim_values():
    assert dim(SuperSpace.standard(3, 0, 1)).realization() == 3
    assert dim(SuperSpace.standard(1, 1, 1)).realization() == 0
    assert dim(SuperSpace.standard(0, 2, 2)).realization() == -2


def test_tensor_dim_multiplicative():
    for (p1, q1, p2, q2) in [(2, 1, 1, 1), (1, 0, 0, 1), (2, 2, 2, 1)]:
        x = SuperSpace.standard(p1, q1, 2)
        y = SuperSpace.standard(p2, q2, 2)
        # brute-force route: supertrace of the identity on the product
        brute = SuperMorphism.identity(tensor(x, y)).supertrace()
        assert brute == dim(tensor(x, y)) == dim(x) * dim(y)
        assert dim(dual(x)) == dim(x)


def test_morphism_rejects_parity_violation():
    x = SuperSpace.standard(1, 1, 1)
    with pytest.raises(ValueError):
        SuperMorphism.from_entries(x, x, {(0, 1): 1})


def test_morphism_rejects_weight_violation_at_eps0_only():
    x = SuperSpace((EVEN, EVEN), (0, 2), 2)
    with pytest.raises(ValueError):
        SuperMorphism.from_entries(x, x, {(0, 1): 1})
    # an eps entry between different weights is allowed
    f = SuperMorphism.from_entries(x, x, {(0, 1): TruncatedScalar.eps(2)})
    assert not f.is_zero() and f.is_hom_trivial()


def test_tensor_mor_of_identities():
    x = SuperSpace.standard(2, 1, 2)
    y = SuperSpace.standard(1, 1, 2)
    assert SuperMorphism.identity(x).tensor(
        SuperMorphism.identity(y)
    ) == SuperMorphism.identity(tensor(x, y))


# --- braiding ---------------------------------------------------------------------------


def test_braiding_signs_on_lines():
    even = SuperSpace.line(EVEN, 0, 1)
    odd = SuperSpace.line(ODD, 1, 1)
    assert braiding(even, even).entry(0, 0).realization() == 1
    assert braiding(odd, odd).entry(0, 0).realization() == -1


@pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)])
def test_braiding_is_involutive(p, q):
    x = SuperSpace.standard(p, q, 2)
    y = SuperSpace.standard(min(p, 1), q, 2)
    back = braiding(y, x).compose(braiding(x, y))
    assert back == SuperMorphism.identity(tensor(x, y))


def test_braiding_naturality_for_even_morphisms():
    x = SuperSpace.standard(2, 1, 2)
    y = SuperSpace.standard(1, 2, 2)
    rng = seeded_rng(11)
    f = random_endomorphism(x, rng)
    g = random_endomorphism(y, rng)
    left = g.tensor(f).compose(braiding(x, y))
    right = braiding(x, y).compose(f.tensor(g))
    assert left == right


# --- permutation action ------------------------------------------------------------------


def test_signed_slot_map_matches_naive_koszul_sign():
    # reference: move each slot's basis vector, count inversions among odd slots
    for parities in [(0,), (1,), (0, 1), (1, 1), (0, 1, 1), (1, 0, 0)]:
        d = len(parities)
        for n in range(5):
            for sigma in all_permutations(n):
                img = sigma.images
                want = []
                for t in itertools.product(range(d), repeat=n):
                    u = [0] * n
                    for a in range(n):
                        u[img[a]] = t[a]
                    odd = [a for a in range(n) if parities[t[a]] == ODD]
                    inv = sum(1 for i, a in enumerate(odd) for b in odd[i + 1:]
                              if img[a] > img[b])
                    want.append((sum(x * d ** (n - 1 - a) for a, x in enumerate(u)),
                                 (-1) ** inv))
                assert signed_slot_map(img, parities) == want, (parities, img)


def test_permutation_action_identity():
    x = SuperSpace.standard(1, 1, 1)
    assert permutation_action(Permutation.identity(3), x, 3) == SuperMorphism.identity(
        tensor_power(x, 3)
    )


def test_permutation_action_is_homomorphism_on_s3():
    x = SuperSpace.standard(1, 1, 1)
    perms = list(all_permutations(3))
    acts = {p.images: permutation_action(p, x, 3) for p in perms}
    for a in perms:
        for b in perms:
            assert acts[(a * b).images] == acts[a.images].compose(acts[b.images])


def test_permutation_action_matches_braiding_for_transposition():
    x = SuperSpace.standard(2, 2, 2)
    swap = permutation_action(Permutation((1, 0)), x, 2)
    assert swap == braiding(x, x)


def test_permutation_action_size_guard():
    x = SuperSpace.standard(2, 2, 1)
    with pytest.raises(SizeCapError):
        permutation_action(Permutation.identity(7), x, 7)


@pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)])
def test_supertrace_of_permutation_action(p, q):
    x = SuperSpace.standard(p, q, 1)
    for n in range(1, 5):
        for sigma in all_permutations(n):
            got = permutation_action(sigma, x, n).supertrace()
            assert got.eps_part_is_zero()
            assert got.realization() == Fraction(p - q) ** len(sigma.cycles())


# --- duality, trace, realization ----------------------------------------------------------


@pytest.mark.parametrize("p,q", [(2, 1), (1, 2), (0, 2), (3, 0)])
def test_snake_identities(p, q):
    x = SuperSpace.standard(p, q, 2)
    ev, cv = evaluation(x), coevaluation(x)
    idx = SuperMorphism.identity(x)
    idxd = SuperMorphism.identity(dual(x))
    assert ev.tensor(idx).compose(idx.tensor(cv)) == idx
    assert idxd.tensor(ev).compose(cv.tensor(idxd)) == idxd


def test_trace_agrees_with_categorical_route():
    x = SuperSpace.standard(2, 1, 3)
    rng = seeded_rng(5)
    for _ in range(5):
        f = random_endomorphism(x, rng)
        chain = (
            evaluation(x)
            .compose(f.tensor(SuperMorphism.identity(dual(x))))
            .compose(braiding(dual(x), x))
            .compose(coevaluation(x))
        )
        assert chain.entry(0, 0) == f.supertrace()


def test_trace_is_symmetric():
    x = SuperSpace.standard(2, 1, 2)
    rng = seeded_rng(23)
    for _ in range(10):
        f = random_endomorphism(x, rng)
        g = random_endomorphism(x, rng)
        assert f.compose(g).supertrace() == g.compose(f).supertrace()


def test_trace_rejects_non_endomorphism():
    x = SuperSpace.standard(1, 0, 1)
    y = SuperSpace.standard(2, 0, 1)
    with pytest.raises(ValueError):
        SuperMorphism.zero(x, y).supertrace()


def test_dual_contravariant():
    x = SuperSpace.standard(2, 1, 2)
    rng = seeded_rng(3)
    f = random_endomorphism(x, rng)
    g = random_endomorphism(x, rng)
    assert f.compose(g).dual() == g.dual().compose(f.dual())
    assert SuperMorphism.identity(x).dual() == SuperMorphism.identity(dual(x))


# --- realization functor ------------------------------------------------------------------


def test_realization_functorial():
    x = SuperSpace.standard(2, 2, 3)
    rng = seeded_rng(17)
    for _ in range(10):
        f = random_endomorphism(x, rng)
        g = random_endomorphism(x, rng)
        assert g.compose(f).realization() == g.realization().compose(f.realization())
    assert SuperMorphism.identity(x).realization() == SuperMorphism.identity(
        x.with_k(1)
    )


def test_realization_commutes_with_trace_and_tensor():
    x = SuperSpace.standard(2, 1, 3)
    rng = seeded_rng(29)
    f = random_endomorphism(x, rng)
    g = random_endomorphism(x, rng)
    assert f.realization().supertrace().coeffs[0] == f.supertrace().realization()
    assert f.tensor(g).realization() == f.realization().tensor(g.realization())


def test_hom_trivial_detection():
    x = SuperSpace.standard(1, 1, 2)
    f = SuperMorphism.from_entries(x, x, {(0, 0): TruncatedScalar.eps(2)})
    assert f.is_hom_trivial()
    assert f.realization().is_zero()
    assert not SuperMorphism.identity(x).is_hom_trivial()
    assert (SuperMorphism.identity(x) - SuperMorphism.identity(x)).is_hom_trivial()


# --- exact inversion -----------------------------------------------------------------------


def test_invert_unit_roundtrip():
    x = SuperSpace.standard(2, 1, 3)
    rng = seeded_rng(41)
    ident = SuperMorphism.identity(x)
    for _ in range(10):
        f = random_endomorphism(x, rng)
        if not f.realization().is_idempotent():
            try:
                g = invert_unit(f)
            except ZeroDivisionError:
                continue
            assert f.compose(g) == ident
            assert g.compose(f) == ident


def test_invert_unit_returns_an_identity_unchanged():
    for space in (SuperSpace.standard(2, 1, 3), SuperSpace((1, 0), (0, 2), 2),
                  SuperSpace.zero_space(2)):
        ident = SuperMorphism.identity(space)
        assert invert_unit(ident) is ident


def test_exp_nilpotent_inverse_pair():
    x = SuperSpace.standard(2, 2, 4)
    rng = seeded_rng(43)
    n = random_endomorphism(x, rng)
    eps_n = n - n.realization().promoted(4)  # strip the eps^0 layer
    u = exp_nilpotent(eps_n)
    v = exp_nilpotent(-eps_n)
    assert u.compose(v) == SuperMorphism.identity(x)


def _units_that_realize_the_identity(k):
    """id + eps N over den 1, and id + eps N / 3 over den 3, on a (2|2) space."""
    x = SuperSpace.standard(2, 2, k)
    rng = seeded_rng(53)
    for den in (1, 3):
        n = random_endomorphism(x, rng)
        eps_n = (n - n.realization().promoted(k)).scale(Fraction(1, den))
        f = SuperMorphism.identity(x) + eps_n
        assert f.realization().is_identity() and f.den == den and not f.is_identity()
        yield f


@pytest.mark.parametrize("k", [2, 3, 6])
def test_a_unit_that_realizes_the_identity_is_inverted_without_elimination(k, monkeypatch):
    # the Neumann series of f = id - (id - f) agrees with the elimination
    # route, reached through an invertible diagonal D != id: (D f)^-1 D = f^-1
    d = SuperMorphism.diagonal(SuperSpace.standard(2, 2, k), [2, -1, Fraction(1, 3), 5])
    for f in _units_that_realize_the_identity(k):
        eliminated = invert_unit(d.compose(f)).compose(d)
        reduce_calls = []
        monkeypatch.setattr(supercat, "fraction_free_reduce",
                            lambda *a: reduce_calls.append(a) or fraction_free_reduce(*a))
        g = invert_unit(f)
        monkeypatch.undo()
        assert reduce_calls == []
        assert g == eliminated and g.fingerprint() == eliminated.fingerprint()
        assert f.compose(g) == SuperMorphism.identity(f.source) == g.compose(f)


def test_inverting_a_unit_whose_den_exceeds_its_rungs_bound():
    # (1 + eps) / (2**64 + 1) on the 64-bit rung: the eps^0 numerator 1 agrees
    # with the den modulo 2**64, but the den lies past the bound of the rung
    x = SuperSpace.standard(1, 0, 2)
    den = 2**64 + 1
    f = SuperMorphism.from_entries(x, x, {(0, 0): TruncatedScalar([Fraction(1, den)] * 2)})
    assert f.width == 64 and f.den == den
    g = invert_unit(f)
    assert g.realization() == SuperMorphism.diagonal(x.with_k(1), [den])
    assert f.compose(g) == SuperMorphism.identity(x)
    # off-diagonal eps^0 entries, and a diagonal one of 2, are not the identity:
    # id - f = [[0, -1], [1, 0]] squares to -id, so no series in it inverts f
    y = SuperSpace.standard(2, 0, 2)
    for entries in ({(0, 0): 1, (1, 1): 1, (0, 1): 1, (1, 0): -1}, {(0, 0): 2, (1, 1): 1}):
        h = SuperMorphism.from_entries(y, y, entries)
        assert invert_unit(h).compose(h) == SuperMorphism.identity(y)
        assert not h.realization().is_identity()


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_series_powers_start_at_r_and_stop_before_the_kth(k, monkeypatch):
    # r = eps id has r^(k-1) != 0 = r^k: k - 2 products, each by r itself
    x = SuperSpace.standard(1, 1, k)
    ident = SuperMorphism.identity(x)
    r = SuperMorphism.diagonal(x, [TruncatedScalar.eps(k)] * 2)
    pairs = _counting_composes(monkeypatch)
    series = supercat.geometric_series(ident, r)
    assert len(pairs) == max(k - 2, 0) and all(b is r for _, b in pairs)
    pairs.clear()
    exp_r = exp_nilpotent(r)
    assert len(pairs) == max(k - 2, 0) and all(b is r for _, b in pairs)
    # 1 / (1 - eps) and exp(eps), scalar by scalar
    one = TruncatedScalar.one(k)
    assert series == SuperMorphism.diagonal(x, [(one - TruncatedScalar.eps(k)).inverse()] * 2)
    want = one
    for m in range(1, k):
        want = want + TruncatedScalar.eps(k, m, Fraction(1, math.factorial(m)))
    assert exp_r == SuperMorphism.diagonal(x, [want] * 2)


# --- differential checks of the integer core against entry-wise scalars ------------

orders = st.integers(min_value=1, max_value=6)


@st.composite
def spaces_k(draw, k, max_dim=6):
    n = draw(st.integers(min_value=0, max_value=max_dim))
    basis = tuple((draw(st.sampled_from((EVEN, ODD))), draw(st.integers(0, 1)))
                  for _ in range(n))
    return SuperSpace(tuple(p for p, _ in basis), tuple(w for _, w in basis), k)


# numerators on both sides of the bounds 2**24, 2**56 and 2**120 of the
# rungs 64, 128 and 256, either sign, over small denominators
wide_numerators = st.builds(lambda b, d, sign: sign * (2**b + d),
                            st.sampled_from((24, 56, 120)), st.integers(-2, 2),
                            st.sampled_from((1, -1)))
wide = st.one_of(rationals, st.builds(Fraction, wide_numerators, st.integers(1, 12)))


@st.composite
def morphisms(draw, source, target, hom_trivial=False, values=rationals):
    k = source.k
    entries = {}
    for i in range(target.dim):
        for j in range(source.dim):
            if target.parities[i] != source.parities[j] or not draw(st.booleans()):
                continue
            coeffs = draw(st.lists(values, min_size=k, max_size=k))
            if hom_trivial or target.weights[i] != source.weights[j]:
                coeffs[0] = Fraction(0)
            entries[(i, j)] = TruncatedScalar(coeffs)
    return SuperMorphism.from_entries(source, target, entries)


def reference(f):
    """Dense entry-wise TruncatedScalar matrix of ``f``."""
    return [[f.entry(i, j) for j in range(f.source.dim)] for i in range(f.target.dim)]


def ref_product(a, b, k, ncols):
    """Entry-wise product of dense reference matrices; ``b`` has ``ncols`` columns."""
    zero = TruncatedScalar.zero(k)
    return [[sum((a[i][m] * b[m][j] for m in range(len(b))), zero)
             for j in range(ncols)] for i in range(len(a))]


def holds(width, nums):
    """Whether the rung ``width`` stores every numerator in ``nums``."""
    bound = 2 ** (width // 2 - 8)
    return all(-bound <= c < bound for c in nums)


def assert_canonical(f, want):
    """``f`` holds exactly the dense reference ``want``, in canonical form:
    lowest terms, no zero entry, on the lowest rung that holds it."""
    assert reference(f) == want
    entries = [t for _, _, t in f.numerators()]
    nums = [c for t in entries for c in t]
    assert f.den > 0 and math.gcd(f.den, *nums) == 1
    assert all(any(t) and len(t) == f.k for t in entries)
    assert holds(f.width, nums) and (f.width == 64 or not holds(f.width // 2, nums))


def _fraction_rank(mat):
    mat = [list(r) for r in mat]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_and_tensor_match_entrywise_reference(data):
    k = data.draw(orders)
    x, y, z = (data.draw(spaces_k(k)) for _ in range(3))
    # one operand may sit on a higher rung or over another den than the other
    f = data.draw(morphisms(y, z, values=data.draw(st.sampled_from((rationals, wide)))))
    g = data.draw(morphisms(x, y))
    rf, rg = reference(f), reference(g)
    want = ref_product(rf, rg, k, x.dim)
    assert_canonical(f.compose(g), want)
    assert_canonical(g.dual().compose(f.dual()), [list(col) for col in zip(*want)]
                     if want and want[0] else [[] for _ in range(x.dim)])
    # numerators with a common factor of the den: lowest terms, negative fields too
    d = data.draw(st.integers(2, 12))
    assert_canonical(f.scale(Fraction(1, d)).compose(g.scale(d)), want)
    t = f.tensor(g)
    want_t = [[rf[i1][j1] * rg[i2][j2] for j1 in range(y.dim) for j2 in range(x.dim)]
              for i1 in range(z.dim) for i2 in range(y.dim)]
    assert_canonical(t, want_t)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_linear_structure_matches_entrywise_reference(data):
    k = data.draw(orders)
    x, y = data.draw(spaces_k(k)), data.draw(spaces_k(k))
    f, g = data.draw(morphisms(x, y)), data.draw(morphisms(x, y))
    c = data.draw(rationals)
    s = data.draw(scalars(k))
    # 0, small ints, and ints that push a field past 2**24 so the rung climbs
    n = data.draw(st.one_of(st.integers(-3, 3), st.sampled_from((2**20, -(2**21) - 1, 2**40))))
    d = data.draw(st.integers(2, 12))
    rf, rg = reference(f), reference(g)
    assert_canonical(f.scale(n), [[a * n for a in ra] for ra in rf])
    assert_canonical(f.scale(Fraction(1, d)).scale(d), rf)
    # operands on different rungs and over different dens
    h = g.scale(Fraction(n or 1, d))
    assert_canonical(f + h, [[a + b * Fraction(n or 1, d) for a, b in zip(ra, rb)]
                             for ra, rb in zip(rf, rg)])
    assert_canonical(f + g, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(rf, rg)])
    assert_canonical(f - g, [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(rf, rg)])
    assert_canonical(-f, [[-a for a in ra] for ra in rf])
    assert_canonical(f.scale(c), [[a * c for a in ra] for ra in rf])
    assert_canonical(f.scale(s), [[s * a for a in ra] for ra in rf])
    assert_canonical(f.dual(), [list(col) for col in zip(*rf)] if rf and rf[0]
                     else [[] for _ in range(x.dim)])
    assert_canonical(f.realization(), [[TruncatedScalar((a.realization(),)) for a in ra]
                                       for ra in rf])
    k2 = data.draw(st.integers(min_value=k, max_value=6))
    assert_canonical(f.promoted(k2), [[a.promoted(k2) for a in ra] for ra in rf])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_supertrace_matches_entrywise_reference(data):
    k = data.draw(orders)
    x = data.draw(spaces_k(k))
    f = data.draw(morphisms(x, x))
    want = TruncatedScalar.zero(k)
    for i, parity in enumerate(x.parities):
        want = want - f.entry(i, i) if parity == ODD else want + f.entry(i, i)
    assert f.supertrace() == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_invert_unit_matches_entrywise_reference(data):
    k = data.draw(orders)
    x = data.draw(spaces_k(k, max_dim=5))
    f = data.draw(morphisms(x, x))
    try:
        g = invert_unit(f)
    except ZeroDivisionError:
        # only a singular realization may be refused
        real = [[f.entry(i, j).realization() for j in range(x.dim)] for i in range(x.dim)]
        assert _fraction_rank(real) < x.dim
        return
    one, zero = TruncatedScalar.one(k), TruncatedScalar.zero(k)
    ident = [[one if i == j else zero for j in range(x.dim)] for i in range(x.dim)]
    assert ref_product(reference(f), reference(g), k, x.dim) == ident
    assert ref_product(reference(g), reference(f), k, x.dim) == ident
    assert_canonical(g, reference(g))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exp_nilpotent_matches_entrywise_series(data):
    k = data.draw(orders)
    x = data.draw(spaces_k(k, max_dim=5))
    n = data.draw(morphisms(x, x, hom_trivial=True))
    rn = reference(n)
    one, zero = TruncatedScalar.one(k), TruncatedScalar.zero(k)
    term = [[one if i == j else zero for j in range(x.dim)] for i in range(x.dim)]
    want = term
    for m in range(1, k):
        term = ref_product(term, rn, k, x.dim)
        c = Fraction(1, math.factorial(m))
        want = [[w + t * c for w, t in zip(rw, rt)] for rw, rt in zip(want, term)]
    assert_canonical(exp_nilpotent(n), want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_survives_scaling_round_trip(data):
    k = data.draw(orders)
    x, y = data.draw(spaces_k(k)), data.draw(spaces_k(k))
    f = data.draw(morphisms(x, y))
    back = f.scale(Fraction(1, 3)).scale(3)
    assert back == f
    assert back.fingerprint() == f.fingerprint()
    assert back.den == f.den and sorted(back.numerators()) == sorted(f.numerators())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wide_numerators_match_entrywise_reference(data):
    # entries that cross each rung, negative fields, den > 1 and k = 1
    # through every operation on the packed integers
    k = data.draw(orders)
    x, y, z = (data.draw(spaces_k(k, max_dim=4)) for _ in range(3))
    f = data.draw(morphisms(y, z, values=wide))
    g, h = data.draw(morphisms(x, y, values=wide)), data.draw(morphisms(x, y, values=wide))
    e = data.draw(morphisms(x, x, values=wide))
    c = data.draw(wide)
    rf, rg, rh = reference(f), reference(g), reference(h)
    zero = TruncatedScalar.zero(k)
    assert_canonical(f.compose(g), ref_product(rf, rg, k, x.dim))
    # the two products cancel entry by entry
    assert_canonical(f.compose(g) + f.compose(-g), [[zero] * x.dim for _ in range(z.dim)])
    assert_canonical(g + h, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(rg, rh)])
    assert_canonical(g - h, [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(rg, rh)])
    assert_canonical(g.scale(c), [[a * c for a in ra] for ra in rg])
    assert_canonical(f.tensor(g), [[rf[i1][j1] * rg[i2][j2] for j1 in range(y.dim)
                                    for j2 in range(x.dim)]
                                   for i1 in range(z.dim) for i2 in range(y.dim)])
    assert_canonical(g.dual(), [list(col) for col in zip(*rg)] if rg and rg[0]
                     else [[] for _ in range(x.dim)])
    assert_canonical(g.realization(), [[TruncatedScalar((a.realization(),)) for a in ra]
                                       for ra in rg])
    k2 = data.draw(st.integers(min_value=k, max_value=6))
    assert_canonical(g.promoted(k2), [[a.promoted(k2) for a in ra] for ra in rg])
    want = zero
    for i, parity in enumerate(x.parities):
        want = want - e.entry(i, i) if parity == ODD else want + e.entry(i, i)
    assert e.supertrace() == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equal_morphisms_built_by_different_routes_have_equal_storage(data):
    k = data.draw(orders)
    x, y = data.draw(spaces_k(k)), data.draw(spaces_k(k))
    f, w = data.draw(morphisms(x, y, values=wide)), data.draw(morphisms(x, y, values=wide))
    c = data.draw(wide.filter(bool))
    doubled = {}  # f's numerators and denominator times 2, for the gcd to remove
    for i, j, t in f.numerators():
        doubled.setdefault(i, {})[j] = tuple(2 * v for v in t)
    routes = [
        (f + w) - w,  # through a sum that may sit on a higher rung
        f.scale(2) - f,
        -(-f),
        f.scale(c).scale(1 / c),
        SuperMorphism.identity(y).compose(f),
        f.compose(SuperMorphism.identity(x)),
        f.dual().dual(),
        SuperMorphism.from_entries(x, y, {(i, j): s for i, j, s in f.items()}),
        SuperMorphism._from_numerators(x, y, doubled, 2 * f.den),
    ]
    for g in routes:
        assert (g.source, g.target, g.width, g.den, g.rows) == \
            (f.source, f.target, f.width, f.den, f.rows)
        assert g.fingerprint() == f.fingerprint()


def test_base_rung_product_over_den_one_skips_the_settle_scans(monkeypatch):
    # a den-1 product that passes the fit test on the base rung is canonical
    # as the product loop leaves it: _settle returns at its top, before its
    # lowest-terms and rung scans and before it reads a window of its own
    space = SuperSpace.standard(2, 2, 6)
    u = seeded_unit(space, seeded_rng(1))
    assert (u.den, u.width) == (1, 64)
    want = reference(u.compose(u))

    def refuse(*args):
        raise AssertionError("settle scanned the product")

    window, windows = supercat._window, []
    monkeypatch.setattr(supercat, "_values", refuse)
    monkeypatch.setattr(supercat, "_fields", refuse)
    monkeypatch.setattr(supercat, "_window", lambda *args: windows.append(args) or window(*args))
    uu = u.compose(u)
    monkeypatch.undo()
    assert windows == [(64, 6)]
    assert_canonical(uu, want)


def _counting_composes(monkeypatch):
    pairs = []
    compose = SuperMorphism.compose
    monkeypatch.setattr(SuperMorphism, "compose",
                        lambda a, b: pairs.append((a, b)) or compose(a, b))
    return pairs


@pytest.mark.parametrize("m", range(5))
def test_power_m_makes_m_minus_1_composes_and_none_with_the_identity(m, monkeypatch):
    space = SuperSpace.standard(2, 1, 3)
    f = seeded_unit(space, seeded_rng(2))
    pairs = _counting_composes(monkeypatch)
    got = f.power(m)
    assert len(pairs) == max(m - 1, 0)
    assert not any(a.is_identity() or b.is_identity() for a, b in pairs)
    monkeypatch.undo()
    want = SuperMorphism.identity(space)
    for _ in range(m):
        want = want.compose(f)
    assert got == want


def test_an_idempotent_is_squared_once(monkeypatch):
    space = SuperSpace.standard(2, 2, 3)
    u = seeded_unit(space, seeded_rng(1))
    e = invert_unit(u).compose(SuperMorphism.diagonal(space, [1, 0, 1, 0])).compose(u)
    pairs = _counting_composes(monkeypatch)
    assert e.is_idempotent() and e.is_idempotent()
    assert pairs == [(e, e)]


def test_a_non_idempotent_is_squared_on_every_call(monkeypatch):
    space = SuperSpace.standard(2, 2, 3)
    f = seeded_unit(space, seeded_rng(1))
    pairs = _counting_composes(monkeypatch)
    assert not f.is_idempotent() and not f.is_idempotent()
    assert len(pairs) == 2 and all(a is f and b is f for a, b in pairs)
    # a morphism between different spaces is never idempotent and never squared
    g = SuperMorphism.zero(space, SuperSpace.standard(1, 0, 3))
    assert not g.is_idempotent() and len(pairs) == 2


def test_equality_and_fingerprint_ignore_the_idempotency_verdict():
    space = SuperSpace.standard(2, 1, 2)
    checked, fresh = (SuperMorphism.projector(space, [0, 2]) for _ in range(2))
    assert checked.is_idempotent()
    assert checked == fresh and fresh == checked
    assert checked.fingerprint() == fresh.fingerprint()


def test_a_realization_is_built_once_and_equality_ignores_it():
    space = SuperSpace.standard(2, 1, 3)
    f = random_endomorphism(space, seeded_rng(3))
    fresh = f.promoted(3)
    real = f.realization()
    assert f.realization() is real and real == fresh.realization()
    assert f == fresh and fresh == f
    assert f.fingerprint() == fresh.fingerprint()
    # a k = 1 morphism is its own realization
    assert real.realization() is real


def test_space_equality_is_field_equality_and_the_hash_is_unchanged():
    x = SuperSpace.standard(2, 1, 3)
    same = SuperSpace((0, 0, 1), (0, 0, 1), 3)
    assert x == x and x == same and not x != same
    assert hash(x) == hash(same) == hash((x.parities, x.weights, x.k))
    assert x != x.with_k(2) and x != SuperSpace((0, 1, 0), (0, 1, 0), 3)
    assert x != (x.parities, x.weights, x.k) and {x: 1}[same] == 1


def test_block_constructor_matches_inclusions_and_projections():
    # blocks over dens 2, 3, 5 and 7, one of them with a numerator past the
    # 64-bit rung's bound 2**24, two of them sharing a band of rows
    u, v = SuperSpace.standard(1, 1, 3), SuperSpace.standard(2, 0, 3)
    eps = TruncatedScalar.eps(3)
    a = SuperMorphism.from_entries(u, u, {(0, 0): Fraction(1, 2), (1, 1): eps * 3})
    b = SuperMorphism.from_entries(v, v, {(0, 1): Fraction(-2, 3), (1, 0): 1})
    c = SuperMorphism.from_entries(u, u, {(0, 0): Fraction(2**30 + 1, 5),
                                          (1, 1): eps * Fraction(-1, 5)})
    d = SuperMorphism.from_entries(u, u, {(0, 0): eps * Fraction(4, 7), (1, 1): 2})
    assert c.width == 128
    source, target = SuperSpace.concat(u, v, u), SuperSpace.concat(v, u, u)
    blocks = [(2, 0, a), (0, 2, b), (4, 4, c), (2, 4, d)]
    got = SuperMorphism._from_blocks(source, target, blocks)
    want = SuperMorphism.zero(source, target)
    for r, col, m in blocks:
        include = SuperMorphism.from_entries(
            m.target, target, {(r + i, i): 1 for i in range(m.target.dim)})
        project = SuperMorphism.from_entries(
            source, m.source, {(i, col + i): 1 for i in range(m.source.dim)})
        want = want + include.compose(m).compose(project)
    assert got == want
    assert (got.den, got.width, got.nnz()) == (210, 128, 8)


def test_concat_lists_bases_in_order_and_refuses_mixed_orders():
    x, y = SuperSpace.standard(1, 1, 2), SuperSpace.line(EVEN, 4, 2)
    assert SuperSpace.concat(x, y) == SuperSpace((0, 1, 0), (0, 1, 4), 2)
    assert SuperSpace.concat(y) == y
    with pytest.raises(ValueError, match="truncation orders differ"):
        SuperSpace.concat(x, SuperSpace.standard(0, 1, 3))


int_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda r: st.integers(min_value=0, max_value=6).flatmap(
        lambda c: st.lists(st.lists(st.integers(-3, 3), min_size=c, max_size=c),
                           min_size=r, max_size=r)))


@settings(max_examples=200, deadline=None)
@given(int_matrices)
def test_fraction_free_rank_matches_rational_elimination(mat):
    pivots, _ = fraction_free_reduce([list(r) for r in mat])
    assert len(pivots) == _fraction_rank([[Fraction(v) for v in r] for r in mat])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_fraction_free_inverse_is_exact(mat):
    n = len(mat)
    aug = [list(row) + [int(i == r) for i in range(n)] for r, row in enumerate(mat)]
    pivots, last = fraction_free_reduce(aug, n)
    if len(pivots) < n:
        assert _fraction_rank([[Fraction(v) for v in r] for r in mat]) < n
        return
    inv = [[Fraction(v, last) for v in row[n:]] for row in aug]
    for i in range(n):
        for j in range(n):
            assert sum(mat[i][m] * inv[m][j] for m in range(n)) == int(i == j)
