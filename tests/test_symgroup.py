import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmot.errors import SizeCapError
from finmot.symgroup import (
    CONVOLUTION_BOUND,
    GroupAlgebraElement,
    Partition,
    Permutation,
    all_permutations,
    character,
    conjugacy_class_size,
    hook_dimension,
    hook_schur,
    partitions,
    young_idempotent,
    _rank_of,
    _ranked,
    _row,
)

from oracle_characters import (
    irreducible_character_table,
    permutation_character,
    standard_rep_s3,
)


# --- partitions -----------------------------------------------------------------


def brute_partitions(n):
    """Exhaustive recursive enumeration, independent of the generator under test."""
    if n == 0:
        return {()}
    out = set()
    for first in range(1, n + 1):
        for rest in brute_partitions(n - first):
            if not rest or first >= rest[0]:
                out.add((first,) + rest)
    return out


def test_partitions_small_examples():
    assert [p.parts for p in partitions(0)] == [()]
    assert [p.parts for p in partitions(1)] == [(1,)]
    assert [p.parts for p in partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]


@given(st.integers(min_value=0, max_value=9))
def test_partitions_against_brute_force(n):
    got = [p.parts for p in partitions(n)]
    assert set(got) == brute_partitions(n)
    assert len(got) == len(set(got))
    assert got == sorted(got, reverse=True)  # reverse lexicographic


def test_partitions_bound():
    with pytest.raises(SizeCapError):
        partitions(13)
    assert len(partitions(12)) == 77


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_conjugate_is_involutive():
    for n in range(8):
        for lam in partitions(n):
            assert lam.conjugate().conjugate() == lam


# --- permutations ----------------------------------------------------------------


def test_permutation_basics():
    s = Permutation((1, 0, 2))
    t = Permutation((0, 2, 1))
    assert (s * t).images == tuple(s(t(i)) for i in range(3))
    assert s.inverse() * s == Permutation.identity(3)
    assert s.sign() == -1
    assert s.cycle_type() == Partition((2, 1))
    assert Permutation.from_cycles(3, [(0, 1, 2)]).cycle_type() == Partition((3,))


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_sign_is_multiplicative(a, b):
    pa, pb = Permutation(a), Permutation(b)
    assert (pa * pb).sign() == pa.sign() * pb.sign()


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(conjugacy_class_size(ct) for ct in partitions(n)) == math.factorial(n)


# --- hook dimensions ----------------------------------------------------------------


def test_hook_dimension_examples():
    assert hook_dimension(Partition((5,))) == 1
    assert hook_dimension(Partition((1,) * 5)) == 1
    assert hook_dimension(Partition((2, 1))) == 2


def test_hook_dimension_squares_sum_to_factorial():
    for n in range(9):
        total = sum(hook_dimension(lam) ** 2 for lam in partitions(n))
        assert total == math.factorial(n)


def test_hook_dimension_matches_identity_character():
    for n in range(1, 7):
        ident = Partition((1,) * n)
        for lam in partitions(n):
            assert hook_dimension(lam) == character(lam, ident)


def _content_product(lam, p):
    """s_lam(1^p) by the hook-content formula: prod (p + j - i) / h(i, j)."""
    value = Fraction(1)
    for i, row in enumerate(lam.hook_lengths()):
        for j, h in enumerate(row):
            value *= Fraction(p + j - i, h)
    return value


def test_hook_schur_at_q_zero_is_the_hook_content_formula():
    for n in range(8):
        for lam in partitions(n):
            for p in range(6):
                assert hook_schur(lam, p, 0) == _content_product(lam, p), (lam, p)


def test_hook_schur_is_conjugation_symmetric_and_zero_outside_the_hook():
    for n in range(8):
        for lam in partitions(n):
            for p in range(4):
                for q in range(4):
                    value = hook_schur(lam, p, q)
                    assert value == hook_schur(lam.conjugate(), q, p), (lam, p, q)
                    assert (value == 0) == (len(lam) > p and lam[p] > q), (lam, p, q)
                    assert value >= 0


def test_hook_schur_ranks_sum_to_the_tensor_power():
    # Schur-Weyl: the n-th tensor power of a (p|q) space is the sum over lam
    # of f^lam copies of S_lam, so sum f^lam hs_lam = (p + q)^n
    for n in range(8):
        for p in range(4):
            for q in range(4):
                total = sum(hook_dimension(lam) * hook_schur(lam, p, q)
                            for lam in partitions(n))
                assert total == (p + q) ** n, (n, p, q)


def test_standard_rep_of_s3_is_a_representation():
    perms = list(all_permutations(3))
    mats = {p.images: standard_rep_s3(p) for p in perms}

    def mul(a, b):
        return [
            [sum(a[i][m] * b[m][j] for m in range(2)) for j in range(2)]
            for i in range(2)
        ]

    for a in perms:
        for b in perms:
            assert mats[(a * b).images] == mul(mats[a.images], mats[b.images])


def test_character_2_1_against_standard_representation():
    # trace of the explicit 2-dimensional representation, class by class
    lam = Partition((2, 1))
    for perm in all_permutations(3):
        mat = standard_rep_s3(perm)
        assert character(lam, perm.cycle_type()) == mat[0][0] + mat[1][1]
    assert character(lam, Partition((3,))) == -1
    assert hook_dimension(lam) == 2


# --- characters ------------------------------------------------------------------------


def test_character_trivial_and_sign():
    for n in range(1, 7):
        for ct in partitions(n):
            assert character(Partition((n,)), ct) == 1
    assert character(Partition((1, 1)), Partition((2,))) == -1


def test_character_degree_mismatch():
    with pytest.raises(ValueError):
        character(Partition((2, 1)), Partition((2, 2)))


@pytest.mark.parametrize("n", range(1, 6))
def test_characters_against_permutation_module_oracle(n):
    oracle = irreducible_character_table(n)
    for lam in partitions(n):
        for ct in partitions(n):
            assert character(lam, ct) == oracle[lam][ct], (lam, ct)


def test_permutation_character_decomposes_nonnegatively():
    # multiplicities of irreducibles inside a permutation module are >= 0,
    # and the one indexed by the shape itself appears exactly once
    n = 5
    parts = partitions(n)
    reps = {ct: next(p for p in all_permutations(n) if p.cycle_type() == ct)
            for ct in parts}
    nfact = math.factorial(n)
    for mu in parts:
        phi = {ct: permutation_character(mu, reps[ct]) for ct in parts}
        mult_self = Fraction(
            sum(conjugacy_class_size(ct) * phi[ct] * character(mu, ct)
                for ct in parts), nfact)
        assert mult_self == 1
        for lam in parts:
            mult = Fraction(
                sum(conjugacy_class_size(ct) * phi[ct] * character(lam, ct)
                    for ct in parts), nfact)
            assert mult.denominator == 1 and mult >= 0


def test_column_orthogonality_up_to_6():
    for n in range(1, 7):
        parts = partitions(n)
        nfact = math.factorial(n)
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                total = sum(
                    conjugacy_class_size(ct) * character(lam, ct) * character(mu, ct)
                    for ct in parts
                )
                assert total == (nfact if lam == mu else 0)


# --- group algebra -----------------------------------------------------------------------


def test_group_algebra_ring_axioms_spot():
    n = 4
    perms = list(all_permutations(n))
    a = GroupAlgebraElement(n, {perms[0]: Fraction(1, 2), perms[5]: Fraction(-3)})
    b = GroupAlgebraElement(n, {perms[1]: Fraction(2), perms[7]: Fraction(1, 3)})
    c = GroupAlgebraElement(n, {perms[2]: Fraction(5)})
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert GroupAlgebraElement.identity(n) * a == a
    assert a * GroupAlgebraElement.identity(n) == a


def test_group_algebra_never_stores_zeros():
    n = 3
    e = GroupAlgebraElement.identity(n)
    assert not (e - e).terms
    assert (2 * e - e) == e


def test_convolution_bound():
    with pytest.raises(SizeCapError):
        GroupAlgebraElement.identity(8) * GroupAlgebraElement.identity(8)
    # enumeration shares the bound, refused at the call, before any item
    assert len(list(all_permutations(7))) == 5040
    with pytest.raises(SizeCapError):
        all_permutations(8)


def test_young_idempotent_n2_exact_coefficients():
    d2 = young_idempotent(Partition((2,)))
    d11 = young_idempotent(Partition((1, 1)))
    ident = Permutation.identity(2)
    swap = Permutation((1, 0))
    assert d2.coefficient(ident) == Fraction(1, 2)
    assert d2.coefficient(swap) == Fraction(1, 2)
    assert d11.coefficient(ident) == Fraction(1, 2)
    assert d11.coefficient(swap) == Fraction(-1, 2)


@pytest.mark.parametrize("n", range(0, 6))
def test_young_idempotents_orthogonal_complete(n):
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


def test_young_idempotents_orthogonal_complete_n6():
    # the full n = 6 convolution check; the 720-term products make this the
    # slowest test in the file
    n = 6
    parts = partitions(n)
    idems = [young_idempotent(lam) for lam in parts]
    total = GroupAlgebraElement(n)
    for d in idems:
        total = total + d
    assert total == GroupAlgebraElement.identity(n)
    for i, di in enumerate(idems):
        assert di * di == di
        for dj in idems[i + 1:]:
            assert di * dj == GroupAlgebraElement(n)


# --- differential checks of the integer group algebra ----------------------------

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def naive_product(a, b):
    """Dict convolution over Permutation keys with Fraction coefficients."""
    acc = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            key = pa * pb
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return {p: c for p, c in acc.items() if c}


@st.composite
def elements(draw, n, max_terms=None):
    perms = list(all_permutations(n))
    chosen = draw(st.lists(st.sampled_from(perms), max_size=max_terms or len(perms),
                           unique=True))
    return {p: draw(coefficients) for p in chosen}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.tuples(elements(n), elements(n), st.just(n))))
def test_group_algebra_product_matches_naive_convolution(case):
    a, b, n = case
    got = GroupAlgebraElement(n, a) * GroupAlgebraElement(n, b)
    want = naive_product(a, b)
    assert got.terms == want
    assert got == GroupAlgebraElement(n, want)
    assert math.gcd(got.den, *got.numerators.values()) == 1


@settings(max_examples=20, deadline=None)
@given(elements(7, max_terms=4), elements(7, max_terms=4))
def test_group_algebra_product_degree7_composes_on_the_fly(a, b):
    # degree 7 runs the same loop over table rows as every lower degree
    got = GroupAlgebraElement(7, a) * GroupAlgebraElement(7, b)
    assert got.terms == naive_product(a, b)


@pytest.mark.parametrize("n", range(CONVOLUTION_BOUND + 1))
def test_multiplication_table_equals_the_pairwise_products(n):
    # row rank(a) holds rank(a * b) for b in rank order, a * b = a[b[i]]:
    # every row up to degree 6, a seeded sample of the 5040 at degree 7
    ranked, rank_of = _ranked(n), _rank_of(n)
    ranks = range(len(ranked)) if n < 7 else random.Random(7).sample(range(len(ranked)), 12)
    for r in ranks:
        a = ranked[r]
        want = [rank_of[tuple(map(a.__getitem__, b))] for b in ranked]
        assert _row(n, r).tolist() == want, (n, r)


def test_group_algebra_canonical_form():
    n = 3
    e = GroupAlgebraElement.identity(n)
    third = e.scaled(Fraction(1, 3))
    assert third.den == 3 and third.coefficient(Permutation.identity(n)) == Fraction(1, 3)
    assert third * 3 == e and (third * 3).den == 1
    assert young_idempotent(Partition((2, 1))).den == 3
