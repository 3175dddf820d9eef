"""Concrete motive models built from Betti data.

A model is described by a `MotiveSpec`: a point, a power of the weight-2
line, a curve of genus g, a surface with irregularity q and second Betti
number b2 of which rho classes are algebraic, or an abelian variety of
dimension g.  Its realization is a graded space with parity = weight mod 2.

On top of the realization the module builds:

* Chow-Kunneth projector families (weight projectors, optionally
  conjugated by a seeded unit exp(eps (N - N^t)) that respects the weight
  pairing, to model non-canonical lifts);
* the surface projector relations (the transpose formula for the
  Albanese projector and the subtraction formula for the middle one);
* the three-step filtration on the zero-cycle model with graded pieces
  (Q, albanese part, kernel part);
* the splitting of the middle motive into rho weight-2 lines plus an
  evenly finite dimensional remainder;
* the wedge of zero-cycle classes in the kernel part, computed as a
  column of minors of the matrix of their coordinates, and the resulting
  "kernel must vanish" conclusion for surfaces whose second cohomology
  is entirely algebraic;
* the multiplication-by-n eigenrelations on the abelian model.

The kernel dimension ``t`` is a free model parameter, not derived from
geometry; the theorems of the calculus constrain it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InvariantError, SizeCapError
from .supercat import (
    TENSOR_DIM_CAP,
    SuperMorphism,
    SuperSpace,
    exp_nilpotent,
    fraction_free_reduce,
    invert_unit,
)
from .karoubi import KaroubiObject
from .lifting import (
    ProjectorFamily,
    conjugating_unit,
    eps_perturbation,
    seeded_rng,
)
from .symgroup import Permutation

KINDS = ("point", "lefschetz", "curve", "surface", "abelian")


class MotiveSpec:
    """Betti-data description of a motive model.

    Fields not used by a kind are ignored for it.  For surfaces the model
    identifies "geometric genus zero" with b2 = rho, so ``pg`` must be 0
    exactly when every weight-2 class is algebraic.  Specs with equal
    fields are equal and hash alike.
    """

    def __init__(self, kind: str, g: int = 0, q: int = 0, pg: int = 0, b2: int = 0,
                 rho: int = 0, r: int = 0, k: int = 1, seed: int = 0, t: int = 0):
        self.kind = kind
        self.g = g
        self.q = q
        self.pg = pg
        self.b2 = b2
        self.rho = rho
        self.r = r
        self.k = k
        self.seed = seed
        self.t = t
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
        if k < 1:
            raise ValueError("truncation order k must be >= 1")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        if t < 0:
            raise ValueError("kernel dimension t must be nonnegative")
        if kind in ("curve", "abelian") and g < 0:
            raise ValueError("genus must be nonnegative")
        if kind == "surface":
            if q < 0:
                raise ValueError("irregularity q must be nonnegative")
            if not 1 <= rho <= b2:
                raise ValueError("need 1 <= rho <= b2 for a surface model")
            if (pg == 0) != (b2 == rho):
                raise ValueError("pg = 0 exactly when b2 = rho in this model")
            if pg < 0:
                raise ValueError("pg must be nonnegative")

    def __eq__(self, other):
        if other.__class__ is not MotiveSpec:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{key}={val!r}" for key, val in self.__dict__.items())
        return f"MotiveSpec({fields})"

    @property
    def motive_dimension(self) -> int:
        """Half the top weight of the realization."""
        return max(build_realization(self).weights) // 2

    @property
    def d_param(self) -> int:
        """b2 - rho, the transcendental dimension of the surface model."""
        return self.b2 - self.rho


def build_realization(spec: MotiveSpec) -> SuperSpace:
    """The graded space of the model; parity is weight mod 2."""
    if spec.kind == "point":
        dims = {0: 1}
    elif spec.kind == "lefschetz":
        dims = {2 * spec.r: 1}
    elif spec.kind == "curve":
        dims = {0: 1, 1: 2 * spec.g, 2: 1}
    elif spec.kind == "surface":
        dims = {0: 1, 1: 2 * spec.q, 2: spec.b2, 3: 2 * spec.q, 4: 1}
    else:
        dims = {i: math.comb(2 * spec.g, i) for i in range(2 * spec.g + 1)}
    weights = tuple(w for w in sorted(dims) for _ in range(dims[w]))
    return SuperSpace(tuple(w % 2 for w in weights), weights, spec.k)


def weight_projector(space: SuperSpace, w: int) -> SuperMorphism:
    return SuperMorphism.projector(
        space, [i for i, wi in enumerate(space.weights) if wi == w])


def weight_family(spec: MotiveSpec) -> ProjectorFamily:
    """The weight projectors, one per weight 0..2d ({id} for point, Lefschetz)."""
    space = build_realization(spec)
    if spec.kind in ("point", "lefschetz"):
        return ProjectorFamily(space, (SuperMorphism.identity(space),))
    return ProjectorFamily(space, tuple(
        weight_projector(space, w) for w in range(2 * spec.motive_dimension + 1)))


def _transpose_partner(space: SuperSpace, top: int) -> list[int]:
    """Index map pairing the a-th vector of weight w with the a-th of top-w."""
    by_weight: dict[int, list[int]] = {}
    for i, w in enumerate(space.weights):
        by_weight.setdefault(w, []).append(i)
    partner = [0] * space.dim
    for w, idxs in by_weight.items():
        mates = by_weight.get(top - w, [])
        if len(mates) != len(idxs):
            raise ValueError(f"weights {w} and {top - w} have different multiplicities")
        for a, i in enumerate(idxs):
            partner[i] = mates[a]
    return partner


def weight_transpose(f: SuperMorphism, partner: Sequence[int]) -> SuperMorphism:
    """Adjoint of ``f`` under the pairing of weight w with weight top-w."""
    rows: dict[int, dict[int, tuple[int, ...]]] = {}
    for i, j, t in f.numerators():
        rows.setdefault(partner[j], {})[partner[i]] = t
    return SuperMorphism._from_numerators(f.source, f.target, rows, f.den)


def chow_kunneth(spec: MotiveSpec) -> ProjectorFamily:
    """A complete orthogonal family lifting the weight projectors.

    Seed 0 (or k = 1) gives the weight projectors themselves.  Any other
    seed conjugates them by u = exp(eps S), S = N - N^t for a seeded
    parity-preserving N and the transpose t of the weight pairing.  u is
    the identity mod eps, so realizations are unchanged.  S is
    antisymmetric for the pairing, so the surface projector relations
    hold for the conjugated family too, and u^-1 = exp(-eps S) is read off
    u as its transpose: t is an anti-involution, so
    exp(eps S)^t = exp(eps S^t) = exp(-eps S) exactly.  A one-member
    family (point, Lefschetz) is {id} under every unit and takes none.
    """
    family = weight_family(spec)
    if spec.seed and spec.k > 1 and len(family) > 1:
        space = family.ambient
        n = eps_perturbation(space, seeded_rng(spec.seed))
        partner = _transpose_partner(space, 2 * spec.motive_dimension)
        s = n - weight_transpose(n, partner)
        u = exp_nilpotent(s)
        uinv = weight_transpose(u, partner)
        family = ProjectorFamily(space, tuple(uinv.compose(m).compose(u) for m in family))
    return family


# --- surface projector relations ---------------------------------------------------


class RelationCheck(NamedTuple):
    name: str
    passed: bool
    defect: SuperMorphism | None


class SurfaceRelationsReport(NamedTuple):
    spec: MotiveSpec
    checks: tuple[RelationCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def surface_projector_relations(spec: MotiveSpec,
                                family: ProjectorFamily | None = None
                                ) -> SurfaceRelationsReport:
    """Check the transpose and subtraction formulas on a surface family.

    The Albanese projector is rebuilt from the Picard one as
    pi1^t - pi1 . pi1^t and must be an idempotent orthogonal to the rest;
    the middle projector rebuilt by subtraction must be idempotent.
    Failures are reported with their defect matrices, not raised.
    """
    if spec.kind != "surface":
        raise ValueError("projector relations are a surface operation")
    if family is None:
        family = chow_kunneth(spec)
    space = family.ambient
    p0, p1, p2, p3, p4 = family.members
    partner = _transpose_partner(space, 4)
    t1 = weight_transpose(p1, partner)
    albanese = t1 - p1.compose(t1)
    ident = SuperMorphism.identity(space)
    middle = ident - p0 - p1 - albanese - p4
    checks = []

    def record(name, lhs, rhs):
        defect = lhs - rhs
        checks.append(RelationCheck(name=name, passed=defect.is_zero(),
                                    defect=None if defect.is_zero() else defect))

    record("albanese_idempotent", albanese.compose(albanese), albanese)
    record("albanese_matches_family", albanese, p3)
    for i, other in ((0, p0), (1, p1), (4, p4)):
        record(f"albanese_orthogonal_left_{i}",
               albanese.compose(other), SuperMorphism.zero(space, space))
        record(f"albanese_orthogonal_right_{i}",
               other.compose(albanese), SuperMorphism.zero(space, space))
    record("middle_idempotent", middle.compose(middle), middle)
    record("middle_matches_family", middle, p2)
    return SurfaceRelationsReport(spec=spec, checks=tuple(checks))


# --- the zero-cycle model and its filtration ------------------------------------------


class ChowModel(NamedTuple):
    """Model of the surface's zero-cycle group: Q^(1 + q + t).

    Coordinates are blocked as [degree | albanese | kernel].  The top
    projector acts as the degree block, the Albanese projector as the
    albanese block, the middle projector as the kernel block; the
    filtration is literally the chain of kernels of those actions.
    """

    q: int
    t: int

    @property
    def total_dim(self) -> int:
        return 1 + self.q + self.t

    def action_of_member(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Block projector matrix (of 0s and 1s) by which family member
        ``i`` acts."""
        blocks = {4: (0, 1), 3: (1, 1 + self.q), 2: (1 + self.q, self.total_dim)}
        lo, hi = blocks.get(i, (0, 0))
        n = self.total_dim
        return tuple(
            tuple(int(r == c and lo <= r < hi) for c in range(n))
            for r in range(n)
        )

    def filtration_dims(self) -> tuple[int, int, int, int]:
        """Dims of the kernel chain: full, ker(top), ker(top) ^ ker(alb), then 0."""
        dims = [self.total_dim]
        stacked: list[tuple[int, ...]] = []
        for member in (4, 3, 2):
            stacked.extend(self.action_of_member(member))
            pivots, _ = fraction_free_reduce(list(stacked))
            dims.append(self.total_dim - len(pivots))
        return tuple(dims)

    def graded_dims(self) -> tuple[int, int, int]:
        f0, f1, f2, f3 = self.filtration_dims()
        return (f0 - f1, f1 - f2, f2 - f3)


def murre_filtration(spec: MotiveSpec) -> ChowModel:
    """The zero-cycle model with its three-step filtration."""
    if spec.kind != "surface":
        raise ValueError("the filtration model is a surface operation")
    t = spec.t
    model = ChowModel(q=spec.q, t=t)
    want = (1 + spec.q + t, spec.q + t, t, 0)
    if (dims := model.filtration_dims()) != want:
        raise InvariantError(f"filtration dims {dims} != {want}")
    if (graded := tuple(a - b for a, b in zip(dims, dims[1:]))) != (1, spec.q, t):
        raise InvariantError(f"graded dims {graded} != {(1, spec.q, t)}")
    return model


def graded_action(spec: MotiveSpec, f: SuperMorphism) -> tuple:
    """Realization blocks of ``f`` in weights 4, 3, 2.

    The graded pieces of the zero-cycle model see a correspondence only
    through these blocks, so a homologically trivial correspondence acts
    as zero on every graded piece.
    """
    space = build_realization(spec)
    if f.source != space or f.target != space:
        raise ValueError("f must be an endomorphism of the surface realization")
    r = f.realization()
    out = []
    for w in (4, 3, 2):
        idxs = [i for i, wi in enumerate(space.weights) if wi == w]
        block = tuple(
            tuple(r.entry(i, j).realization() for j in idxs) for i in idxs
        )
        out.append(block)
    return tuple(out)


def acts_as_zero_on_gradeds(spec: MotiveSpec, f: SuperMorphism) -> bool:
    return all(
        all(not v for row in block for v in row) for block in graded_action(spec, f)
    )


# --- the middle motive splitting -------------------------------------------------------


class MiddleSplit(NamedTuple):
    """The middle motive split as rho weight-2 lines plus a remainder.

    ``kernel_in_ambient`` is the remainder as a summand of the full
    realization; ``kernel`` is its verified free image, the full object on
    the (b2 - rho) remaining weight-2 basis vectors, with the isomorphism
    pair (``embed``, ``project``) of ``KaroubiObject.free_image``:
    project . embed = id and embed . project = the ambient idempotent.
    Classification runs on the compressed copy.
    """

    rho: int
    middle: KaroubiObject
    line_summands: tuple[KaroubiObject, ...]
    kernel: KaroubiObject
    kernel_in_ambient: KaroubiObject
    embed: SuperMorphism
    project: SuperMorphism


def split_middle(spec: MotiveSpec,
                 family: ProjectorFamily | None = None) -> MiddleSplit:
    """Split the middle motive as rho weight-2 lines plus a remainder.

    The remainder is evenly finite dimensional of dimension b2 - rho; the
    algebraic classes are the first rho weight-2 basis vectors, carried to
    ``family`` (default ``chow_kunneth(spec)``) by its conjugating unit u
    from the weight projectors, family[i] = u . pi_i . u^-1.
    """
    if spec.kind != "surface":
        raise ValueError("the middle splitting is a surface operation")
    if family is None:
        family = chow_kunneth(spec)
    u = conjugating_unit(weight_family(spec), family)
    space = family.ambient
    uinv = invert_unit(u)
    weight2 = [i for i, w in enumerate(space.weights) if w == 2]

    def conjugated(idxs):
        return u.compose(SuperMorphism.projector(space, idxs)).compose(uinv)

    lines = [KaroubiObject._of(conjugated([idx])) for idx in weight2[:spec.rho]]
    middle = KaroubiObject._of(family[2])
    kernel_in_ambient = KaroubiObject._of(family[2] - conjugated(weight2[:spec.rho]))
    kernel, embed, project = kernel_in_ambient.free_image()
    return MiddleSplit(rho=spec.rho, middle=middle,
                       line_summands=tuple(lines), kernel=kernel,
                       kernel_in_ambient=kernel_in_ambient,
                       embed=embed, project=project)


# --- the wedge of zero-cycles -----------------------------------------------------------


def albanese_wedge(cycles: Sequence[Sequence],
                   cap: int = TENSOR_DIM_CAP) -> dict[tuple[int, ...], Fraction]:
    """The wedge of n vectors in the kernel part Q^t, t their common length.

    The wedge is the outer product of the cycles cut by the exterior-power
    idempotent (1/n!) sum over permutations of sign times the reordered
    outer product, a tensor in (Q^t)^(n).  At a tuple I of distinct
    indices its coefficient is det(v_b[I_a]) / n!; at a tuple with a
    repeated index it is 0.  The minors on the n-subsets of the indices,
    one column of the n-th compound matrix of the t x n cycle matrix, are
    built by expanding along the last cycle, and each gives the
    coefficient at every ordering of its subset, signed by the ordering's
    permutation.  The result is a sparse map from index tuples to
    coefficients in sorted order (empty = zero).  It vanishes whenever
    the cycles are linearly dependent, in particular whenever n exceeds t.
    ``SizeCapError`` when the t^n entries of (Q^t)^(n) exceed ``cap``.
    """
    vectors = [tuple(Fraction(c) for c in cyc) for cyc in cycles]
    if not vectors:
        raise ValueError("need at least one cycle")
    t = len(vectors[0])
    if any(len(v) != t for v in vectors):
        raise ValueError("cycles must all live in the same kernel part")
    n = len(vectors)
    if t**n > cap:
        raise SizeCapError(f"tensor power {t}**{n} exceeds cap {cap}")
    # minors[rows]: the minor of the first m cycles on the sorted rows
    minors = {(): Fraction(1)}
    for m, v in enumerate(vectors, 1):
        minors = {rows: sum((-1) ** (m - 1 - a) * v[i] * minors[rows[:a] + rows[a + 1:]]
                            for a, i in enumerate(rows))
                  for rows in itertools.combinations(range(t), m)}
    out = {}
    for rows, minor in minors.items():
        if minor:
            for order in itertools.permutations(range(n)):
                out[tuple(rows[a] for a in order)] = \
                    Permutation(order).sign() * minor / math.factorial(n)
    return dict(sorted(out.items()))


# --- conclusions for surfaces with all of weight 2 algebraic ----------------------------


class KernelVanishingVerdict(NamedTuple):
    consistent: bool
    t: int
    motive_shape: str | None
    notes: tuple[str, ...]


def pg_zero_conclusion(spec: MotiveSpec) -> KernelVanishingVerdict:
    """For a surface with b2 = rho: finite dimensionality forces t = 0.

    When b2 = rho the transcendental dimension d is 0, so the wedge of any
    single kernel class must vanish, i.e. the kernel part itself is zero.
    With q = 0 as well, the motive has the split shape
    1 + b2 copies of the weight-2 line + its square.
    """
    if spec.kind != "surface":
        raise ValueError("this conclusion is a surface operation")
    if spec.pg != 0:
        raise ValueError("outside hypotheses: the model requires pg = 0 (b2 = rho)")
    t = spec.t
    notes = []
    consistent = t == 0
    if consistent:
        notes.append("d = b2 - rho = 0, and the kernel part is zero as required")
    else:
        notes.append(
            f"d = 0 forces every single kernel class to vanish, but t = {t} > 0"
        )
    shape = None
    if spec.q == 0 and consistent:
        shape = f"1 + {spec.b2}L + L^2"
        notes.append("q = 0: the motive splits as " + shape)
    return KernelVanishingVerdict(consistent=consistent, t=t, motive_shape=shape,
                                  notes=tuple(notes))


# --- abelian eigenrelations --------------------------------------------------------------


class AbelianActionReport(NamedTuple):
    g: int
    n: int
    eigenvalues: tuple[int, ...]
    holds: bool
    failures: tuple[str, ...]


def abelian_multiplication_action(g: int, n: int, k: int = 1) -> AbelianActionReport:
    """Verify the multiplication-by-n eigenrelations on the abelian model.

    The realization is the exterior algebra on 2g odd weight-1 generators;
    multiplication by n acts as n^i on weight i, and must satisfy
    nstar . pi_i = pi_i . nstar = n^i pi_i for every weight projector.
    """
    if g > 3:
        raise SizeCapError(f"abelian dimension g = {g} exceeds the guard 3")
    if abs(n) > 5:
        raise ValueError(f"|n| = {abs(n)} exceeds the guard 5")
    spec = MotiveSpec(kind="abelian", g=g, k=k)
    space = build_realization(spec)
    nstar = SuperMorphism.diagonal(space, [n**w for w in space.weights])
    failures = []
    eigen = tuple(n**i for i in range(2 * g + 1))
    for i in range(2 * g + 1):
        pi = weight_projector(space, i)
        scaled = pi.scale(eigen[i])
        if nstar.compose(pi) != scaled:
            failures.append(f"nstar . pi_{i} != n^{i} pi_{i}")
        if pi.compose(nstar) != scaled:
            failures.append(f"pi_{i} . nstar != n^{i} pi_{i}")
    return AbelianActionReport(g=g, n=n, eigenvalues=eigen,
                               holds=not failures, failures=tuple(failures))
