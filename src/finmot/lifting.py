"""Idempotent lifting along Q[eps]/(eps^k) -> Q and the corner calculus.

The nilpotent ideal of the model is always the ideal (eps) of the scalar
ring, whose nilpotency index is exactly k.  Everything here is exact:

* Newton iteration e <- 3e^2 - 2e^3 lifts an endomorphism whose
  realization is idempotent to an exact idempotent in <= ceil(log2 k)
  rounds;
* complete orthogonal families are lifted member by member, each in the
  corner orthogonal to the members before it, the last absorbing the defect;
* for two idempotents with the same realization, the corner element
  e = pi . pi~ . pi is a unit of the corner algebra pi A pi, and from its
  corner inverse one assembles explicit mutually inverse morphisms between
  the two summands;
* homologically trivial endomorphisms are nilpotent of index <= k.

Seeded perturbations used throughout the package are produced here, by
one builder that draws integer entries in {-2..2} on the
parity-preserving positions: eps times such a matrix, or one with
entries at every eps order.  All randomness flows through
``random.Random(seed)`` (the stdlib Mersenne Twister), so runs are
reproducible from the seed alone.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import InvariantError
from .supercat import SuperMorphism, SuperSpace, geometric_series


# --- seeded perturbations -----------------------------------------------------


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)


def _random_rows(space: SuperSpace, rng: random.Random,
                 orders: range) -> dict[int, dict[int, tuple[int, ...]]]:
    """Numerator rows with seeded entries in {-2..2}.

    Position by position over the parity-allowed positions, one value is
    drawn per eps order in ``orders``.  The eps^0 value is drawn only
    where the weights agree; a value drawn at an order >= k (eps at k = 1)
    is dropped.
    """
    k = space.k
    parities = space.parities
    weights = space.weights
    rows: dict[int, dict[int, tuple[int, ...]]] = {}
    for i in range(space.dim):
        for j in range(space.dim):
            if parities[i] != parities[j]:
                continue
            coeffs = [0] * k
            for order in orders:
                if order or weights[i] == weights[j]:
                    v = rng.randint(-2, 2)
                    if order < k:
                        coeffs[order] = v
            if any(coeffs):
                rows.setdefault(i, {})[j] = tuple(coeffs)
    return rows


def eps_perturbation(space: SuperSpace, rng: random.Random) -> SuperMorphism:
    """eps times a random parity-preserving integer matrix."""
    return SuperMorphism._from_numerators(space, space, _random_rows(space, rng, range(1, 2)))


def seeded_unit(space: SuperSpace, rng: random.Random) -> SuperMorphism:
    """id + eps * N for a seeded parity-preserving N; always invertible."""
    return SuperMorphism.identity(space) + eps_perturbation(space, rng)


def random_hom_trivial(space: SuperSpace, rng: random.Random) -> SuperMorphism:
    """A random endomorphism with entries in the ideal (eps)."""
    return SuperMorphism._from_numerators(
        space, space, _random_rows(space, rng, range(1, space.k)))


def random_endomorphism(space: SuperSpace, rng: random.Random) -> SuperMorphism:
    """A random endomorphism valid at every eps order.

    The realization part is drawn on the parity- and weight-allowed
    positions, the higher orders on the parity-allowed ones.
    """
    return SuperMorphism._from_numerators(
        space, space, _random_rows(space, rng, range(space.k)))


# --- Newton lifting --------------------------------------------------------------


def _newton_rounds(k: int) -> int:
    """ceil(log2 k), and at least 1, in integers."""
    return max(1, (k - 1).bit_length())


def lift_idempotent(start: SuperMorphism) -> SuperMorphism:
    """An exact idempotent congruent to ``start`` mod eps.

    Requires the realization of ``start`` to be idempotent.  Already
    idempotent input is returned unchanged.  The Newton step squares the
    eps-order of the defect, so convergence takes at most ceil(log2 k)
    rounds.
    """
    if not start.is_endomorphism():
        raise ValueError("can only lift endomorphisms")
    if not start.realization().is_idempotent():
        raise ValueError("realization is not idempotent")
    e = start
    k = start.k
    rounds = _newton_rounds(k)
    for _ in range(rounds + 1):
        e2 = e.compose(e)
        if e2 == e:
            return e
        e3 = e2.compose(e)
        e = e2.scale(3) - e3.scale(2)
    if e.compose(e) == e:
        return e
    raise InvariantError(f"Newton iteration did not converge in {rounds + 1} rounds at k={k}")


# --- complete orthogonal families --------------------------------------------------


class ProjectorFamily:
    """An ordered complete family of pairwise orthogonal idempotents.

    Two families are equal when their ambients and members are; whether
    either has been validated does not enter."""

    __slots__ = ("ambient", "members", "_valid")

    def __init__(self, ambient: SuperSpace, members: tuple[SuperMorphism, ...]):
        self.ambient = ambient
        self.members = members
        self._valid = False

    def __eq__(self, other):
        if other.__class__ is not ProjectorFamily:
            return NotImplemented
        return self.ambient == other.ambient and self.members == other.members

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]

    def validate(self) -> None:
        """Raise unless complete and orthogonal; a family that passed is not
        checked again.

        Only idempotency and completeness are checked: they imply
        orthogonality, so no pairwise product is formed.  Over the local
        ring R = Q[eps]/(eps^k), the image of an idempotent e on V = R^n is
        a direct summand of V, hence free, and tr e is its rank.  When the
        members e_i are idempotent and sum to 1, the map from the direct
        sum of the im e_i to V that adds the components is onto, since
        v = sum_i e_i v, and both sides are free of rank
        sum_i tr e_i = tr 1 = n; a surjection between free modules of equal
        finite rank is an isomorphism.  For v in V, the tuple (e_i e_j v)_i
        and the tuple with e_j v in slot j alone both map to e_j v, so they
        are equal: e_i e_j = 0 for i != j.
        """
        if self._valid:
            return
        total = SuperMorphism.zero(self.ambient, self.ambient)
        for i, m in enumerate(self.members):
            if m.source != self.ambient or m.target != self.ambient:
                raise ValueError(f"member {i} does not live on the ambient space")
            if not m.is_idempotent():
                raise ValueError(f"member {i} is not idempotent")
            total = total + m
        if total != SuperMorphism.identity(self.ambient):
            raise ValueError("members do not sum to the identity")
        self._valid = True


def lift_family(residues: ProjectorFamily, k: int, seed: int = 0) -> ProjectorFamily:
    """Lift a k=1 family to an exact complete orthogonal family over k.

    A seeded eps-perturbation is applied to each member, modeling the
    non-canonical choice of lifts, and Newton lifting runs in the corner
    orthogonal to the members lifted before it; the last member is
    defined as the identity minus the rest so completeness is exact by
    construction.
    """
    if residues.ambient.k != 1:
        raise ValueError("residues must live at truncation order 1")
    residues.validate()
    if k == 1:
        return residues
    ambient = residues.ambient.with_k(k)
    rng = seeded_rng(seed)
    ident = SuperMorphism.identity(ambient)
    lifted: list[SuperMorphism] = []
    partial = SuperMorphism.zero(ambient, ambient)
    for res in residues.members[:-1]:
        start = res.promoted(k) + eps_perturbation(ambient, rng)
        e = lift_idempotent((ident - partial).compose(start).compose(ident - partial))
        lifted.append(e)
        partial = partial + e
    lifted.append(ident - partial)
    family = ProjectorFamily(ambient, tuple(lifted))
    family.validate()
    return family


def conjugating_unit(fam: ProjectorFamily, fam2: ProjectorFamily) -> SuperMorphism:
    """The unit u = sum(pi~_i . pi_i); it intertwines u . pi_i = pi~_i . u.

    Both families must be complete and orthogonal with equal realizations
    member by member.  u is congruent to the identity mod eps, hence
    invertible via ``supercat.invert_unit``.
    """
    if fam.ambient != fam2.ambient:
        raise ValueError("families live on different spaces")
    if len(fam) != len(fam2):
        raise ValueError("families have different lengths")
    for i, (a, b) in enumerate(zip(fam.members, fam2.members)):
        if a.realization() != b.realization():
            raise ValueError(f"members {i} have different realizations")
    u = SuperMorphism.zero(fam.ambient, fam.ambient)
    for a, b in zip(fam.members, fam2.members):
        u = u + b.compose(a)
    if not u.realization().is_identity():
        raise InvariantError("conjugating unit is not the identity mod eps")
    return u


# --- corner calculus ------------------------------------------------------------------


class CornerReport:
    """Result of comparing matching members of two projector families.

    ``e - pi`` always has zero realization.  When the defect is nonzero,
    ``corner_inverse`` inverts e within the corner algebra pi A pi, and
    the pair (iso_to, iso_from) realizes the two summands as isomorphic:
    iso_from . iso_to = pi and iso_to . iso_from = pi~ exactly.
    """

    __slots__ = ("e", "defect", "exact_equality", "corner_inverse", "iso_to", "iso_from")

    def __init__(self, e: SuperMorphism, defect: SuperMorphism, exact_equality: bool,
                 corner_inverse: SuperMorphism | None, iso_to: SuperMorphism,
                 iso_from: SuperMorphism):
        self.e = e
        self.defect = defect
        self.exact_equality = exact_equality
        self.corner_inverse = corner_inverse
        self.iso_to = iso_to
        self.iso_from = iso_from


def corner_unit_check(pi: SuperMorphism, pi2: SuperMorphism) -> CornerReport:
    """Evaluate e = pi . pi~ . pi and assemble the summand isomorphism.

    The corner inverse of e = pi + (e - pi) is
    ``geometric_series(pi, pi - e)``.  The defect e - pi lies in (eps^2):
    idempotence of pi~ = pi + eps D + O(eps^2) forces pi . D . pi = 0.
    """
    for name, m in (("pi", pi), ("pi~", pi2)):
        if not m.is_idempotent():
            raise ValueError(f"{name} is not idempotent")
    if pi.realization() != pi2.realization():
        raise ValueError("the two idempotents have different realizations")
    round_trip = pi2.compose(pi)
    e = pi.compose(round_trip)
    defect = e - pi
    for i, j, t in defect.numerators():
        if any(t[:2]):
            raise InvariantError(
                "corner defect e - pi has an eps^0 or eps^1 part at "
                f"({i},{j}): {defect.entry(i, j)}")
    exact = defect.is_zero()
    # e = pi + d with d nilpotent in the corner algebra pi A pi, whose unit
    # is pi: e^-1 = pi - d + d^2 - ...
    v = pi if exact else geometric_series(pi, -defect)
    iso_to = round_trip
    # v lies in pi A pi, so v . pi = v
    iso_from = v.compose(pi2)
    if iso_from.compose(iso_to) != pi:
        raise InvariantError("corner isomorphism: iso_from . iso_to != pi")
    if iso_to.compose(iso_from) != pi2:
        raise InvariantError("corner isomorphism: iso_to . iso_from != pi~")
    return CornerReport(e=e, defect=defect, exact_equality=exact,
                        corner_inverse=None if exact else v,
                        iso_to=iso_to, iso_from=iso_from)


# --- nilpotency -----------------------------------------------------------------------


def nilpotency_index(f: SuperMorphism) -> int:
    """Smallest m with f^m = 0, for homologically trivial f; always <= k."""
    if not f.is_endomorphism():
        raise ValueError("nilpotency index of a non-endomorphism")
    if not f.is_hom_trivial():
        raise ValueError("endomorphism is not homologically trivial")
    power = f
    m = 1
    while not power.is_zero():
        power = power.compose(f)
        m += 1
        if m > f.k:
            raise InvariantError(
                f"hom-trivial endomorphism not nilpotent within k = {f.k}")
    return m


# --- rigidity -------------------------------------------------------------------------


class RigidityBlock(NamedTuple):
    s: int
    t: int
    is_zero: bool


class MurreRigidityReport(NamedTuple):
    within_hypotheses: bool
    hom_trivial: bool
    certified_zero: bool
    violations: tuple[tuple[int, int, str], ...]
    blocks: tuple[RigidityBlock, ...]


def murre_rigidity(blocks: ProjectorFamily, q: SuperMorphism) -> MurreRigidityReport:
    """Blockwise rigidity check against a weight-homogeneous family.

    The structural hypotheses are: off-diagonal blocks pi_t . q . pi_s
    (s != t) vanish, and diagonal corners carry no eps part.  Under these
    hypotheses a homologically trivial q is certified zero block by block;
    violated hypotheses are reported as such, not as a failure of the
    rigidity statement.
    """
    blocks.validate()
    _check_weight_homogeneous(blocks)
    if q.source != blocks.ambient or q.target != blocks.ambient:
        raise ValueError("q must be an endomorphism of the family's ambient space")
    violations: list[tuple[int, int, str]] = []
    decomposition: dict[tuple[int, int], SuperMorphism] = {}
    left = [pt.compose(q) for pt in blocks.members]
    for s, ps in enumerate(blocks.members):
        for t, pt_q in enumerate(left):
            b = pt_q.compose(ps)
            decomposition[(s, t)] = b
            if s != t and not b.is_zero():
                violations.append((s, t, "nonzero off-diagonal block"))
            if s == t and any(any(nums[1:]) for _, _, nums in b.numerators()):
                violations.append((s, t, "diagonal corner has an eps part"))
    hom_trivial = q.is_hom_trivial()
    if violations:
        return MurreRigidityReport(
            within_hypotheses=False, hom_trivial=hom_trivial,
            certified_zero=False, violations=tuple(violations), blocks=())
    report_blocks = []
    all_zero = True
    for (s, t), b in sorted(decomposition.items()):
        is_zero = b.is_zero()
        all_zero = all_zero and is_zero
        report_blocks.append(RigidityBlock(s=s, t=t, is_zero=is_zero))
    certified = hom_trivial and all_zero
    if hom_trivial and not (all_zero and q.is_zero()):
        nonzero = [(b.s, b.t) for b in report_blocks if not b.is_zero]
        raise InvariantError(f"hom-trivial q within the hypotheses has nonzero blocks {nonzero}")
    return MurreRigidityReport(
        within_hypotheses=True, hom_trivial=hom_trivial,
        certified_zero=certified, violations=(),
        blocks=tuple(report_blocks))


def _check_weight_homogeneous(fam: ProjectorFamily) -> None:
    weights = fam.ambient.weights
    for i, m in enumerate(fam.members):
        support = {weights[r] for r, _, t in m.numerators() if t[0]}
        if len(support) > 1:
            raise ValueError(
                f"member {i} is not weight-homogeneous (weights {sorted(support)})"
            )
