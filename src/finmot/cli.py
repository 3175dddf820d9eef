"""Command-line harness.

Subcommands:

* ``chars N``            -- the character table of S_N
* ``schur``              -- dimension / rank / zero verdict of a Schur image
* ``verify SUITE``       -- run a named invariant suite over a parameter grid;
  ``verify all`` runs every suite at its default grid in one report
* ``surface PATH``       -- full surface pipeline from a model description file

Reports are deterministic for a fixed (config, seed): checks are keyed and
sorted, no timestamps or floats enter the payload, and wall-clock timing is
written to stderr only.  Exit codes: 0 all checks passed, 1 verification
failure, 2 usage or parse error (including a grid that selects no
checks and a ``--file`` that cannot be written), 3 size-cap error.  An
``InvariantError`` inside a ``verify`` suite is that suite's failed check
``<suite>/invariant``; elsewhere it prints one ``invariant violated`` line
and exits 1.
"""

from __future__ import annotations

import io
import json
import math
import sys
import time
from collections.abc import Iterable
from fractions import Fraction

from .cmdline import Arg, CommandLine, choice, integer
from .errors import InvariantError, ModelFileError, SizeCapError
from .symgroup import (
    GroupAlgebraElement,
    Partition,
    all_permutations,
    character,
    conjugacy_class_size,
    hook_dimension,
    partitions,
    young_idempotent,
)
from .supercat import (
    TENSOR_DIM_CAP,
    SuperMorphism,
    SuperSpace,
    invert_unit,
    permutation_action,
)
from . import karoubi
from .karoubi import (
    KaroubiObject,
    classify,
    s_wedge,
    schur_apply,
    schur_super_dimension,
    split_parity,
    sym,
    wedge,
)
from . import lifting
from .lifting import (
    ProjectorFamily,
    conjugating_unit,
    corner_unit_check,
    eps_perturbation,
    lift_family,
    lift_idempotent,
    murre_rigidity,
    nilpotency_index,
    random_hom_trivial,
    seeded_rng,
    seeded_unit,
)
from . import motives
from .motives import (
    MotiveSpec,
    abelian_multiplication_action,
    acts_as_zero_on_gradeds,
    albanese_wedge,
    build_realization,
    chow_kunneth,
    murre_filtration,
    pg_zero_conclusion,
    split_middle,
    surface_projector_relations,
)

SCHEMA = "finmot-report/1"

#: truncation orders and seeds accepted from ``--k``/``--seed`` and from model files
K_RANGE = range(1, 7)
SEED_RANGE = range(2**64)


class Check:
    __slots__ = ("id", "passed", "detail")

    def __init__(self, id: str, passed: bool, detail: str = ""):
        self.id = id
        self.passed = passed
        self.detail = detail


class RunConfig:
    """One command's settings; ``grid`` and ``params`` default to fresh dicts."""

    __slots__ = ("command", "out_format", "seed", "cap", "k", "grid", "file", "params")

    def __init__(self, command: str, out_format: str = "pretty", seed: int = 0,
                 cap: int = TENSOR_DIM_CAP, k: int = 2, grid: dict | None = None,
                 file: str | None = None, params: dict | None = None):
        if cap <= 0:
            raise ValueError("--cap must be positive")
        if seed not in SEED_RANGE:
            raise ValueError("--seed must be an unsigned 64-bit integer")
        self.command = command
        self.out_format = out_format
        self.seed = seed
        self.cap = cap
        self.k = k
        self.grid = {} if grid is None else grid
        self.file = file
        self.params = {} if params is None else params


class Report:
    __slots__ = ("command", "config", "results", "checks")

    def __init__(self, command: str, config: dict, results: dict, checks: list[Check]):
        self.command = command
        self.config = config
        self.results = results
        self.checks = checks

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def sorted_checks(self) -> list[Check]:
        return sorted(self.checks, key=lambda c: c.id)

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "checks": [
                {"id": c.id, "passed": c.passed, "detail": c.detail}
                for c in self.sorted_checks()
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        import csv  # only CSV output reads it; JSON and pretty runs skip the import

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check_id", "passed", "detail"])
        for c in self.sorted_checks():
            writer.writerow([c.id, "pass" if c.passed else "fail", c.detail])
        return buf.getvalue()

    def to_pretty(self) -> str:
        lines = [f"command: {self.command}"]
        for key in sorted(self.config):
            lines.append(f"  {key} = {self.config[key]}")
        if self.results:
            lines.append("results:")
            lines.extend(_pretty_results(self.results, indent=2))
        if self.checks:
            lines.append("checks:")
            for c in self.sorted_checks():
                mark = "PASS" if c.passed else "FAIL"
                suffix = f": {c.detail}" if c.detail else ""
                lines.append(f"  [{mark}] {c.id}{suffix}")
            n_pass = sum(1 for c in self.checks if c.passed)
            lines.append(f"{n_pass}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.to_pretty()


def _pretty_results(obj, indent: int) -> list[str]:
    pad = " " * indent
    lines = []
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, dict) and val:
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_results(val, indent + 2))
            elif isinstance(val, list) and val and not _is_flat(val):
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_results(val, indent + 2))
            else:
                lines.append(f"{pad}{key} = {val}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, dict):
                lines.extend(_pretty_results(val, indent))
            else:
                lines.append(f"{pad}- {val}")
    return lines


def _is_flat(val: list) -> bool:
    return all(not isinstance(v, (dict, list)) for v in val)


def _plabel(lam: Partition) -> str:
    return ".".join(str(p) for p in lam.parts) if lam.parts else "0"


def _defect_string(m) -> str:
    """Compact deterministic rendering of a defect matrix's entries."""
    bits = [f"({i},{j})={s}" for i, j, s in sorted(m.items(), key=lambda t: t[:2])]
    return "defect " + "; ".join(bits) if bits else "defect 0"


# --- chars ---------------------------------------------------------------------


def cmd_chars(cfg: RunConfig) -> Report:
    n = cfg.params["n"]
    rows = partitions(n)
    cols = list(reversed(rows))  # identity class first
    table = [[character(lam, ct) for ct in cols] for lam in rows]
    results = {
        "n": n,
        "rows": [list(lam.parts) for lam in rows],
        "columns": [list(ct.parts) for ct in cols],
        "table": table,
    }
    checks = [
        Check(id=f"chars/row-count-n{n}", passed=len(table) == len(rows)),
        Check(
            id=f"chars/first-column-is-dimension-n{n}",
            passed=all(row[0] == hook_dimension(lam) for row, lam in zip(table, rows)),
        ),
    ]
    return Report("chars", _config_dict(cfg), results, checks)


# --- schur ---------------------------------------------------------------------


def cmd_schur(cfg: RunConfig) -> Report:
    lam = cfg.params["lam"]
    p, q = cfg.params["p"], cfg.params["q"]
    if p + q > cfg.cap:
        raise SizeCapError(f"object dimension {p} + {q} exceeds cap {cfg.cap}")
    obj = KaroubiObject.full(SuperSpace.standard(p, q, cfg.k))
    image = schur_apply(lam, obj, cap=cfg.cap)
    super_dim = image.dimension()
    by_characters = schur_super_dimension(lam, obj)
    results = {
        "lam": list(lam.parts),
        "p": p,
        "q": q,
        "k": cfg.k,
        "super_dimension": super_dim,
        "classical_rank": image.classical_rank(),
        "is_zero": image.is_zero(),
    }
    checks = [
        Check(
            id="schur/dimension-two-ways",
            passed=Fraction(super_dim) == by_characters,
            detail=f"trace {super_dim}, character sum {by_characters}",
        )
    ]
    return Report("schur", _config_dict(cfg), results, checks)


# --- verify suites ----------------------------------------------------------------


def _seeds(cfg: RunConfig, grid: dict) -> range:
    """The suite seeds ``cfg.seed + 1 .. cfg.seed + grid["seeds"]``; never 0."""
    return range(cfg.seed + 1, cfg.seed + grid["seeds"] + 1)


def _fold(check_id: str, detail: str, cases: Iterable[tuple], witness: str) -> Check:
    """One check over many cases, each ``(passed, *fields)``: it fails on the first
    case that did not pass, with ``witness`` formatted by that case's fields."""
    # the suites' own loops collect the cases: a nested generator per check costs
    # about 8 KB of peak RSS in every process that compiles this module from source
    for case in cases:
        if not case[0]:
            return Check(check_id, False, witness.format(*case[1:]))
    return Check(check_id, True, detail)


def _suite_symmetrizers(cfg: RunConfig, grid: dict) -> tuple[dict, list[Check]]:
    checks = []
    nmax = grid["n"]
    all_permutations(nmax)  # refuses an n past the bound before any check
    for n in range(nmax + 1):
        parts = partitions(n)
        idems = {lam: young_idempotent(lam) for lam in parts}
        total = GroupAlgebraElement(n)
        for d in idems.values():
            total = total + d
        checks.append(Check(f"symmetrizers/sum-to-identity-n{n}",
                            total == GroupAlgebraElement.identity(n)))
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                prod = idems[lam] * idems[mu]
                expected = idems[lam] if lam == mu else GroupAlgebraElement(n)
                checks.append(Check(
                    f"symmetrizers/orthogonality-n{n}-{_plabel(lam)}-{_plabel(mu)}",
                    prod == expected))
    for n in range(1, nmax + 1):
        parts = partitions(n)
        nfact = math.factorial(n)
        cases = []
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                total = sum(
                    conjugacy_class_size(ct) * character(lam, ct) * character(mu, ct)
                    for ct in parts
                )
                want = nfact if lam == mu else 0
                cases.append((total == want, lam.parts, mu.parts, total, want))
        checks.append(_fold(f"symmetrizers/column-orthogonality-n{n}", "", cases,
                            "lam={}, mu={}: sum {} != {}"))
    for n in range(0, max(8, nmax) + 1):
        total = sum(hook_dimension(lam) ** 2 for lam in partitions(n))
        checks.append(Check(f"symmetrizers/sum-of-squares-n{n}",
                            total == math.factorial(n)))
    return {}, checks


def _suite_supertrace(cfg: RunConfig, grid: dict) -> tuple[dict, list[Check]]:
    checks = []
    # enumerated once, before any check, so an n past the bound fails at once
    perms = {n: list(all_permutations(n)) for n in range(1, grid["n"] + 1)}
    for p in range(grid["p"] + 1):
        for q in range(grid["q"] + 1):
            if p == q == 0:
                continue
            space = SuperSpace.standard(p, q, 1)
            for n, group in perms.items():
                cases = []
                for sigma in group:
                    got = permutation_action(sigma, space, n, cap=cfg.cap).supertrace()
                    want = Fraction(p - q) ** len(sigma.cycles())
                    cases.append((got.realization() == want and got.eps_part_is_zero(),
                                  sigma.images, got, want))
                checks.append(_fold(f"supertrace/p{p}q{q}n{n}", "", cases,
                                    "sigma={}: supertrace {}, expected {}"))
    return {}, checks


def _suite_kimura_dim(cfg: RunConfig, grid: dict) -> tuple[dict, list[Check]]:
    checks = []
    pmax, qmax, kmax = grid["p"], grid["q"], grid["k"]
    witness = "n={0}: {1} {2}^{0} = {3}, expected {4}"
    for k in range(1, kmax + 1):
        for d in range(1, pmax + 1):
            obj = KaroubiObject.full(SuperSpace.standard(d, 0, k))
            cases = []
            for n in range(1, d + 2):
                dim, want = wedge(n, obj, cap=cfg.cap).dimension(), math.comb(d, n)
                cases.append((dim == want, n, "dim", "Lambda", dim, want))
                dim, want = sym(n, obj, cap=cfg.cap).dimension(), math.comb(d + n - 1, n)
                cases.append((dim == want, n, "dim", "S", dim, want))
            checks.append(_fold(f"kimura-dim/even-d{d}-k{k}", "", cases, witness))
        for q in range(1, qmax + 1):
            obj = KaroubiObject.full(SuperSpace.standard(0, q, k))
            cases = []
            for n in range(1, q + 2):
                # dim X = -q, so dim(S^n X) = C(-q+n-1, n) = (-1)^n C(q, n)
                for name, image, rank in (
                        ("S", sym(n, obj, cap=cfg.cap), math.comb(q, n)),
                        ("Lambda", wedge(n, obj, cap=cfg.cap), math.comb(q + n - 1, n))):
                    dim, sdim = image.dimension(), (-1) ** n * rank
                    cases.append((dim == sdim, n, "dim", name, dim, sdim))
                    got = image.classical_rank()
                    cases.append((got == rank, n, "rank", name, got, rank))
            checks.append(_fold(f"kimura-dim/odd-q{q}-k{k}", "", cases, witness))
    return {}, checks


def _suite_vanishing(cfg: RunConfig, grid: dict) -> tuple[dict, list[Check]]:
    checks = []
    pmax, qmax, kmax = grid["p"], grid["q"], grid["k"]
    for k in range(1, kmax + 1):
        for p in range(pmax + 1):
            for q in range(qmax + 1):
                obj = KaroubiObject.full(SuperSpace.standard(p, q, k))
                split = split_parity(obj)
                cases = (
                    (wedge(p + 1, split[0], cap=cfg.cap).is_zero(), p + 1, "Lambda", "X+",
                     "nonzero"),
                    (sym(q + 1, split[1], cap=cfg.cap).is_zero(), q + 1, "S", "X-",
                     "nonzero"),
                    (s_wedge(p + q + 1, obj, split, cap=cfg.cap).is_zero(), p + q + 1,
                     "SLambda", "X", "nonzero"),
                    (not s_wedge(p + q, obj, split, cap=cfg.cap).is_zero(), p + q,
                     "SLambda", "X", "zero"))
                checks.append(_fold(f"vanishing/p{p}q{q}k{k}", "", cases,
                                    "n={0}: {1}^{0} {2} is {3}"))
    return {}, checks


def _suite_lifting(cfg: RunConfig, grid: dict) -> tuple[dict, list[Check]]:
    checks = []
    seeds = _seeds(cfg, grid)
    for k in range(1, grid["k"] + 1):
        space = SuperSpace.standard(2, 1, k)
        cases = []
        for seed in seeds:
            rng = seeded_rng(seed)
            base = SuperMorphism.diagonal(space, [1, 0, rng.randint(0, 1)])
            start = base + eps_perturbation(space, rng)
            cases.append((lift_idempotent(start).realization() == base.realization(), seed))
        checks.append(_fold(f"lifting/newton-k{k}", f"{len(seeds)} seeds", cases,
                            "seed {}: lift realization differs from the base"))
        residues = ProjectorFamily(
            space.with_k(1),
            (SuperMorphism.diagonal(space.with_k(1), [1, 0, 0]),
             SuperMorphism.diagonal(space.with_k(1), [0, 1, 0]),
             SuperMorphism.diagonal(space.with_k(1), [0, 0, 1])))
        cases = []
        for seed in seeds[:10]:
            try:
                lift_family(residues, k, seed=seed)
            except ValueError as exc:
                cases.append((False, seed, exc))
        checks.append(_fold(f"lifting/family-k{k}", "", cases, "seed {}: {}"))
    return {}, checks


def _suite_uniqueness(cfg: RunConfig, grid: dict) -> tuple[dict, list[Check]]:
    checks = []
    seeds = _seeds(cfg, grid)
    stats = {}
    for k in range(2, grid["k"] + 1):
        space = SuperSpace.standard(2, 2, k)
        base = ProjectorFamily(space, tuple(
            SuperMorphism.diagonal(space, [int(i == j) for j in range(4)])
            for i in range(4)))
        exact = 0
        cases = []
        for seed in seeds:
            u = seeded_unit(space, seeded_rng(seed))
            uinv = invert_unit(u)
            other = ProjectorFamily(space, tuple(
                uinv.compose(m).compose(u) for m in base.members))
            cu = conjugating_unit(base, other)
            for i, (a, b) in enumerate(zip(base.members, other.members)):
                cases.append((cu.compose(a) == b.compose(cu), seed, i, "u . pi != pi~ . u"))
                # raises unless its two summand isomorphisms are mutually inverse
                rep = corner_unit_check(a, b)
                exact += rep.exact_equality
                cases.append((k > 2 or rep.exact_equality, seed, i,
                              "nonzero corner defect at k=2"))
        stats[str(k)] = f"{exact}/{len(seeds) * len(base.members)}"
        checks.append(_fold(f"uniqueness/k{k}", f"{len(seeds)} seeds", cases,
                            "seed {}, member {}: {}"))
    return {"exact_equality_by_k": stats}, checks


def _suite_nilpotency(cfg: RunConfig, grid: dict) -> tuple[dict, list[Check]]:
    checks = []
    seeds = _seeds(cfg, grid)
    for k in range(2, grid["k"] + 1):
        space = SuperSpace.standard(2, 1, k)
        cases = []
        for seed in seeds:
            f = random_hom_trivial(space, seeded_rng(seed))
            cases.append((f.power(k).is_zero() and nilpotency_index(f) <= k, seed, k))
        checks.append(_fold(f"nilpotency/k{k}", f"{len(seeds)} seeds", cases,
                            "seed {}: f is not nilpotent of index <= {}"))
    return {}, checks


def _suite_rigidity(cfg: RunConfig, grid: dict) -> tuple[dict, list[Check]]:
    seeds = _seeds(cfg, grid)
    spec = MotiveSpec(kind="surface", q=1, pg=1, b2=3, rho=2, k=3)
    family = chow_kunneth(spec)
    space = family.ambient
    enforced_cases = []
    violation_cases = []
    for seed in seeds:
        raw = random_hom_trivial(space, seeded_rng(seed))
        report = murre_rigidity(family, raw)
        # a nonzero hom-trivial q can never satisfy the hypotheses
        violation_cases.append((raw.is_zero() or not report.within_hypotheses, seed))
        # enforcing the hypotheses keeps only the eps-free diagonal corners,
        # which a hom-trivial q cannot have: the enforcement collapses to 0
        enforced = SuperMorphism.zero(space, space)
        for member in family.members:
            block = member.compose(raw).compose(member)
            enforced = enforced + block.realization().promoted(spec.k)
        report2 = murre_rigidity(family, enforced)
        enforced_cases.append((report2.within_hypotheses and report2.certified_zero, seed))
    zero = SuperMorphism.zero(space, space)
    rep0 = murre_rigidity(family, zero)
    return {}, [
        _fold("rigidity/enforced-hom-trivial-is-zero", f"{len(seeds)} seeds",
              enforced_cases, "seed {}: the enforced endomorphism is not certified zero"),
        _fold("rigidity/violations-reported", "", violation_cases,
              "seed {}: a nonzero hom-trivial endomorphism is within the hypotheses"),
        Check("rigidity/zero-certified", rep0.within_hypotheses and rep0.certified_zero),
    ]


def _suite_summand_assembly(cfg: RunConfig, grid: dict) -> tuple[dict, list[Check]]:
    seeds = _seeds(cfg, grid)
    cases = []
    for seed in seeds:
        f, g, e = _random_summand_instance(seeded_rng(seed), cfg.k)
        cases.append((e.is_idempotent(), seed))
    return {}, [_fold("summand-assembly/identity-round-trip", f"{len(seeds)} seeds", cases,
                      "seed {}: the assembled e = f . g is not idempotent")]


def _random_summand_instance(rng, k: int):
    space = SuperSpace.standard(2, 1, k)
    maps_in = []
    maps_out = []
    a1 = seeded_unit(space, rng)
    maps_in.append(a1)
    rest = SuperMorphism.zero(space, space)
    # X is a summand of three copies of itself: a1 and two random pieces
    for _ in range(2):
        a = lifting.random_endomorphism(space, rng)
        b = lifting.random_endomorphism(space, rng)
        maps_in.append(a)
        maps_out.append(b)
        rest = rest + b.compose(a)
    b1 = (SuperMorphism.identity(space) - rest).compose(invert_unit(a1))
    maps_out.insert(0, b1)
    return karoubi.assemble_summand(maps_in, maps_out)


class _SurfaceRun:
    """What the surface pipeline found on one spec: ``family_error`` is
    validate's message, "" when the family is valid, and ``wedge`` the
    wedge of d + 1 seeded cycles, None when t > d."""

    __slots__ = ("family", "family_error", "relations", "model", "splitting", "kernel",
                 "wedge")

    def __init__(self, family: ProjectorFamily, family_error: str,
                 relations: motives.SurfaceRelationsReport, model: motives.ChowModel,
                 splitting: motives.MiddleSplit, kernel: karoubi.FiniteDimReport,
                 wedge: dict | None):
        self.family = family
        self.family_error = family_error
        self.relations = relations
        self.model = model
        self.splitting = splitting
        self.kernel = kernel
        self.wedge = wedge


def _run_surface(spec: MotiveSpec, cap: int) -> _SurfaceRun:
    """The surface pipeline on one spec; its one Chow-Kunneth family is read
    by the validation, the projector relations and the middle splitting."""
    family = chow_kunneth(spec)
    try:
        family.validate()
        family_error = ""
    except ValueError as exc:
        family_error = str(exc)
    relations = surface_projector_relations(spec, family)
    model = murre_filtration(spec)
    splitting = split_middle(spec, family)
    kernel = classify(splitting.kernel, cap=cap)
    wedge = None
    if spec.t <= spec.d_param:
        rng = seeded_rng(spec.seed + 1)
        cycles = [[rng.randint(-3, 3) for _ in range(spec.t)]
                  for _ in range(spec.d_param + 1)]
        wedge = albanese_wedge(cycles, cap=cap)
    return _SurfaceRun(family, family_error, relations, model, splitting, kernel, wedge)


def _suite_surface(cfg: RunConfig, grid: dict) -> tuple[dict, list[Check]]:
    checks = []
    rational = MotiveSpec(kind="surface", q=0, pg=0, b2=9, rho=9, k=cfg.k,
                          seed=cfg.seed, t=0)
    irregular = MotiveSpec(kind="surface", q=2, pg=1, b2=10, rho=8, k=cfg.k,
                           seed=cfg.seed, t=2)
    for name, spec in (("all-algebraic", rational), ("irregular", irregular)):
        run = _run_surface(spec, cfg.cap)
        checks.append(Check(f"surface/{name}/family-valid", not run.family_error,
                            run.family_error))
        failed = [c.name for c in run.relations.checks if not c.passed]
        checks.append(Check(f"surface/{name}/projector-relations", not failed,
                            f"failed: {', '.join(failed)}" if failed else ""))
        checks.append(Check(
            f"surface/{name}/graded-dims",
            run.model.graded_dims() == (1, spec.q, spec.t)))
        checks.append(Check(
            f"surface/{name}/filtration-ends-at-zero",
            run.model.filtration_dims()[3] == 0))
        checks.append(Check(
            f"surface/{name}/kernel-classification",
            run.kernel.kind == "even" and run.kernel.kim_plus == spec.d_param
            and run.kernel.dim == spec.d_param))
        if run.wedge is not None:
            checks.append(Check(f"surface/{name}/wedge-vanishing", run.wedge == {}))
    verdict = pg_zero_conclusion(rational)
    checks.append(Check("surface/all-algebraic/kernel-forced-zero", verdict.consistent))
    checks.append(Check("surface/all-algebraic/split-shape",
                        verdict.motive_shape == "1 + 9L + L^2"))
    space = build_realization(irregular)
    f = random_hom_trivial(space, seeded_rng(cfg.seed + 2))
    checks.append(Check("surface/irregular/hom-trivial-acts-zero-on-gradeds",
                        acts_as_zero_on_gradeds(irregular, f)))
    return {"shape": verdict.motive_shape or ""}, checks


def _suite_abelian(cfg: RunConfig, grid: dict) -> tuple[dict, list[Check]]:
    checks = []
    for g in range(1, grid["g"] + 1):
        cases = []
        for n in range(-2, 4):
            report = abelian_multiplication_action(g, n, k=cfg.k)
            cases.append((report.holds, n, report.failures))
        checks.append(_fold(f"abelian/eigenrelations-g{g}", "n in -2..3", cases,
                            "n={}: {[0]}"))
    return {}, checks


#: each suite's runner and its default grid; the grid keys a suite accepts
#: are exactly those of its defaults
SUITES = {
    "symmetrizers": (_suite_symmetrizers, {"n": 5}),
    "supertrace": (_suite_supertrace, {"n": 4, "p": 2, "q": 2}),
    "kimura-dim": (_suite_kimura_dim, {"p": 3, "q": 3, "k": 3}),
    "vanishing": (_suite_vanishing, {"p": 2, "q": 2, "k": 3}),
    "lifting": (_suite_lifting, {"k": 4, "seeds": 25}),
    "uniqueness": (_suite_uniqueness, {"k": 4, "seeds": 25}),
    "nilpotency": (_suite_nilpotency, {"k": 5, "seeds": 25}),
    "rigidity": (_suite_rigidity, {"seeds": 25}),
    "summand-assembly": (_suite_summand_assembly, {"seeds": 25}),
    "surface": (_suite_surface, {}),
    "abelian": (_suite_abelian, {"g": 3}),
}


def cmd_verify(cfg: RunConfig) -> Report:
    """One suite, or with ``all`` every suite with its results keyed by name."""
    suite = cfg.params["suite"]
    results = {}
    checks = []
    for name in sorted(SUITES) if suite == "all" else [suite]:
        runner, defaults = SUITES[name]
        try:
            res, suite_checks = runner(cfg, {**defaults, **cfg.grid})
        except InvariantError as exc:
            res, suite_checks = {}, [Check(f"{name}/invariant", False, str(exc))]
        results[name] = {**res, "suite": name,
                         "passed": all(c.passed for c in suite_checks)}
        checks.extend(suite_checks)
    if suite != "all":
        results = results[suite]
    return Report("verify", _config_dict(cfg), results, checks)


# --- surface pipeline from a model file ---------------------------------------------


_MODEL_KEYS = ("kind", "g", "q", "pg", "b2", "rho", "r", "k", "seed", "t")


def parse_model_file(path: str) -> MotiveSpec:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return parse_model_text(data.decode("utf-8"))
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                             data.count(b"\n", 0, exc.start) + 1) from exc


def parse_model_text(text: str) -> MotiveSpec:
    values: dict = {}
    # lines end at "\n" alone, as the non-UTF-8 error counts them: a form feed
    # or a bare "\r" ends no line, and strip() drops the "\r" of a CRLF
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelFileError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _MODEL_KEYS:
            raise ModelFileError(
                f"unknown key {key!r}; expected one of {_MODEL_KEYS}", lineno)
        if key in values:
            raise ModelFileError(f"repeated key {key!r}", lineno)
        if key == "kind":
            values[key] = value
        else:
            try:
                values[key] = int(value)
            except ValueError:
                raise ModelFileError(f"{key} needs an integer, got {value!r}", lineno)
            bounds = {"k": K_RANGE, "seed": SEED_RANGE}.get(key)
            if bounds is not None and values[key] not in bounds:
                raise ModelFileError(f"{key} must be in {bounds.start}..{bounds.stop - 1}, "
                                     f"got {values[key]}", lineno)
    if "kind" not in values:
        raise ModelFileError("missing required key 'kind'")
    try:
        return MotiveSpec(**values)
    except ValueError as exc:
        raise ModelFileError(str(exc)) from exc


def cmd_surface(cfg: RunConfig) -> Report:
    spec = parse_model_file(cfg.params["path"])
    if spec.kind != "surface":
        raise ModelFileError(f"surface command needs kind = surface, got {spec.kind}")
    for name, formula, dim in (("realization", "2 + 4q + b2", 2 + 4 * spec.q + spec.b2),
                               ("Chow model", "1 + q + t", 1 + spec.q + spec.t)):
        if dim > cfg.cap:
            raise SizeCapError(f"{name} dimension {formula} = {dim} exceeds cap {cfg.cap}")
    run = _run_surface(spec, cfg.cap)
    checks = [Check("surface/family-valid", not run.family_error, run.family_error)]
    for c in run.relations.checks:
        detail = "" if c.passed else _defect_string(c.defect)
        checks.append(Check(f"surface/relation/{c.name}", c.passed, detail))
    checks.append(Check("surface/graded-dims",
                        run.model.graded_dims() == (1, spec.q, spec.t),
                        detail=str(run.model.graded_dims())))
    checks.append(Check(
        "surface/kernel-evenly-finite-dimensional",
        run.kernel.kind == "even" and run.kernel.dim == spec.d_param))
    d = spec.d_param
    if run.wedge is not None:
        checks.append(Check("surface/wedge-vanishing", run.wedge == {},
                            detail=f"{d + 1} cycles in a {spec.t}-dim kernel part"))
    else:
        checks.append(Check(
            "surface/kernel-within-bound", False,
            detail=f"t = {spec.t} exceeds d = {d}: inconsistent with a "
                   f"finite-dimensional motive"))
    results = {
        "spec": {key: getattr(spec, key) for key in _MODEL_KEYS},
        "family_members": len(run.family),
        "filtration_dims": list(run.model.filtration_dims()),
        "graded_dims": list(run.model.graded_dims()),
        "kernel_dimension": run.kernel.dim,
        "line_summands": len(run.splitting.line_summands),
    }
    if spec.pg == 0:
        verdict = pg_zero_conclusion(spec)
        checks.append(Check("surface/kernel-forced-zero", verdict.consistent,
                            detail="; ".join(verdict.notes)))
        results["pg_zero_verdict"] = "consistent" if verdict.consistent else "inconsistent"
        if verdict.motive_shape:
            results["motive_shape"] = verdict.motive_shape
    else:
        results["pg_zero_verdict"] = "not-applicable"
    return Report("surface", _config_dict(cfg), results, checks)


# --- plumbing ---------------------------------------------------------------------


def _config_dict(cfg: RunConfig) -> dict:
    out = {
        "command": cfg.command,
        "out": cfg.out_format,
        "seed": cfg.seed,
        "cap": cfg.cap,
        "k": cfg.k,
    }
    if cfg.grid:
        out["grid"] = dict(sorted(cfg.grid.items()))
    for key, val in cfg.params.items():
        out[key] = list(val.parts) if isinstance(val, Partition) else val
    return out


def _parse_grid(text: str) -> dict:
    grid = {}
    if not text:
        return grid
    for item in text.split(","):
        if not item.strip():
            continue
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ValueError(f"bad grid item {item!r}")
        if key in grid:
            raise ValueError(f"grid key {key!r} is repeated")
        try:
            grid[key] = int(value)
        except ValueError:
            raise ValueError(f"grid value for {key!r} must be an int") from None
        # a seed count of 0 or a negative bound would run nothing and pass
        least = 1 if key == "seeds" else 0
        if grid[key] < least:
            raise ValueError(f"grid value {key}={grid[key]} must be >= {least}")
        # k = 0 stays a grid that selects no checks
        if key == "k" and grid[key] >= K_RANGE.stop:
            raise ValueError(
                f"grid value k={grid[key]} is outside the truncation orders "
                f"{K_RANGE.start}..{K_RANGE.stop - 1}")
    return grid


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise ValueError(f"must be nonnegative, got {value}")
    return value


def _parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text or text == "0":
        return Partition()
    return Partition(int(p) for p in text.split(","))


#: the one table of the command line: the global options, then each
#: command's summary and arguments
COMMAND_LINE = CommandLine(
    "finmot", "exact verification harness for the graded motive model", (
    Arg("--out", choice(("json", "csv", "pretty")), "pretty", "{json,csv,pretty}",
        "report format"),
    Arg("--seed", integer, 0, "SEED", "base seed (u64)"),
    Arg("--cap", integer, TENSOR_DIM_CAP, "CAP",
        "size cap: orbits of a Schur image on its free image, the dimension p + q of a "
        "schur object, the realization and Chow model dimensions of a surface model "
        "file, else the tensor-power dimension"),
    Arg("--k", choice(K_RANGE, integer), 2, "1..6", "truncation order of the scalar ring"),
    Arg("--file", str, None, "FILE", "write the report here"),
), {
    "chars": ("character table of S_n", (
        Arg("n", _nonnegative_int, metavar="n"),)),
    "schur": ("Schur image of a (p|q) object", (
        Arg("--lam", _parse_partition, None, "LAM", "partition, e.g. 2,1", required=True),
        Arg("--p", _nonnegative_int, 0, "P"),
        Arg("--q", _nonnegative_int, 0, "Q"))),
    "verify": ("run an invariant suite", (
        Arg("suite", choice((*sorted(SUITES), "all")), metavar="SUITE",
            help=f"one of {', '.join(sorted(SUITES))}, or all"),
        Arg("--grid", _parse_grid, None, "GRID",
            "bounds, e.g. p=2,q=2,k=3 or k=4,seeds=25 (seeds >= 1, others >= 0; "
            "not with 'all')"))),
    "surface": ("surface pipeline from a model file", (
        Arg("path", str, metavar="path"),)),
})


def parse_args(argv=None) -> RunConfig:
    """The settings of one call, read from ``argv`` by :data:`COMMAND_LINE`;
    a usage error exits 2."""
    command, given, params = COMMAND_LINE.parse(sys.argv[1:] if argv is None else argv)
    try:
        cfg = RunConfig(command=command, out_format=given["out"], seed=given["seed"],
                        cap=given["cap"], k=given["k"], grid=params.pop("grid", None),
                        file=given["file"], params=params)
    except ValueError as exc:
        COMMAND_LINE.fail(None, str(exc))
    if command == "verify":
        # 'all' runs the default grids and reads no grid key
        suite = params["suite"]
        keys = SUITES[suite][1] if suite in SUITES else {}
        unknown = sorted(set(cfg.grid) - set(keys))
        if unknown:
            COMMAND_LINE.fail(command, f"unknown grid key(s) {', '.join(unknown)} for "
                                       f"suite {suite}; it reads {', '.join(keys) or 'none'}")
    return cfg


def main(argv=None) -> int:
    cfg = parse_args(argv)
    runner = {"chars": cmd_chars, "schur": cmd_schur, "verify": cmd_verify,
              "surface": cmd_surface}[cfg.command]
    started = time.monotonic()
    try:
        report = runner(cfg)
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ModelFileError as exc:
        print(f"model file error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started
    if cfg.command == "verify" and not report.checks:
        grid = ",".join(f"{key}={val}" for key, val in sorted(cfg.grid.items()))
        COMMAND_LINE.fail("verify", f"grid {grid or '(default)'} selects no checks for "
                                    f"suite {cfg.params['suite']}")
    rendered = report.render(cfg.out_format)
    if cfg.file:
        try:
            with open(cfg.file, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"cannot write the report to {cfg.file}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
