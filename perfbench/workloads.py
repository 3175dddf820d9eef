"""Seeded inputs for the three workloads, and the closed forms that check them.

A workload is a list of tasks.  A ``cli`` task is one ``finmot`` invocation
(argv, plus a model file for ``surface``); the ``perturbed`` task is one
library session that runs every generated summand.  The workload seed only
picks values: the shape of each input (grids, partition sizes, ambient
dimensions, model Betti numbers) is fixed, so the work a run does barely
depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("schur-identity", "schur-perturbed", "calculus")

# Schur queries (partition, p, q): n <= 5, (p+q)**n <= 4096, about 1 s each.
# The seed picks the orientation (lam, p, q) or (lam', q, p); both have the
# same cost class and, by the hook rule, the same zero verdict.
SCHUR_QUERIES = (
    ((2, 1, 1, 1), 1, 3),
    ((3, 1), 2, 6),
    ((1, 1, 1, 1, 1), 4, 0),
)

# the surface model: b2 - rho = 4 is the largest transcendental part allowed
SURFACE_MODEL = {"q": 2, "b2": 12, "rho": 8, "k": 5}

PERTURBED_KS = (2, 3, 4)
PERTURBED_RANKS = ((2, 1), (1, 2))
PERTURBED_SEEDS = 5
PERTURBED_AMBIENT = (3, 2)


@dataclass
class Task:
    """One unit of work run in a fresh interpreter."""

    id: str
    kind: str  # "cli" or "perturbed"
    argv: list = field(default_factory=list)
    model: str | None = None  # model file text, written before the task starts
    oracle: dict = field(default_factory=dict)
    summands: list = field(default_factory=list)

    @property
    def metric(self) -> str:
        """The per-layer ``cli.<command>-<suite>`` key of a cli task."""
        return self.id.split("#", 1)[0]


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _conjugate(parts: tuple) -> tuple:
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0])) if parts else ()


def hook_is_zero(parts, p: int, q: int) -> bool:
    """Berele-Regev: S_lam vanishes on a (p|q) object iff lam_{p+1} > q."""
    return len(parts) > p and parts[p] > q


def generate(workload: str, seed: int) -> list[Task]:
    if seed < 0:
        raise ValueError("the workload seed must be non-negative")
    rng = random.Random(f"{workload}:{seed}")
    return {"schur-identity": _schur_identity,
            "schur-perturbed": _schur_perturbed,
            "calculus": _calculus}[workload](rng)


def _cli(task_id: str, *argv, **extra) -> Task:
    return Task(id=task_id, kind="cli", argv=["--out", "json", *argv], **extra)


def _schur_identity(rng: random.Random) -> list[Task]:
    tasks = [
        _cli("verify-vanishing", "--seed", str(_draw_seed(rng)), "verify", "vanishing"),
        _cli("verify-kimura-dim", "--seed", str(_draw_seed(rng)), "verify", "kimura-dim"),
    ]
    for i, (parts, p, q) in enumerate(SCHUR_QUERIES):
        if sum(parts) > 5 or (p + q) ** sum(parts) > 4096 or min(p, q) < 0:
            raise ValueError(f"schur query {parts} on ({p}|{q}) is outside the valid range")
        if rng.random() < 0.5:
            parts, p, q = _conjugate(parts), q, p
        lam = ",".join(map(str, parts))
        tasks.append(_cli(
            f"schur#{i}", "--seed", str(_draw_seed(rng)), "--k", "3",
            "schur", "--lam", lam, "--p", str(p), "--q", str(q),
            oracle={"lam": list(parts), "p": p, "q": q,
                    "is_zero": hook_is_zero(parts, p, q)}))
    return tasks


def _calculus(rng: random.Random) -> list[Task]:
    m = SURFACE_MODEL
    model = {"kind": "surface", "q": m["q"], "pg": rng.randint(1, 3), "b2": m["b2"],
             "rho": m["rho"], "t": rng.randint(0, 2), "k": m["k"],
             "seed": _draw_seed(rng)}
    text = "".join(f"{key} = {val}\n" for key, val in model.items())
    d = model["b2"] - model["rho"]
    if not 0 <= model["t"] <= d <= 4:
        raise ValueError("the surface model needs 0 <= t <= b2 - rho <= 4")
    t, q = model["t"], model["q"]
    expected = {"graded_dims": [1, q, t], "filtration_dims": [1 + q + t, q + t, t, 0],
                "kernel_dimension": d, "line_summands": model["rho"],
                "family_members": 5}

    def seed() -> str:
        return str(_draw_seed(rng))

    return [
        _cli("verify-surface", "--seed", seed(), "--k", "6", "verify", "surface"),
        _cli("surface", "--seed", seed(), "surface", "{model}", model=text,
             oracle={"results": expected}),
        _cli("verify-uniqueness", "--seed", seed(), "verify", "uniqueness", "--grid", "k=6"),
        _cli("verify-lifting", "--seed", seed(), "verify", "lifting", "--grid", "k=6"),
        _cli("verify-nilpotency", "--seed", seed(), "verify", "nilpotency", "--grid", "k=6"),
        _cli("verify-summand-assembly", "--seed", seed(), "--k", "6",
             "verify", "summand-assembly"),
        _cli("verify-rigidity", "--seed", seed(), "--k", "6", "verify", "rigidity"),
        _cli("verify-symmetrizers", "--seed", seed(), "verify", "symmetrizers"),
        _cli("verify-supertrace", "--seed", seed(), "verify", "supertrace"),
    ]


def _dense_idempotent(n: int, rank: int, rng: random.Random) -> list[list[int]]:
    """An integer idempotent n x n matrix of the given rank with no zero entry.

    Rank 1 is v.w^T with w.v = 1; rank n-1 is the identity minus such a
    matrix; rank n is the identity (the only full-rank idempotent).
    """
    if rank == n:
        return [[int(i == j) for j in range(n)] for i in range(n)]
    if rank not in (1, n - 1):
        raise ValueError(f"no generator for rank {rank} in dimension {n}")
    values = (-2, -1, 1, 2)
    while True:
        v = [rng.choice(values) for _ in range(n)]
        w = [rng.choice(values) for _ in range(n)]
        if sum(a * b for a, b in zip(v, w)) != 1:
            continue
        outer = [[v[i] * w[j] for j in range(n)] for i in range(n)]
        if rank == 1:
            return outer
        if all(v[i] * w[i] != 1 for i in range(n)):
            return [[int(i == j) - outer[i][j] for j in range(n)] for i in range(n)]


def _schur_perturbed(rng: random.Random) -> list[Task]:
    p, q = PERTURBED_AMBIENT
    summands = []
    for k in PERTURBED_KS:
        for a, b in PERTURBED_RANKS:
            for i in range(PERTURBED_SEEDS):
                summands.append({
                    "id": f"k{k}-r{a}{b}-{i}", "k": k, "a": a, "b": b,
                    "even": _dense_idempotent(p, a, rng),
                    "odd": _dense_idempotent(q, b, rng),
                    "unit_seed": _draw_seed(rng),
                })
    return [Task(id="perturbed", kind="perturbed", summands=summands)]


def perturbed_expected(a: int, b: int) -> dict:
    """Thresholds of a rank (a|b) summand and the super dimension (-1)^b of
    s_wedge^{a+b}, its only surviving term being wedge^a(plus) (x) sym^b(minus)."""
    return {"wedge_plus_zero": True, "sym_minus_zero": True,
            "s_wedge_top_zero": True, "s_wedge_zero": False,
            "s_wedge_dimension": (-1) ** b}
