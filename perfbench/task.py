"""Run one benchmark task in this (fresh) interpreter.

Reads a JSON task description on stdin, imports finmot from the checkout's
``src`` directory, runs the task and prints one JSON line: the monotonic
time at which its inputs were ready, per-unit timings, check verdicts and a
digest of each unit's payload, the process's peak RSS and, when traced,
the span summary.  A ``cli`` task calls ``finmot.cli.main`` with the
generated argv, exactly as the ``finmot`` console script does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(cli, task: dict) -> list[dict]:
    out = io.StringIO()
    error = None
    code = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(task["argv"])
    except SystemExit as exc:  # argparse usage errors exit 2
        code = exc.code
    except Exception as exc:  # any crash fails the task, it is not a skip
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    payload = out.getvalue()
    unit = {"id": task["id"], "seconds": seconds, "exit": code, "error": error,
            "digest": _digest(payload), "checks": [], "results": {}}
    if code == 0 and error is None:
        report = json.loads(payload)
        unit["checks"] = [[c["id"], c["passed"]] for c in report["checks"]]
        unit["results"] = report["results"]
    return [unit]


def build_summands(task: dict) -> list:
    """The rank (a|b) summands u^-1 . E . u of the standard (3|2) ambient."""
    from finmot import karoubi, lifting, supercat

    out = []
    for s in task["summands"]:
        even, odd = s["even"], s["odd"]
        p = len(even)
        space = supercat.SuperSpace.standard(p, len(odd), s["k"])
        entries = {(i, j): v for i, row in enumerate(even) for j, v in enumerate(row)}
        entries.update({(p + i, p + j): v
                        for i, row in enumerate(odd) for j, v in enumerate(row)})
        e = supercat.SuperMorphism.from_entries(space, space, entries)
        u = lifting.seeded_unit(space, lifting.seeded_rng(s["unit_seed"]))
        idem = supercat.invert_unit(u).compose(e).compose(u)
        out.append((s, karoubi.KaroubiObject(space, idem)))
    return out


def run_perturbed(summands: list) -> list[dict]:
    from finmot import karoubi

    units = []
    for s, x in summands:
        a, b = s["a"], s["b"]
        started = time.perf_counter()
        error = None
        results = {}
        try:
            split = karoubi.split_parity(x)
            plus, minus = split
            top = karoubi.s_wedge(a + b, x, split)
            results = {
                "wedge_plus_zero": karoubi.wedge(a + 1, plus).is_zero(),
                "sym_minus_zero": karoubi.sym(b + 1, minus).is_zero(),
                "s_wedge_top_zero": karoubi.s_wedge(a + b + 1, x, split).is_zero(),
                "s_wedge_zero": top.is_zero(),
                "s_wedge_dimension": top.dimension(),
            }
        except Exception as exc:  # a crash fails this summand's checks
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        units.append({"id": s["id"], "seconds": seconds, "exit": 0, "error": error,
                      "digest": _digest(json.dumps(results, sort_keys=True)),
                      "checks": [], "results": results})
    return units


def main() -> int:
    spec = json.load(sys.stdin)
    task = spec["task"]
    from finmot import cli

    summands = build_summands(task) if task["kind"] == "perturbed" else None
    ready = time.monotonic()
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    units = run_cli(cli, task) if summands is None else run_perturbed(summands)
    result = {"ready": ready, "units": units,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(spec["trace_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
