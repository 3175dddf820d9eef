#!/usr/bin/env python3
"""finmot benchmark: time to verdict on seeded workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every task runs in a fresh interpreter (``perfbench/task.py``) with cold
caches, as a user's ``finmot`` call does; the benchmark is single-process
and runs one task at a time.

``--trace 0`` repeats rounds of the workload's tasks for about ``--seconds``
(at least two rounds; a round starts only if it is due to be half done by
then) and reports the end-to-end metrics:

* ``verdict_s``: per timed unit (a cli invocation, or one summand of the
  library session) the fastest round's time from the unit's start to its
  verdict, summed over the workload's units.  The fastest round, not the
  median, because the slowdowns of a shared host only ever add time;
* ``setup_s``: median over all processes of the time from spawning the
  interpreter until finmot is imported and the task's inputs are ready;
* ``peak_rss_mb``: the highest peak RSS of any task process;
* ``pass_frac``: checks passed / checks attempted.

``--trace 1`` runs one untraced round and two traced rounds at the same
seed, fails if any work count differs between the two traced rounds, and
reports the per-layer metrics named in ``BENCHMARK.json``.

A task fails as a whole (all its checks count as failed) on a nonzero exit,
an exception, a failing check, a check set that differs from
``perfbench/reference.json``, an oracle mismatch, or a payload that changes
between rounds.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TASK_SCRIPT = HERE / "task.py"
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench"
MIN_ROUNDS = 2
MEASURE_LIMIT_S = 120  # stop starting rounds after this much measuring
RUN_DEADLINE_S = 170  # no task process outlives this point of the run


class Runner:
    """Spawns task processes and keeps the correctness tally of one run."""

    def __init__(self, workload: str, tasks: list, reference: dict):
        self.workload = workload
        self.tasks = tasks
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setups: list[float] = []
        self.maxrss_kb = 0
        self.model_paths: dict[str, str] = {}
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        for task in tasks:
            if task.model is not None:
                path = OUT_DIR / f"{workload}-{task.id}.spec"
                path.write_text(task.model, encoding="utf-8")
                self.model_paths[task.id] = str(path.relative_to(ROOT))

    def spawn(self, task, trace_path: Path | None = None) -> dict | None:
        """Run one task process; None if it did not produce a result."""
        body = dataclasses.asdict(task)
        body["argv"] = [self.model_paths.get(task.id, a) if a == "{model}" else a
                        for a in task.argv]
        spec = {"task": body, "trace": trace_path is not None,
                "trace_path": str(trace_path) if trace_path else None}
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(TASK_SCRIPT)],
                                  input=json.dumps(spec), capture_output=True,
                                  text=True, cwd=ROOT,
                                  timeout=max(0.1, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            self._fail(task, None, f"still running {RUN_DEADLINE_S} s into the run")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self._fail(task, None, f"exit {proc.returncode}: {tail[0]}")
            return None
        out = json.loads(lines[-1])
        if trace_path is None:
            self.setups.append(out["ready"] - spawned)
        self.maxrss_kb = max(self.maxrss_kb, out["maxrss_kb"])
        for unit in out["units"]:
            self._check_unit(task, unit)
        return out

    def _expected_checks(self, task, unit_id: str | None) -> int:
        if task.kind == "perturbed":
            n_units = 1 if unit_id else len(task.summands)
            return n_units * len(workloads.perturbed_expected(1, 1))
        return len(self.reference.get(task.metric, [])) + (1 if task.oracle else 0)

    def _fail(self, task, unit_id: str | None, why: str) -> None:
        n = self._expected_checks(task, unit_id) or 1
        self.attempted += n
        self.failed += n
        self.failures.append(f"{unit_id or task.id}: {why}")

    def _check_unit(self, task, unit: dict) -> None:
        uid = unit["id"]
        problems = []
        if unit["error"]:
            problems.append(unit["error"])
        if unit["exit"] != 0:
            problems.append(f"exit code {unit['exit']}")
        if self.digests.setdefault(uid, unit["digest"]) != unit["digest"]:
            problems.append("payload changed between rounds")
        results = unit["results"]
        if task.kind == "perturbed":
            summand = next(s for s in task.summands if s["id"] == uid)
            expected = workloads.perturbed_expected(summand["a"], summand["b"])
            n_checks = len(expected)
            problems += [f"{key}: got {results.get(key)}, closed form {want}"
                         for key, want in expected.items() if results.get(key) != want]
        else:
            checks = unit["checks"]
            n_checks = max(len(checks), self._expected_checks(task, uid))
            problems += [f"check {cid} failed" for cid, ok in checks if not ok]
            if not unit["error"] and unit["exit"] == 0:
                if sorted(cid for cid, _ in checks) != self.reference.get(task.metric):
                    problems.append("check set differs from the reference")
                problems += _oracle_problems(task, results)
        self.attempted += n_checks
        if problems:
            self.failed += n_checks
            self.failures.append(f"{uid}: {'; '.join(problems)}")

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0 and not self.failures,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def _oracle_problems(task, results: dict) -> list[str]:
    oracle = task.oracle
    if "is_zero" in oracle:
        got = (results.get("lam"), results.get("p"), results.get("q"),
               results.get("is_zero"))
        want = (oracle["lam"], oracle["p"], oracle["q"], oracle["is_zero"])
        return [] if got == want else [f"hook rule: got {got}, expected {want}"]
    if "results" in oracle:
        return [f"{key}: got {results.get(key)}, closed form {want}"
                for key, want in oracle["results"].items() if results.get(key) != want]
    return []


def timed_run(runner: Runner, seconds: float) -> dict:
    samples: dict[str, list[float]] = defaultdict(list)
    started = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        for task in runner.tasks:
            out = runner.spawn(task)
            for unit in (out or {}).get("units", []):
                samples[unit["id"]].append(unit["seconds"])
        rounds += 1
        now = time.monotonic()
        # start another round only if it is due to be half done by the end
        projected = now - started + (now - round_start) / 2
        if rounds >= MIN_ROUNDS and (projected > seconds or projected > MEASURE_LIMIT_S):
            break
    verdict = sum(min(v) for v in samples.values())
    metrics = {
        "verdict_s": verdict,
        "setup_s": statistics.median(runner.setups) if runner.setups else 0.0,
        "peak_rss_mb": runner.maxrss_kb / 1024,
        "pass_frac": (runner.attempted - runner.failed) / max(runner.attempted, 1),
    }
    print(f"{runner.workload}: {rounds} rounds, {len(samples)} timed units",
          file=sys.stderr)
    return metrics


def _traced_round(runner: Runner, pass_no: int) -> tuple[dict, float]:
    """One traced round: every per-layer figure it yields, and its summed unit time."""
    trace_dir = OUT_DIR / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    counts: dict = defaultdict(int)
    peaks: dict = defaultdict(int)
    metrics: dict = defaultdict(float)
    verdict = 0.0
    for task in runner.tasks:
        path = trace_dir / f"{runner.workload}-pass{pass_no}-{task.id.replace('#', '-')}.json"
        out = runner.spawn(task, trace_path=path)
        if out is None:
            continue
        verdict += sum(u["seconds"] for u in out["units"])
        trace = out["trace"]
        for name, s in trace["spans"].items():
            spans[name]["calls"] += s["calls"]
            spans[name]["self_s"] += s["self_s"]
        for name, c in trace["counts"].items():
            counts[name] += c
        for name, p in trace["peaks"].items():
            peaks[name] = max(peaks[name], p)
        if task.kind == "cli":
            metrics[f"cli.{task.metric}.s"] += trace["spans"]["cli.main"]["total_s"]
    for name, s in spans.items():
        metrics[f"{name}.calls"] = s["calls"]
        metrics[f"{name}.self_s"] = s["self_s"]
    metrics.update(counts)
    metrics.update(peaks)
    muladds = counts["supercat.compose.muladds"]
    metrics["supercat.compose.ns_per_muladd"] = (
        spans["supercat.compose"]["self_s"] / muladds * 1e9 if muladds else 0.0)
    calls = spans["karoubi.schur_apply"]["calls"]
    metrics["karoubi.schur_apply.repeat_ratio"] = (
        1 - counts["karoubi.schur_apply.distinct"] / calls if calls else 0.0)
    distinct_ops = counts["karoubi.operator_builds.distinct"]
    metrics["karoubi.operator_rebuild_ratio"] = (
        counts["karoubi.operator_builds"] / distinct_ops if distinct_ops else 0.0)
    metrics["cli.self_s"] = spans["cli.main"]["self_s"]
    return dict(metrics), verdict


def traced_run(runner: Runner) -> dict:
    untraced = 0.0
    for task in runner.tasks:
        out = runner.spawn(task)
        untraced += sum(u["seconds"] for u in (out or {}).get("units", []))
    first, verdict_1 = _traced_round(runner, 1)
    second, verdict_2 = _traced_round(runner, 2)
    # everything but times is an exact work count (or a ratio of counts)
    exact = [name for name in first if not name.endswith(("_s", ".s", ".ns_per_muladd"))]
    for name in exact:
        if first[name] != second.get(name):
            runner.failures.append(
                f"count {name} differs between traced rounds: {first[name]} != {second[name]}")
    metrics = {name: (first[name] if name in exact
                      else statistics.median([first[name], second.get(name, 0.0)]))
               for name in first}
    metrics["trace_overhead_s"] = statistics.median([verdict_1, verdict_2]) - untraced
    return metrics


def _declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def _emit(measured: dict, kind: str) -> dict:
    out = {}
    for decl in _declared(kind):
        name = decl["name"]
        # a layer the workload never enters reports zero
        value = measured.get(name, 0)
        out[name] = {"value": value, "unit": decl["unit"]}
    return out


def record_reference(seed: int) -> int:
    """Write the (check id) reference of every cli task at this commit."""
    reference = {}
    for workload in workloads.WORKLOADS:
        runner = Runner(workload, workloads.generate(workload, seed), {})
        for task in runner.tasks:
            if task.kind != "cli" or task.metric in reference:
                continue
            out = runner.spawn(task)
            unit = out["units"][0]
            if unit["exit"] != 0 or not all(ok for _, ok in unit["checks"]):
                print(f"{task.id} does not pass; reference not written", file=sys.stderr)
                return 1
            reference[task.metric] = sorted(cid for cid, _ in unit["checks"])
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference.json and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "finmot" / "cli.py").is_file():
        print(f"finmot sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    runner = Runner(args.workload, workloads.generate(args.workload, args.seed), reference)
    if args.trace:
        metrics = _emit(traced_run(runner), "per_layer")
    else:
        metrics = _emit(timed_run(runner, args.seconds), "end_to_end")
    for line in runner.failures:
        print(f"FAIL {line}", file=sys.stderr)
    result = runner.result(metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
