"""Pipeline benchmark for bastext: ingest -> split -> train -> evaluate -> query.

    python3 bench/run.py                                   # every workload, timed
    python3 bench/run.py --workload planted-warm-mov --seed 3 --seconds 20
    python3 bench/run.py --workload wide-warm-mov --trace 1   # per-layer metrics

Each workload runs in its own process (`pipeline.py`) under a wall-clock cap.
This process generates the workload's inputs from `--seed`, checks the
outputs (every command exited 0, finite losses, reports equal to a
brute-force ranking, byte-identical artifacts for equal seeds) and prints one
line per metric with its unit and sample count. The last line of stdout is a
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics
with `--trace 1`. The exit code is 1 when any check fails. Records of each run,
with the environment they ran in, go to `bench/out/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from verify import check_reports
from workloads import METHODS, WORKLOADS, draw_queries, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RUN_CAP_S = 170  # the workload process is killed after this many seconds
ROUND_DEADLINE_S = 125  # no timed round starts that would end after this
RECALL_MARGIN = 5.0  # bastext Recall@20 over random ranking, where guarded


def source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_controlled": False,  # threadpoolctl is not installed
        "machine": platform.machine(),
        "seed": seed,
    }


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q):
    return float(np.percentile(values, q)) if values else None


def sustained_rate(work_and_walls: list[tuple[float, float]]) -> float | None:
    """The lower quartile of the commands' rates (work / wall time).

    The host's speed jumps up in bursts of a few seconds over a slower
    baseline. The lower quartile of the rates tracks that baseline, where the
    median flips between the two speeds when bursts fill about half a run.
    """
    if not work_and_walls:
        return None
    return float(np.percentile([work / wall for work, wall in work_and_walls], 25))


def end_to_end(result: dict) -> dict[str, tuple[float | None, int]]:
    """Metric name -> (value, sample count) from the timed workload's operations."""

    ops = [op for op in result.get("ops", []) if op["phase"].startswith("round") and op["ok"]]
    trains = [(result["positives"] * op["epochs"], op["wall"])
              for op in ops if op["label"] == "train"]
    queries = [op["wall"] * 1e3 for op in ops
               if op["label"] in ("similar", "alsobuy", "search", "next")]
    metrics = {
        "setup_s": (median(result.get("setup_s", [])), len(result.get("setup_s", []))),
        "train_pos_per_s": (sustained_rate(trains), len(trains)),
        "query_p50_ms": (percentile(queries, 50), len(queries)),
        "query_p90_ms": (percentile(queries, 90), len(queries)),
        "peak_rss_mb": (result.get("peak_rss_mb"), 1),
    }
    for m in METHODS:
        evals = [(op["cases"], op["wall"]) for op in ops if op["label"] == f"evaluate:{m}"]
        metrics[f"eval_{m}_cases_per_s"] = (sustained_rate(evals), len(evals))
    return metrics


class StateFile:
    """Artifact digests and exact counters of earlier runs, to compare equal-seed runs."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.is_file() else {}

    def compare(self, key: str, section: str, values: dict) -> list[str]:
        seen = self.data.setdefault(key, {}).setdefault(section, {})
        errors = [f"{section} {name}: {seen[name]} in an earlier run, {value} now"
                  for name, value in values.items() if name in seen and seen[name] != value]
        seen.update({k: v for k, v in values.items() if k not in seen})
        return errors

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def determinism(ops: list[dict]) -> tuple[dict, list[str]]:
    """Digests of model.bin and each report, which must agree across the run's rounds."""
    digests: dict[str, set] = {}
    for op in ops:
        for field, name in (("model_sha256", "model.bin"), ("report_sha256", op["label"])):
            if field in op:
                digests.setdefault(name, set()).add(op[field])
    errors = [f"{name} differs between rounds of one run: {sorted(d)}"
              for name, d in digests.items() if len(d) > 1]
    return {name: sorted(d)[0] for name, d in digests.items()}, errors


def run_workload(workload, seed: int, seconds: int, trace: bool, env: dict,
                 state: StateFile) -> dict:
    started = time.time()
    work = OUT / "work" / f"{workload.name}-seed{seed}"
    results = OUT / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    catalog = write_inputs(workload, seed, work / "raw")
    spec = {"src": str(SRC), "work": str(work), "workload": workload.name, "seed": seed,
            "seconds": seconds, "trace": trace, "queries": draw_queries(catalog, seed),
            "deadline": started + ROUND_DEADLINE_S,
            "spans_path": str(results / f"{tag}-spans.json")}
    (work / "spec.json").write_text(json.dumps(spec))

    process_errors: list[str] = []
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "pipeline.py"),
                               str(work / "spec.json")], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(10.0, started + RUN_CAP_S - time.time()))
        if proc.returncode != 0:
            process_errors.append(
                f"workload process exited {proc.returncode}: {proc.stderr[-3000:]}")
    except subprocess.TimeoutExpired:
        process_errors.append(f"workload process killed after the {RUN_CAP_S} s cap")

    result_path = work / "result.json"
    if result_path.is_file():
        result = json.loads(result_path.read_text())
    else:
        ops_path = work / "ops.jsonl"
        ops = [json.loads(line) for line in ops_path.read_text().splitlines()] \
            if ops_path.is_file() else []
        # the operation running when the process died counts as attempted and failed
        result = {"ops": ops + [{"label": "unfinished", "phase": "", "ok": False}]}
    ops = result["ops"]
    errors = [f"{op['label']} ({op['phase']}) failed: {op.get('error')}"
               for op in ops if not op["ok"] and op["label"] != "unfinished"]
    failed_ops = sum(not op["ok"] for op in ops)

    # Each check below counts as one more operation attempted, and failed if it trips.
    checks: list[list[str]] = [process_errors]
    facts: dict = {}
    digests, digest_errors = determinism(ops)
    checks.append(digest_errors)
    if result_path.is_file():
        try:
            report_errors, facts = check_reports(work / "run", workload.cold, METHODS)
            recall, floor = facts["bastext.recall20"], RECALL_MARGIN * facts["random.recall20"]
        except Exception:  # unreadable artifacts fail the check instead of the benchmark
            report_errors, recall, floor = [traceback.format_exc(limit=3)], 0.0, 1.0
        checks.append(report_errors)
        facts["bastext.recall20_beats_5x_random"] = recall >= floor
        if workload.recall_guard:
            checks.append([] if recall >= floor else [
                f"bastext Recall@20 {recall:.4f} below {RECALL_MARGIN}x random ({floor:.4f})"])
        key = f"{workload.name}|seed={seed}|workload={workload.fingerprint()}|" \
              f"src={env['src_sha256']}"
        checks.append(state.compare(key, "digests", digests))
        if trace:
            layers = result["layers"]
            counters = {k: v for k, v in layers.items()
                        if k.endswith((".calls", ".rows", ".slots", "_mb_max", "_mb_sum"))}
            checks.append(state.compare(key, "counters", counters))
            coverage = layers["train.self_coverage"]
            checks.append([] if abs(coverage - 1.0) <= 0.1 else [
                f"train-layer metrics explain {coverage:.3f} of the train wall time"])
        state.save()
    for found in checks:
        errors += found

    record = {"workload": workload.name, "seed": seed,
              "seconds": seconds, "trace": trace, "environment": env,
              "attempted": len(ops) + len(checks),
              "failed": failed_ops + sum(bool(found) for found in checks), "errors": errors,
              "rounds": result.get("rounds"), "digests": digests, "facts": facts,
              "wall_s": time.time() - started}
    if result_path.is_file():
        if trace:
            record["layers"] = {k: (v, 1) for k, v in result["layers"].items()}
        else:
            record["metrics"] = end_to_end(result)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    (results / f"{tag}-ops.json").write_text(json.dumps(ops))
    shutil.rmtree(work, ignore_errors=True)
    return record


def contract_metrics(record: dict, declared: list[dict]) -> dict:
    values = record.get("layers" if record["trace"] else "metrics", {})
    return {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
            for m in declared if values.get(m["name"], (None,))[0] is not None}


def print_record(record: dict, declared: list[dict]) -> None:
    status = "correct" if not record["errors"] else "FAILED"
    print(f"== {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"rounds {record['rounds']}  {record['attempted']} ops, "
          f"{record['failed']} failed  {status}  ({record['wall_s']:.1f} s)")
    values = record.get("layers" if record["trace"] else "metrics", {})
    for m in declared:
        value, samples = values.get(m["name"], (None, 0))
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {m['name']:<40} {shown:>14} {m['unit']:<6} n={samples}")
    for name, value in record["facts"].items():
        print(f"  {name:<40} {value}")
    for error in record["errors"]:
        print(f"  ERROR {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bastext" / "__init__.py").is_file():
        print(f"error: no bastext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    state = StateFile(OUT / "state.json")
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), env, state)
               for n in names]
    for record in records:
        print_record(record, declared)
    if args.workload:
        metrics = contract_metrics(records[0], declared)
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in contract_metrics(r, declared).items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
