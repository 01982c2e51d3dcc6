"""The workload process: runs one workload's CLI commands in-process.

Started by `run.py` as `python3 bench/pipeline.py <spec.json>`, one process per
workload, so that its peak RSS is the workload's own. It runs every command
through `bastext.cli.main` with stdout and stderr captured, times each call,
and appends one JSON line per command to `<work>/ops.jsonl` as it goes, so a
run cut short by the wall-clock cap still shows what was attempted. It writes
`<work>/result.json` at the end.

Timed mode: rounds of setup (ingest + split, `SETUP_REPS` times), train, then
`EVAL_REPS` times evaluate and part of a block of queries, until `seconds`
have passed and at least `MIN_QUERIES` queries have run. Traced mode: one
round in which each command runs twice, untraced and with span tracing in
alternating order, then each command kind once more under tracemalloc.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

from workloads import EVAL_REPS, METHODS, MIN_QUERIES, SETUP_REPS, WORKLOADS


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs and records the CLI commands of one workload against its run directory."""

    def __init__(self, cli, work: Path, workload, queries):
        self.cli = cli
        self.workload = workload
        self.queries = queries
        self.raw = work / "raw"
        self.out = work / "run"
        self.cold = ["--cold"] if workload.cold else []
        self.ops_file = (work / "ops.jsonl").open("a", encoding="utf-8")
        self.ops: list[dict] = []
        self.setup_s: list[float] = []
        self.positives = self.num_products = None

    def command(self, label: str, argv: list[str], phase: str) -> dict:
        """Run one CLI command, check its own outputs and record it as an operation."""
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        # Each CLI command normally runs in a fresh process. Collecting the
        # garbage earlier commands left keeps their full collections (about
        # 20 ms on the planted corpus) out of this command's time.
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
            error = str(exc.code)
        except Exception:  # a crash of the program is a failed operation
            rc = -1
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        op = {"label": label, "phase": phase, "wall": wall, "rc": rc, "error": error}
        if rc == 0:
            try:
                self._check(op, argv, stdout.getvalue())
            except (OSError, ValueError, IndexError, KeyError) as exc:
                op["error"] = f"unreadable output: {exc!r}"
        else:
            error = error or stderr.getvalue()[-2000:]
            op["error"] = error
        op["ok"] = rc == 0 and op["error"] is None
        self.ops.append(op)
        self.ops_file.write(json.dumps(op) + "\n")
        self.ops_file.flush()
        return op

    def _check(self, op: dict, argv: list[str], stdout: str) -> None:
        label = op["label"]
        if label == "train":
            lines = (self.out / "models" / "train_log.txt").read_text().splitlines()
            losses = [float(line.split("\t")[1].split()[1]) for line in lines]
            op["epochs"] = len(losses)
            op["model_sha256"] = sha256(self.out / "models" / "model.bin")
            if not losses or not all(math.isfinite(x) for x in losses):
                op["error"] = f"non-finite or missing epoch loss: {losses}"
        elif label.startswith("evaluate:"):
            report = self.out / "reports" / f"{label.partition(':')[2]}.json"
            op["report_sha256"] = sha256(report)
            op["cases"] = json.loads(report.read_text())["num_test_cases"]
        elif label in ("similar", "alsobuy", "search", "next"):
            rows = [line.split("\t") for line in stdout.splitlines()]
            excluded = set() if label == "search" else set(argv[1:argv.index("--out")])
            if len(rows) != 10 or any(len(r) != 3 for r in rows):
                op["error"] = f"expected 10 result rows, got {stdout[:200]!r}"
            elif excluded & {r[0] for r in rows}:
                op["error"] = "query product returned among its own results"

    def setup(self, phase: str, run=None) -> None:
        run = run or self.command
        shutil.rmtree(self.out, ignore_errors=True)
        ingest = run("ingest", ["ingest", "--format", "canonical",
                                str(self.raw / "catalog.tsv"), str(self.raw / "baskets.txt"),
                                "--out", str(self.out)], phase)
        split = run("split", ["split", "--out", str(self.out), *self.cold,
                              *self.workload.split_args], phase)
        self.setup_s.append(ingest["wall"] + split["wall"])
        if self.positives is None:
            self.positives, self.num_products = train_positives(self.out, self.workload.cold)

    def round(self, phase: str, methods, queries, setups: int = 1, evals: int = 1,
              run=None) -> None:
        """Setup, train, then `evals` times: evaluate every method and a share of the queries.

        `run(label, argv, phase)` runs each command; by default `command`.
        """
        run = run or self.command
        for _ in range(setups):
            self.setup(phase, run)
        out = str(self.out)
        run("train", ["train", "--out", out, *self.cold, *self.workload.train_args], phase)
        share = -(-len(queries) // evals)
        for i in range(evals):
            for m in methods:
                run(f"evaluate:{m}", ["evaluate", "--out", out, "--method", m, *self.cold],
                    phase)
            for q in queries[i * share:(i + 1) * share]:
                run(q[0], [*q, "--out", out], phase)


def train_positives(out: Path, cold: bool) -> tuple[int, int]:
    """Leave-one-out positives per epoch (the summed size of the training baskets) and M."""
    from bastext import corpus

    catalog, baskets, _ = corpus.import_dataset(
        "canonical", [out / "corpus" / "catalog.tsv", out / "corpus" / "baskets.txt"])
    split = corpus.load_split_manifest(
        out / "splits" / f"{'cold' if cold else 'warm'}.manifest", catalog, baskets)
    return sum(len(b) for b in split.train), len(catalog)


def run_timed(runner: Runner, spec: dict, result: dict) -> None:
    """Rounds until `seconds` have passed and MIN_QUERIES queries have run.

    Each round repeats the whole pipeline, so the samples of every metric are
    spread over the run rather than bunched at one end of it.
    """
    queries = runner.queries
    per_round = runner.workload.queries_per_round
    start = time.perf_counter()
    rounds = 0
    while True:
        begin = time.perf_counter()
        block = [queries[(rounds * per_round + i) % len(queries)] for i in range(per_round)]
        runner.round(f"round{rounds}", METHODS, block, SETUP_REPS, EVAL_REPS)
        rounds += 1
        now = time.perf_counter()
        if time.time() + (now - begin) > spec["deadline"]:
            break
        if now - start >= spec["seconds"] and rounds * per_round >= MIN_QUERIES:
            break
    result["rounds"] = rounds


def run_traced(runner: Runner, spec: dict, result: dict, bastext) -> None:
    """Per-layer metrics: every command of one round runs untraced and traced.

    Running the pair back to back puts both halves in the same phase of the
    machine's speed, so their difference is the tracing overhead.
    """
    from tracer import Tracer, layer_metrics

    w = runner.workload
    command = runner.command
    tracer = Tracer()
    commands: list[dict] = []
    untraced: list[float] = []

    def traced(label, argv):
        tracer.command = len(commands)
        commands.append({"label": label})
        tracer.install(bastext)
        try:
            op = command(label, argv, "traced")
        finally:
            tracer.uninstall()
        commands[-1].update(wall=op["wall"], epochs=op.get("epochs", 0))
        return op

    def paired(label, argv, phase):
        # The second run of a pair is faster (warm heap and file cache), so
        # the order alternates to cancel that out of the overhead.
        if len(commands) % 2:
            op = traced(label, argv)
            untraced.append(command(label, argv, "untraced")["wall"])
        else:
            untraced.append(command(label, argv, "untraced")["wall"])
            op = traced(label, argv)
        return op

    runner.round("traced", METHODS + w.traced_methods, runner.queries[:w.queries_per_round],
                 run=paired)
    layers = layer_metrics(tracer.spans, commands, runner.num_products)
    layers["trace.overhead_share"] = sum(c["wall"] for c in commands) / sum(untraced) - 1.0

    # Each command kind once more under tracemalloc, which slows Python-heavy
    # code about threefold, so these runs give memory peaks and no times.
    peaks: dict[str, float] = {}

    def measured(label, argv, phase):
        tracemalloc.reset_peak()
        op = command(label, argv, phase)
        kind = label.partition(":")[0]
        peaks[kind] = max(peaks.get(kind, 0.0), tracemalloc.get_traced_memory()[1] / 1e6)
        return op

    tracemalloc.start()
    try:
        runner.round("tracemalloc", METHODS, list({q[0]: q for q in runner.queries}.values()),
                     run=measured)
    finally:
        tracemalloc.stop()
    for kind in ("ingest", "split", "train", "evaluate", "similar", "alsobuy", "search",
                 "next"):
        layers[f"{kind}.peak_traced_mb"] = peaks.get(kind, 0.0)
    result["layers"] = layers
    Path(spec["spans_path"]).write_text(json.dumps({"commands": commands,
                                                    "spans": tracer.spans}))


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import bastext
    from bastext import cli

    work = Path(spec["work"])
    runner = Runner(cli, work, WORKLOADS[spec["workload"]], spec["queries"])
    result: dict = {}
    try:
        if spec["trace"]:
            run_traced(runner, spec, result, bastext)
        else:
            run_timed(runner, spec, result)
    finally:
        runner.ops_file.close()
    result["ops"] = runner.ops
    result["setup_s"] = runner.setup_s
    result["positives"] = runner.positives
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
