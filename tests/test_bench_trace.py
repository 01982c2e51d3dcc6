"""Smoke test of the benchmark's traced mode on a small in-process pipeline.

A traced benchmark run (`bench/run.py --trace 1`) fails when a command raises
under the tracer (its work counters call `len()` on positional arguments of
the functions they wrap), when `layer_metrics` cannot read the spans (it needs
two `encode_batch` and two `backward_batch` calls inside every `_loss_arrays`)
or when the train-layer metrics explain too little of the train wall time.
This test runs the bench's own tracer and `layer_metrics` over ingest → split →
train → evaluate → two queries, and checks the first two. Coverage is not gated:
on a corpus this small, fixed costs outside the traced layers dominate. It then
runs the bench's own report check (`verify.check_reports`) and positive count
(`pipeline.train_positives`) on the run directory, so a change to the basket or
test-case interface that the bench reads fails here too.
"""

import importlib.util
import inspect
import json
import math
import sys
import time
from pathlib import Path

import pytest

import bastext
from bastext import cli, corpus
from bastext.baselines import PopModel
from bastext.synthetic import make_planted_corpus, make_random_corpus

ROOT = Path(__file__).resolve().parents[1]
# Per-layer metrics that the workload process adds beside `layer_metrics`'s.
NOT_FROM_SPANS = ("trace.overhead_share", ".peak_traced_mb")
# The wrapped functions' arguments that the tracer's work counters read, by position.
COUNTED = {"token_ids", "cand_ids", "ctx_flat", "basket_rows", "num_products"}
# The methods the bench evaluates in every round, and `verify.check_reports` rebuilds.
CHECKED = ("bastext", "pop", "itemknn")


def _bench_module(name):
    """`bench/<name>.py`, loaded under the name `bench_<name>` with `bench/` importable."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return module


def _bench_tracer():
    return _bench_module("tracer")


def _positional(fn):
    return [p for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def test_counters_read_the_arguments_they_name():
    """A counter that reads the wrong argument counts the wrong work without raising, and
    a counter without `*args` raises on a call with another number of arguments."""
    seen = set()
    for name, counter in _bench_tracer().COUNTERS.items():
        module, _, attr = name.partition(".")
        target = _positional(getattr(getattr(bastext, module), attr))
        counted = _positional(counter)
        takes_args = any(p.kind is p.VAR_POSITIONAL
                         for p in inspect.signature(counter).parameters.values())
        if not takes_args:
            assert len(counted) == len(target), name
        for at, param in enumerate(counted):
            if param.name in COUNTED:
                assert at < len(target) and target[at].name == param.name, (name, param.name)
                seen.add(param.name)
    assert seen == COUNTED


@pytest.mark.parametrize("encoder, cold", [("mov", False), ("cnn", True)],
                         ids=["warm-mov", "cold-cnn"])
def test_traced_pipeline_reports_every_layer_metric(tmp_path, capsys, encoder, cold):
    tracer_mod = _bench_tracer()
    catalog, baskets, _, _ = make_planted_corpus(
        num_products=60, num_communities=2, group_sizes=(10, 10, 10),
        num_baskets=400, basket_size=5, seed=0)
    corpus.write_canonical(catalog, baskets, tmp_path / "catalog.tsv", tmp_path / "baskets.txt")
    out = str(tmp_path / "run")
    mode = ["--cold"] if cold else []
    split = ["--cold", "--cold-fraction", "0.25"] if cold else []
    steps = [
        ("ingest", ["ingest", "--format", "canonical", str(tmp_path / "catalog.tsv"),
                    str(tmp_path / "baskets.txt")]),
        ("split", ["split", *split]),
        ("train", ["train", *mode, "--encoder", encoder, "--k", "16", "--batch-size", "256",
                   "--epochs", "1"]),
        *((f"evaluate:{m}", ["evaluate", *mode, "--method", m]) for m in CHECKED),
        ("similar", ["similar", catalog.external_ids()[0]]),
        ("alsobuy", ["alsobuy", catalog.external_ids()[1]]),
    ]

    tracer = tracer_mod.Tracer()
    commands = []
    for label, argv in steps:
        tracer.command = len(commands)
        commands.append({"label": label, "epochs": 1 if label == "train" else 0})
        tracer.install(bastext)
        try:
            start = time.perf_counter()
            assert cli.main([*argv, "--out", out]) == 0
            commands[-1]["wall"] = time.perf_counter() - start
        finally:
            tracer.uninstall()
    capsys.readouterr()

    layers = tracer_mod.layer_metrics(tracer.spans, commands, len(catalog))
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    expected = {n for n in declared if not any(s in n for s in NOT_FROM_SPANS)}
    assert expected - set(layers) == set()
    assert all(math.isfinite(v) for v in layers.values())
    # the spans were recorded: both towers ran forward inside the loss
    assert layers["encoders.forward_E.s"] > 0 and layers["encoders.forward_C.s"] > 0
    assert layers["cli.query.calls"] == 2

    # The row counters read `len()` of the title argument: a title format must answer it
    # with its row count. A query encodes the whole catalog through the candidate tower
    # once, while loading, and through the context tower only the rows it reads: none
    # in `similar`, the one product's row in `alsobuy`.
    spans, similar, alsobuy = tracer.spans, len(steps) - 2, len(steps) - 1

    def under(i, name):
        while spans[i][3] >= 0:
            i = spans[i][3]
            if spans[i][0] == name:
                return True
        return False

    counted = ["encoders.encode_batch"] + (["encoders._mean_matrix"] if encoder == "mov" else [])
    for fn in counted:
        for command, context_rows in ((similar, []), (alsobuy, [1])):
            calls = [i for i, s in enumerate(spans) if s[0] == fn and s[4] == command]
            loading = [spans[i][5] for i in calls if under(i, "cli._load_for_query")]
            context = [spans[i][5] for i in calls if under(i, "cli._context_rows")]
            assert len(calls) == len(loading) + len(context), (fn, command)
            assert loading == [len(catalog)] and context == context_rows, (fn, command)
    assert not [s for s in spans if s[0] == "model.materialize_product_vectors"
                and s[4] in (similar, alsobuy)]

    # The bench's own checks read the run directory through the program's interfaces.
    errors, facts = _bench_module("verify").check_reports(tmp_path / "run", cold, CHECKED)
    assert errors == []
    assert facts["cases"] > 0
    positives, num_products = _bench_module("pipeline").train_positives(tmp_path / "run", cold)
    catalog_run, baskets_run, _ = corpus.import_dataset(
        "canonical", [tmp_path / "run" / "corpus" / "catalog.tsv",
                      tmp_path / "run" / "corpus" / "baskets.txt"])
    split_run = corpus.load_split_manifest(
        tmp_path / "run" / "splits" / f"{'cold' if cold else 'warm'}.manifest",
        catalog_run, baskets_run)
    pop = PopModel.fit(split_run.train, len(catalog_run))
    assert (positives, num_products) == (pop.counts.sum(), len(catalog))


def _corpus_spans_of_similar(work: Path, num_products: int) -> list[str]:
    """The `corpus.*` span names of one traced `similar` query on a random catalog."""
    catalog, baskets = make_random_corpus(num_products, 300, seed=4)
    work.mkdir()
    corpus.write_canonical(catalog, baskets, work / "catalog.tsv", work / "baskets.txt")
    out = str(work / "run")
    for argv in (["ingest", "--format", "canonical", str(work / "catalog.tsv"),
                  str(work / "baskets.txt")], ["split"],
                 ["train", "--k", "8", "--epochs", "1", "--batch-size", "512"]):
        assert cli.main([*argv, "--out", out]) == 0
    tracer = _bench_tracer().Tracer()
    tracer.install(bastext)
    try:
        assert cli.main(["similar", catalog.ids[0], "--out", out]) == 0
    finally:
        tracer.uninstall()
    return sorted(s[0] for s in tracer.spans if s[0].startswith("corpus."))


def test_query_corpus_spans_do_not_grow_with_the_catalog(tmp_path, capsys):
    """A traced call per title would add thousands of spans to every bench query."""
    small = _corpus_spans_of_similar(tmp_path / "small", 60)
    large = _corpus_spans_of_similar(tmp_path / "large", 600)
    capsys.readouterr()
    assert small and small == large
