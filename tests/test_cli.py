import json
import os
import struct
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest

import bastext
from bastext import cli, corpus, evaluation, model
from bastext.encoders import load_pretrained_vectors
from bastext.synthetic import make_planted_corpus


@pytest.fixture(scope="module")
def raw_corpus(tmp_path_factory):
    """A small planted corpus written in canonical format."""
    d = tmp_path_factory.mktemp("raw")
    catalog, baskets, _, _ = make_planted_corpus(
        num_products=60, num_communities=2, group_sizes=(10, 10, 10),
        num_baskets=400, basket_size=5, seed=0)
    corpus.write_canonical(catalog, baskets, d / "catalog.tsv", d / "baskets.txt")
    return d / "catalog.tsv", d / "baskets.txt"


def _run(argv):
    return cli.main([str(a) for a in argv])


def _model_bytes(nan_row=False) -> bytes:
    """A well-formed one-word mov model file (K = 4, `E/W` and `C/W` of shape (1, 4)).
    With `nan_row`, its context tower's first row `C/W[0]` is NaN."""
    vocab = corpus.Vocabulary({"tea": 0})
    state = model.init_model(model.ModelConfig(k=4, epochs=1), vocab)
    if nan_row:
        state.params_c.W[0] = np.nan
    with tempfile.TemporaryDirectory() as d:
        model.save_model(state, Path(d) / "model.bin")
        return (Path(d) / "model.bin").read_bytes()


def _edited_model_bytes(edit=lambda header: None, tail=b"",
                        version=model.MODEL_VERSION) -> bytes:
    """`_model_bytes()` with `version`, its JSON header changed in place by `edit(header)`
    and `tail` appended after the tensors."""
    blob = _model_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16: 16 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    return blob[:4] + struct.pack("<IQ", version, len(text)) + text + blob[16 + hlen:] + tail

def _pipeline(out: Path, raw, epochs=3):
    cat, bsk = raw
    assert _run(["ingest", "--format", "canonical", cat, bsk, "--out", out]) == 0
    assert _run(["split", "--out", out]) == 0
    assert _run(["train", "--out", out, "--k", "16", "--epochs", str(epochs),
                 "--batch-size", "256", "--dropout", "0.0", "--patience", "100",
                 "--lr", "2e-3"]) == 0


def test_end_to_end_pipeline(tmp_path, raw_corpus, capsys):
    out = tmp_path / "run"
    _pipeline(out, raw_corpus)
    assert (out / "corpus" / "catalog.tsv").exists()
    assert (out / "splits" / "warm.manifest").exists()
    assert (out / "models" / "model.bin").exists()
    assert "epoch 1\t" in (out / "models" / "train_log.txt").read_text()

    for method in ("bastext", "pop", "itemknn"):
        assert _run(["evaluate", "--out", out, "--method", method]) == 0
        report = json.loads((out / "reports" / f"{method}.json").read_text())
        assert set(report["metrics"]) == {"recall@10", "recall@20", "mrr@10", "mrr@20"}
        assert all(0.0 <= v <= 1.0 for v in report["metrics"].values())
    capsys.readouterr()


def test_rerun_is_byte_identical(tmp_path, raw_corpus, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _pipeline(a, raw_corpus, epochs=2)
    _pipeline(b, raw_corpus, epochs=2)
    capsys.readouterr()
    for rel in ("corpus/catalog.tsv", "corpus/baskets.txt",
                "splits/warm.manifest", "models/model.bin"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    # train log matches apart from wall-clock timings
    strip = lambda p: [l.rsplit("\twall", 1)[0] for l in
                       (p / "models/train_log.txt").read_text().splitlines()]
    assert strip(a) == strip(b)


@pytest.mark.parametrize("argv, owner, name", [
    (["train", "--epochs", "1"], model, "train"),
    (["evaluate", "--method", "pop"], evaluation, "evaluate"),
], ids=["train", "evaluate"])
def test_corpus_baskets_die_once_the_split_is_built(tmp_path, raw_corpus, capsys, monkeypatch,
                                                    argv, owner, name):
    """`train` and `evaluate` keep only the split's parts: the `Baskets` that
    `import_dataset` returned is freed before the model trains or the evaluation runs."""
    out = tmp_path / "run"
    assert _run(["ingest", "--format", "canonical", *raw_corpus, "--out", out]) == 0
    assert _run(["split", "--out", out]) == 0
    refs, alive = [], []
    real_import, real_stage = corpus.import_dataset, getattr(owner, name)

    def recording_import(*args, **kwargs):
        result = real_import(*args, **kwargs)
        refs.append(weakref.ref(result[1]))
        return result

    def checking_stage(*args, **kwargs):
        alive.append([r() is not None for r in refs])
        return real_stage(*args, **kwargs)

    monkeypatch.setattr(corpus, "import_dataset", recording_import)
    monkeypatch.setattr(owner, name, checking_stage)
    assert _run([*argv, "--out", out]) == 0
    capsys.readouterr()
    assert alive == [[False]]


def test_threads_flag_bit_exact(tmp_path, raw_corpus, capsys):
    cat, bsk = raw_corpus
    models = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        assert _run(["ingest", "--format", "canonical", cat, bsk, "--out", out]) == 0
        assert _run(["split", "--out", out]) == 0
        assert _run(["train", "--out", out, "--k", "16", "--epochs", "2",
                     "--batch-size", "256", "--threads", threads]) == 0
        models.append((out / "models" / "model.bin").read_bytes())
    capsys.readouterr()
    assert models[0] == models[1]


def test_query_commands_smoke(tmp_path, raw_corpus, capsys):
    out = tmp_path / "run"
    _pipeline(out, raw_corpus)
    catalog, _ = cli._load_corpus(out)
    eid0, eid1 = catalog.products[0].external_id, catalog.products[1].external_id
    capsys.readouterr()

    assert _run(["similar", eid0, "--out", out, "--top-n", "3"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3

    assert _run(["alsobuy", eid0, "--out", out, "--top-n", "3"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3

    assert _run(["search", catalog.products[0].title, "--out", out, "--top-n", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].split("\t")[0] == eid0  # own title is its own best match

    assert _run(["next", eid0, eid1, "--out", out, "--top-n", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    shown = {l.split("\t")[0] for l in lines}
    assert eid0 not in shown and eid1 not in shown  # context excluded


def test_queries_never_return_excluded_products(tmp_path, raw_corpus, capsys):
    out = tmp_path / "run"
    _pipeline(out, raw_corpus, epochs=1)
    catalog, _ = cli._load_corpus(out)
    m = len(catalog)
    eid0, eid1 = catalog.products[0].external_id, catalog.products[1].external_id
    capsys.readouterr()

    for cmd in ("similar", "alsobuy"):
        assert _run([cmd, eid0, "--out", out, "--top-n", m + 10]) == 0
        shown = [l.split("\t")[0] for l in capsys.readouterr().out.strip().splitlines()]
        assert len(shown) == m - 1 and eid0 not in shown, cmd

    assert _run(["next", eid0, eid1, "--out", out, "--top-n", m + 10]) == 0
    shown = [l.split("\t")[0] for l in capsys.readouterr().out.strip().splitlines()]
    assert len(shown) == m - 2 and eid0 not in shown and eid1 not in shown

    assert _run(["search", catalog.products[0].title, "--out", out, "--top-n", m + 10]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == m


def test_queries_read_only_the_catalog(tmp_path, raw_corpus, capsys):
    out = tmp_path / "run"
    _pipeline(out, raw_corpus, epochs=1)
    catalog, _ = cli._load_corpus(out)
    eid0, eid1 = catalog.products[0].external_id, catalog.products[1].external_id
    queries = [["similar", eid0], ["alsobuy", eid0], ["search", catalog.products[0].title],
               ["next", eid0, eid1]]
    capsys.readouterr()

    def stdout_of_queries():
        outs = []
        for q in queries:
            assert _run([*q, "--out", out]) == 0
            outs.append(capsys.readouterr().out)
        return outs

    before = stdout_of_queries()
    (out / "corpus" / "baskets.txt").unlink()
    assert stdout_of_queries() == before
    (out / "corpus" / "catalog.tsv").unlink()
    with pytest.raises(SystemExit, match="no ingested corpus"):
        _run(["similar", eid0, "--out", out])


@pytest.fixture(scope="module")
def trained_runs(tmp_path_factory, raw_corpus):
    """One-epoch mov and cnn runs on `raw_corpus`, by encoder."""
    runs = {}
    for encoder in ("mov", "cnn"):
        out = tmp_path_factory.mktemp(encoder) / "run"
        assert _run(["ingest", "--format", "canonical", *raw_corpus, "--out", out]) == 0
        assert _run(["split", "--out", out]) == 0
        assert _run(["train", "--out", out, "--encoder", encoder, "--k", "16", "--epochs", "1",
                     "--batch-size", "256"]) == 0
        runs[encoder] = out
    return runs


def _whole_catalog_query(out: Path, query: str, ids: list[str]) -> str:
    """What `query` printed when every product's vectors were materialized first: the
    context vectors of the whole catalog, scored as the parent code scored them."""
    catalog = corpus.read_catalog(out / "corpus" / "catalog.tsv")
    state = model.load_model(out / "models" / "model.bin")
    scorer = model.BastextScorer(model.materialize_product_vectors(state, catalog))
    ctx = np.array([catalog.get(e) for e in ids], dtype=np.int64)
    if query == "alsobuy":
        scores = scorer.vectors.embedding @ scorer.vectors.context[ctx[0]]
    else:
        scores = scorer.score_all(ctx)
    top = cli._top_k(scores, 10, exclude=ctx)
    return "".join(f"{catalog.ids[i]}\t{scores[i]:.6f}\t{catalog.titles[i]}\n" for i in top)


@pytest.mark.parametrize("encoder", ["mov", "cnn"])
@pytest.mark.parametrize("query, at", [
    ("alsobuy", [0]), ("alsobuy", [7]), ("next", [3, 4]), ("next", [5, 5]),
    ("next", [2, 9, 2]), ("next", [1, 8, 30]),
], ids=["alsobuy", "alsobuy-7", "next", "next-repeated", "next-3-repeated", "next-3"])
def test_context_rows_print_what_whole_catalog_vectors_print(trained_runs, capsys, encoder,
                                                             query, at):
    """`alsobuy` and `next` encode only their context products' rows; each row, and so
    the printed scores, are bitwise those of encoding the whole catalog."""
    out = trained_runs[encoder]
    ids = [corpus.read_catalog(out / "corpus" / "catalog.tsv").ids[i] for i in at]
    capsys.readouterr()
    assert _run([query, *ids, "--out", out]) == 0
    assert capsys.readouterr().out == _whole_catalog_query(out, query, ids)


def _exit_of(parse, argv, capsys):
    """(exit code, stdout, stderr) of `parse(argv)`, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    printed = capsys.readouterr()
    return exc.value.code, printed.out, printed.err


@pytest.mark.parametrize("argv", [
    ["--help"], *([command, "--help"] for command in cli.COMMANDS), ["bogus"], [],
    ["similar", "p0", "--bogus"], ["next"], ["train", "--k", "x"],
], ids=lambda argv: " ".join(argv) or "no-args")
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, argv):
    """`main` builds the named command's parser only; help and errors keep every byte."""
    full = _exit_of(cli.build_parser().parse_args, argv, capsys)
    assert _exit_of(cli.main, argv, capsys) == full


def test_main_builds_only_the_named_command(monkeypatch, capsys):
    built = []
    real_add = cli._add_command
    monkeypatch.setattr(cli, "_add_command", lambda sub, name: (built.append(name),
                                                                 real_add(sub, name)))
    for argv, names in ((["similar", "--help"], ["similar"]),
                        (["--help"], list(cli.COMMANDS)), (["bogus"], list(cli.COMMANDS))):
        built.clear()
        _exit_of(cli.main, argv, capsys)
        assert built == names, argv


def test_parser_errors_name_every_command(capsys):
    code, _, err = _exit_of(cli.main, ["bogus"], capsys)
    choices = ", ".join(f"'{c}'" for c in cli.COMMANDS)
    assert code == 2 and f"invalid choice: 'bogus' (choose from {choices})" in err
    assert len(cli.COMMANDS) == 8
    code, _, err = _exit_of(cli.main, [], capsys)
    assert code == 2 and err.endswith("error: the following arguments are required: command\n")


def test_main_reads_sys_argv_when_argv_is_none(monkeypatch, capsys):
    help_text = _exit_of(cli.build_parser().parse_args, ["ingest", "--help"], capsys)
    monkeypatch.setattr(sys, "argv", ["bastext", "ingest", "--help"])
    assert _exit_of(lambda argv: cli.main(), None, capsys) == help_text


def test_finetune_pretrained_round_trip(tmp_path, raw_corpus, capsys):
    """`train --pretrained --finetune-pretrained` saves the tuned table; evaluate and search
    run on it."""
    out = tmp_path / "run"
    cat, bsk = raw_corpus
    assert _run(["ingest", "--format", "canonical", cat, bsk, "--out", out]) == 0
    assert _run(["split", "--out", out]) == 0
    catalog, split = cli._load_split(out, "warm")
    vocab = corpus.build_vocabulary(catalog)
    rng = np.random.default_rng(0)
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(f"{w} {' '.join(f'{x:.3f}' for x in rng.normal(size=4))}\n"
                               for w in vocab.words()))
    argv = ["train", "--out", out, "--k", "8", "--epochs", "2", "--batch-size", "256",
            "--pretrained", vectors, "--finetune-pretrained"]
    assert _run(argv) == 0
    assert _run(["evaluate", "--out", out]) == 0
    capsys.readouterr()
    assert _run(["search", catalog.products[0].title, "--out", out, "--top-n", "3"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3

    saved = model.load_model(out / "models" / "model.bin")
    table, _ = load_pretrained_vectors(vectors, vocab)
    config = cli._model_config(cli.build_parser().parse_args([str(a) for a in argv]))
    tuned, _ = model.train(config, split.train, split.validation, catalog, vocab, table)
    assert saved.table.vectors is not None
    assert not np.array_equal(saved.table.vectors, table.vectors)  # tuned, not the file's
    assert np.array_equal(saved.table.vectors, tuned.table.vectors)


def test_bad_pretrained_file_exits_1(tmp_path, raw_corpus, capsys):
    out = tmp_path / "run"
    cat, bsk = raw_corpus
    assert _run(["ingest", "--format", "canonical", cat, bsk, "--out", out]) == 0
    assert _run(["split", "--out", out]) == 0
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("apple\n")
    capsys.readouterr()
    assert _run(["train", "--out", out, "--epochs", "1", "--pretrained", vectors]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_corrupt_model_exits_1(tmp_path, raw_corpus, capsys):
    out = tmp_path / "run"
    _pipeline(out, raw_corpus, epochs=1)
    path = out / "models" / "model.bin"
    blob = path.read_bytes()
    path.write_bytes(blob[:16] + b"x" + blob[17:])
    eid0 = cli._load_corpus(out)[0].products[0].external_id
    capsys.readouterr()
    assert _run(["similar", eid0, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_external_scores_path(tmp_path, raw_corpus, capsys):
    out = tmp_path / "run"
    cat, bsk = raw_corpus
    assert _run(["ingest", "--format", "canonical", cat, bsk, "--out", out]) == 0
    assert _run(["split", "--out", out]) == 0
    catalog, baskets = cli._load_corpus(out)
    split = corpus.load_split_manifest(out / "splits" / "warm.manifest", catalog, baskets)
    from bastext.evaluation import form_test_cases
    cases = form_test_cases(split)
    f = tmp_path / "scores.tsv"
    f.write_text("".join(f"{i}\t{c.held_out_id}:1.0\n" for i, c in enumerate(cases)))
    assert _run(["evaluate", "--out", out, "--method", "external", "--scores", f]) == 0
    report = json.loads((out / "reports" / "external.json").read_text())
    assert report["metrics"]["recall@10"] == 1.0
    capsys.readouterr()


def test_missing_corpus_exits(tmp_path, capsys):
    with pytest.raises(SystemExit):
        _run(["split", "--out", tmp_path / "nothing"])
    capsys.readouterr()


def test_unknown_product_exits(tmp_path, raw_corpus, capsys):
    out = tmp_path / "run"
    _pipeline(out, raw_corpus, epochs=1)
    capsys.readouterr()
    with pytest.raises(SystemExit):
        _run(["similar", "no-such-id", "--out", out])
    capsys.readouterr()


def test_malformed_input_reports_error(tmp_path, capsys):
    bad = tmp_path / "catalog.tsv"
    bad.write_text("only-one-column\n")
    baskets = tmp_path / "baskets.txt"
    baskets.write_text("a b\n")
    rc = _run(["ingest", "--format", "canonical", bad, baskets, "--out", tmp_path / "o"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")


def _ingest_twice(tmp_path, capsys, fmt: str, raw: Path) -> str:
    """Ingests `raw`, then the canonical files that wrote; both must write the same bytes.
    Returns the first ingest's stdout."""
    first, again = tmp_path / "first", tmp_path / "again"
    assert _run(["ingest", "--format", fmt, raw, "--out", first]) == 0
    report = capsys.readouterr().out
    canon = [first / "corpus" / "catalog.tsv", first / "corpus" / "baskets.txt"]
    assert _run(["ingest", "--format", "canonical", *canon, "--out", again]) == 0
    assert capsys.readouterr().out == report.partition(";")[0] + (
        "; dropped 0 small baskets, 0 empty-title products, skipped 0 malformed rows\n")
    for name in ("catalog.tsv", "baskets.txt"):
        assert (again / "corpus" / name).read_bytes() == (first / "corpus" / name).read_bytes()
    return report


def test_ingest_csv_title_line_break_becomes_a_space(tmp_path, capsys):
    """A quoted description across two lines stays one catalog line and one title."""
    raw = tmp_path / "retail.csv"
    raw.write_text('InvoiceNo,StockCode,Description\n1,A,"red\nwine"\n1,B,white\r\n'
                   '2,A,"red\nwine"\n2,B,white\n', encoding="utf-8")
    report = _ingest_twice(tmp_path, capsys, "onlineretail", raw)
    assert "skipped 0 malformed rows" in report
    catalog = corpus.read_catalog(tmp_path / "first" / "corpus" / "catalog.tsv")
    assert catalog.titles == ["red wine", "white"]
    assert corpus.tokenize(catalog.titles[0]) == ["red", "wine"]


def test_ingest_skips_csv_row_whose_product_id_holds_whitespace(tmp_path, capsys):
    """A stock code `A 1` would be two ids in `baskets.txt`: its rows are skipped and
    counted, like rows with a blank stock code."""
    raw = tmp_path / "retail.csv"
    raw.write_text("InvoiceNo,StockCode,Description\n1,A 1,red wine\n1,B,white tea\n"
                   "2,A 1,red wine\n2,C,green tea\n3,A 1,red wine\n3,B,white tea\n"
                   "3,C,green tea\n4, ,blank\n4,B,white tea\n", encoding="utf-8")
    report = _ingest_twice(tmp_path, capsys, "onlineretail", raw)
    assert report.startswith("ingested 1 baskets over 2 products")
    assert "dropped 3 small baskets" in report and "skipped 4 malformed rows" in report


@pytest.mark.parametrize("argv", [
    ["split", "--cold", "--cold-fraction", "1.5"],
    ["split", "--ratios", "0.8,x"],
    ["evaluate", "--ns", "10,x"],
    ["evaluate", "--method", "pop", "--ns", "10,0"],
    ["similar", "p0", "--top-n", "-1"],
    ["train", "--epochs", "0"],
    ["train", "--epochs", "1", "--lr", "0"],
    ["train", "--epochs", "1", "--finetune-pretrained"],
    ["train", "--epochs", "1", "--patience", "0"],
    ["train", "--epochs", "1", "--min-count", "0"],
    ["evaluate", "--method", "prod2vec", "--k", "0"],
    ["evaluate", "--method", "prod2vec", "--k", "-1"],
    ["evaluate", "--method", "prod2vec", "--neg", "0"],
    ["evaluate", "--method", "prod2vec", "--neg", "-1"],
], ids=["cold-fraction", "ratios", "ns", "ns-zero", "top-n", "epochs-zero", "lr-zero",
        "finetune-without-pretrained", "patience-zero", "min-count-zero", "prod2vec-k-zero",
        "prod2vec-k-negative", "prod2vec-neg-zero", "prod2vec-neg-negative"])
def test_bad_flag_value_exits_1_without_traceback(tmp_path, raw_corpus, capsys, argv):
    _assert_cli_error_exit(tmp_path, raw_corpus, capsys, argv)


def test_test_products_pool_on_warm_split_exits_1(tmp_path, raw_corpus, capsys):
    """A warm split holds no test products, so their pool would rank every case outside it."""
    _assert_cli_error_exit(tmp_path, raw_corpus, capsys,
                           ["evaluate", "--method", "pop", "--pool", "test-products"],
                           expect="--cold")


def test_seed_only_on_commands_that_read_it(capsys):
    """`--seed` seeds split, train and evaluate (prod2vec); a query has no seed to take."""
    parser = cli.build_parser()
    for command in ("split", "train", "evaluate"):
        assert parser.parse_args([command, "--seed", "1"]).seed == 1
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["similar", "p0", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evaluate", "--method", "bastext"],
    ["similar", "p0"],
    ["evaluate", "--method", "external", "--scores", "no-such-scores.tsv"],
    ["train", "--epochs", "1", "--pretrained", "no-such-vectors.txt"],
], ids=["evaluate-no-model", "similar-no-model", "missing-scores", "missing-pretrained"])
def test_missing_file_exits_1_without_traceback(tmp_path, raw_corpus, capsys, argv):
    _assert_cli_error_exit(tmp_path, raw_corpus, capsys, argv)


@pytest.mark.parametrize("argv, files, expect", [
    (["ingest", "--format", "canonical", "catalog.tsv", "baskets.txt"],
     {"catalog.tsv": b"p0\tred tea\np1\tgreen \xff tea\n", "baskets.txt": b"p0 p1\n"},
     "catalog.tsv:2: invalid UTF-8"),
    (["split"], {"run/corpus/baskets.txt": b"p0 p1\np2 \xfe\n"}, "baskets.txt:2: invalid UTF-8"),
    (["similar", "p0"], {"run/corpus/catalog.tsv": b"p0\t\xc3(\n"}, "catalog.tsv:1: invalid UTF-8"),
    (["ingest", "--format", "canonical", "."], {}, "input path is not a file: ."),
    (["evaluate", "--method", "pop"], {"run/splits/warm.manifest": b"mode\twarm\nseed\tabc\n"},
     "warm.manifest:2: split seed must be an integer, got 'abc'"),
    (["evaluate", "--method", "external", "--scores", "scores.tsv"],
     {"scores.tsv": b"0\t1:0.5\xff\n"}, "scores.tsv:1: invalid UTF-8"),
    (["evaluate", "--method", "bastext"], {"run/models/model.bin": _model_bytes(nan_row=True)},
     "model.bin: non-finite values in tensor 'C/W'"),
    (["next", "p0", "p1"], {"run/models/model.bin": _model_bytes(nan_row=True)},
     "model.bin: non-finite values in tensor 'C/W'"),
    (["similar", "p0"],
     {"run/models/model.bin": _edited_model_bytes(
         lambda h: next(t for t in h["tensors"] if t["name"] == "E/W")["shape"].reverse())},
     "model.bin: tensor 'E/W' has shape (4, 1), expected (1, 4)"),
    (["evaluate", "--method", "bastext"],
     {"run/models/model.bin": _edited_model_bytes(lambda h: h["config"].update(k=8))},
     "model.bin: tensor 'E/W' has shape (1, 4), expected (1, 8)"),
    (["next", "p0", "p1"],
     {"run/models/model.bin": _edited_model_bytes(
         lambda h: h["tensors"].append({"name": "E/conv2", "shape": [1]}), tail=b"\0" * 4)},
     "model.bin: unexpected tensor 'E/conv2'"),
    (["similar", "p0"],
     {"run/models/model.bin": _edited_model_bytes(
         lambda h: h["tensors"].append({"name": "E/W", "shape": [1, 4]}), tail=b"\0" * 16)},
     "model.bin: tensor 'E/W' listed twice"),
    (["similar", "p0"], {"run/models/model.bin": _edited_model_bytes(version=1)},
     "model.bin: unsupported model version 1"),
    (["evaluate", "--method", "bastext"],
     {"run/models/model.bin": _edited_model_bytes(
         lambda h: h.update(vocab={"words": h["vocab"], "counts": [1], "min_count": 1}),
         version=2)},
     "model.bin: unsupported model version 2"),
    (["train", "--epochs", "1", "--pretrained", "vectors.txt"],
     {"vectors.txt": b"comm0 0.1 0.2\ncomm1 0.1 abc\n"}, "vectors.txt:2: non-numeric"),
    (["train", "--epochs", "1", "--pretrained", "vectors.txt"],
     {"vectors.txt": b"comm0 0.1 0.2\nitem0 nan 0.2\n"}, "vectors.txt:2: non-finite"),
    (["train", "--epochs", "1", "--pretrained", "vectors.txt"],
     {"vectors.txt": b"comm0 0.1 0.2\nunknown 0.3 0.4\ncomm\xff1 0.1 0.2\n"},
     "vectors.txt:3: invalid UTF-8"),
    (["ingest", "--format", "instacart", "products.csv", "orders.csv"],
     {"products.csv": b"product_name,aisle\nred tea,drinks\n",
      "orders.csv": b"order_id,product_id\n1,1\n"},
     "products.csv: instacart CSV has no product_id column"),
    (["ingest", "--format", "instacart", "products.csv", "orders.csv"],
     {"products.csv": b"product_id,product_name\n1,red tea\n",
      "orders.csv": b"order_id,sku\n1,1\n"},
     "orders.csv: instacart CSV has no product_id column"),
    # A quote left open runs its field past csv's 131,072-character limit.
    (["ingest", "--format", "onlineretail", "retail.csv"],
     {"retail.csv": b'InvoiceNo,StockCode,Description\n1,A,red tea\n1,B,"green tea\n'
                    + b"2,C,filler\n" * 14_000},
     "retail.csv:3: malformed CSV"),
    (["ingest", "--format", "instacart", "products.csv", "orders.csv"],
     {"products.csv": b"product_id,product_name\n1,red tea\n2,green tea\n",
      "orders.csv": b'order_id,product_id\n1,1\n1,2\n2,"1\n' + b"3,1\n" * 40_000},
     "orders.csv:4: malformed CSV"),
], ids=["catalog-utf8", "baskets-utf8", "query-catalog-utf8", "ingest-directory",
        "manifest-seed", "scores-utf8", "evaluate-nan-model", "next-nan-model",
        "model-shape", "model-k", "model-extra-tensor", "model-duplicate-tensor", "model-v1",
        "model-v2",
        "pretrained-text-component", "pretrained-nan-component", "pretrained-utf8",
        "instacart-products-no-id", "instacart-orders-no-id", "onlineretail-unclosed-quote",
        "instacart-unclosed-quote"])
def test_bad_input_file_exits_1_without_traceback(tmp_path, raw_corpus, capsys, argv, files,
                                                  expect):
    _assert_cli_error_exit(tmp_path, raw_corpus, capsys, argv, files, expect)


def _assert_cli_error_exit(tmp_path, raw_corpus, capsys, argv, files=None, expect=""):
    """On an ingested and split corpus with no model, `argv` exits 1 with a one-line error
    containing `expect`. `files` (paths relative to `tmp_path`: bytes) are written first."""
    out = tmp_path / "run"
    cat, bsk = raw_corpus
    assert _run(["ingest", "--format", "canonical", cat, bsk, "--out", out]) == 0
    assert _run(["split", "--out", out]) == 0
    capsys.readouterr()
    for rel, data in (files or {}).items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(Path(bastext.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "bastext.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert expect in proc.stderr
