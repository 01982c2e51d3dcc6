"""Command-line entry point: ingestion, splitting, training, evaluation, and queries.

Artifacts live under a single output directory:
    <out>/corpus/catalog.tsv, baskets.txt
    <out>/splits/<mode>.manifest
    <out>/models/model.bin, train_log.txt
    <out>/reports/<method>.json, <method>.txt
Each command echoes its fully resolved configuration next to its artifact.
The query commands (similar, alsobuy, search, next) read only
<out>/corpus/catalog.tsv and the model file; they need no baskets.txt.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import baselines, corpus, evaluation, model
from .encoders import EncoderError, encode_batch, load_pretrained_vectors
from .kernels import cosine_to_all


def _write(path: Path, text: str) -> None:
    with corpus.atomic_write(path) as fh:
        fh.write(text)


def _echo_config(args: argparse.Namespace, path: Path) -> None:
    resolved = {k: (str(v) if isinstance(v, Path) else v) for k, v in vars(args).items()
                if k != "func"}
    _write(path, json.dumps(resolved, sort_keys=True, indent=2) + "\n")


def _corpus_files(out: Path, *names: str) -> list[Path]:
    paths = [out / "corpus" / name for name in names]
    if not all(p.exists() for p in paths):
        raise SystemExit(f"error: no ingested corpus under {out / 'corpus'}; run `bastext ingest` first")
    return paths


def _load_corpus(out: Path):
    catalog, baskets, _ = corpus.import_dataset(
        "canonical", _corpus_files(out, "catalog.tsv", "baskets.txt"))
    return catalog, baskets


def _load_split(out: Path, mode: str):
    """The catalog and the `mode` split; the corpus's own `Baskets` is freed on return."""
    catalog, baskets = _load_corpus(out)
    manifest = out / "splits" / f"{mode}.manifest"
    if not manifest.exists():
        raise SystemExit(f"error: split manifest {manifest} not found; run `bastext split` first")
    return catalog, corpus.load_split_manifest(manifest, catalog, baskets)


def cmd_ingest(args) -> int:
    catalog, baskets, stats = corpus.import_dataset(args.format, args.paths)
    out = Path(args.out) / "corpus"
    out.mkdir(parents=True, exist_ok=True)
    corpus.write_canonical(catalog, baskets, out / "catalog.tsv", out / "baskets.txt")
    _echo_config(args, out / "ingest_config.json")
    print(f"ingested {len(baskets)} baskets over {len(catalog)} products (mean size "
          f"{np.mean(np.diff(baskets.indptr)):.2f}); dropped {stats.baskets_dropped_small} small "
          f"baskets, {stats.products_dropped_empty_title} empty-title products, "
          f"skipped {stats.rows_skipped} malformed rows")
    return 0


def _parse_list(text: str, kind, error, flag: str) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise error(f"{flag} takes comma-separated {kind.__name__} values, got {text!r}") from None


def cmd_split(args) -> int:
    ratios = _parse_list(args.ratios, float, corpus.CorpusError, "--ratios")
    catalog, baskets = _load_corpus(Path(args.out))
    if args.cold:
        split = corpus.split_cold(baskets, ratios, args.cold_fraction, args.seed)
    else:
        split = corpus.split_warm(baskets, ratios, args.seed)
    out = Path(args.out) / "splits"
    out.mkdir(parents=True, exist_ok=True)
    corpus.save_split_manifest(split, catalog, out / f"{split.mode}.manifest")
    _echo_config(args, out / f"{split.mode}_config.json")
    cases = len(split.test.indices) if split.mode == "warm" else len(
        evaluation.form_test_cases(split))
    print(f"{split.mode} split: {len(split.train)} train / {len(split.validation)} "
          f"validation / {len(split.test)} test baskets, {cases} test cases")
    return 0


def _model_config(args) -> model.ModelConfig:
    return model.ModelConfig(
        k=args.k, negatives=args.neg, encoder=args.encoder,
        finetune_pretrained=args.finetune_pretrained,
        batch_size=args.batch_size, learning_rate=args.lr, dropout=args.dropout,
        epochs=args.epochs, seed=args.seed, patience=args.patience)


def cmd_train(args) -> int:
    out = Path(args.out)
    catalog, split = _load_split(out, "cold" if args.cold else "warm")
    vocab = corpus.build_vocabulary(catalog, args.min_count)
    table = None
    if args.pretrained is not None:
        table, coverage = load_pretrained_vectors(args.pretrained, vocab)
        print(f"pretrained vectors: dim {table.dim}, vocabulary coverage {coverage:.3f}")
    config = _model_config(args)
    mdir = out / "models"
    mdir.mkdir(parents=True, exist_ok=True)
    state, lines = model.train(config, split.train, split.validation, catalog, vocab,
                               table, log=lambda s: print(s, flush=True))
    model.save_model(state, mdir / "model.bin")
    _write(mdir / "train_log.txt", "\n".join(lines) + "\n")
    _echo_config(args, mdir / "train_config.json")
    print(f"model saved to {mdir / 'model.bin'} (encoder {config.encoder}, K={config.k}, "
          f"n={config.negatives})")
    return 0


def _load_checked_model(path, catalog) -> model.ModelState:
    """The model saved at `path`, with a warning when `catalog` is not the one it was trained on."""
    state = model.load_model(path)
    if not model.check_catalog_hash(state, catalog):
        print("warning: catalog hash differs from the one the model was trained on",
              file=sys.stderr)
    return state


def _scorer(state: model.ModelState, vectors: model.ProductVectors) -> model.BastextScorer:
    return model.BastextScorer(vectors, float(state.bias[0]) if state.config.use_bias else 0.0)


def _load_bastext(path, catalog):
    """The model saved at `path` and its scorer over `catalog`'s product vectors."""
    state = _load_checked_model(path, catalog)
    return state, _scorer(state, model.materialize_product_vectors(state, catalog))


def cmd_evaluate(args) -> int:
    ns = _parse_list(args.ns, int, evaluation.EvalError, "--ns")
    out = Path(args.out)
    catalog, split = _load_split(out, "cold" if args.cold else "warm")
    cases = evaluation.form_test_cases(split)
    m = len(catalog)
    if args.method == "bastext":
        _, scorer = _load_bastext(out / "models" / "model.bin", catalog)
    elif args.method == "pop":
        scorer = baselines.PopModel.fit(split.train, m)
    elif args.method == "itemknn":
        scorer = baselines.ItemKnnModel.fit(split.train, m, last_item_only=args.knn_last_item)
    elif args.method == "prod2vec":
        scorer = baselines.Prod2vecModel.fit(
            split.train, m, baselines.Prod2vecConfig(k=args.k, negatives=args.neg,
                                                     seed=args.seed))
    elif args.method == "external":
        if args.scores is None:
            raise SystemExit("error: --method external requires --scores <path>")
        scorer = evaluation.ExternalScorer.load(args.scores, m)
    else:
        raise SystemExit(f"error: unknown method {args.method!r}")

    report = evaluation.evaluate(scorer, cases, ns=ns, method=args.method, mode=split.mode,
                                 pool=args.pool, test_product_ids=split.test_product_ids)
    rdir = out / "reports"
    rdir.mkdir(parents=True, exist_ok=True)
    _write(rdir / f"{args.method}.json", report.to_json())
    _write(rdir / f"{args.method}.txt", report.to_table())
    _echo_config(args, rdir / f"{args.method}_config.json")
    print(report.to_table(), end="")
    return 0


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def _load_for_query(args):
    """The catalog, the model, the catalog's title matrix and every product's candidate
    vector. A query encodes context vectors only for the rows it reads (`_context_rows`)."""
    if args.top_n < 1:
        raise SystemExit(f"error: --top-n must be >= 1, got {args.top_n}")
    out = Path(args.out)
    catalog = corpus.read_catalog(*_corpus_files(out, "catalog.tsv"))
    state = _load_checked_model(args.model or out / "models" / "model.bin", catalog)
    token_ids = corpus.encode_catalog(catalog, state.vocab)
    embedding, _ = encode_batch(state.params_e, state.table, token_ids)
    return catalog, state, token_ids, embedding


def _context_rows(state, token_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The context vectors of products `ids`, encoded from their title rows alone."""
    context, _ = encode_batch(state.params_c, state.table, token_ids[ids])
    return context


def _resolve(catalog, external_id: str) -> int:
    pid = catalog.get(external_id)
    if pid is None:
        raise SystemExit(f"error: unknown product id {external_id!r}")
    return pid


def _print_top(catalog, ids, scores) -> None:
    for i, s in zip(ids.tolist(), scores):
        print(f"{catalog.ids[i]}\t{s:.6f}\t{catalog.titles[i]}")


def _top_k(scores: np.ndarray, k: int, exclude=()) -> np.ndarray:
    """The k best-scoring ids outside `exclude`, ties broken by ascending id."""
    keep = np.ones(len(scores), dtype=bool)
    keep[np.asarray(exclude, dtype=np.int64)] = False
    return evaluation.order_pool(scores, np.flatnonzero(keep))[:k]


def cmd_similar(args) -> int:
    catalog, _, _, embedding = _load_for_query(args)
    pid = _resolve(catalog, args.product)
    sims = cosine_to_all(embedding[[pid]], embedding)[0]
    top = _top_k(sims, args.top_n, exclude=[pid])
    _print_top(catalog, top, sims[top])
    return 0


def cmd_alsobuy(args) -> int:
    catalog, state, token_ids, embedding = _load_for_query(args)
    pid = _resolve(catalog, args.product)
    scores = embedding @ _context_rows(state, token_ids, [pid])[0]
    top = _top_k(scores, args.top_n, exclude=[pid])
    _print_top(catalog, top, scores[top])
    return 0


def cmd_search(args) -> int:
    catalog, state, _, embedding = _load_for_query(args)
    title = corpus.title_matrix([state.vocab.encode(corpus.tokenize(args.query))],
                                state.vocab.size)
    if title.size and (title == state.vocab.unk_index).all():
        print("warning: every query token is out of vocabulary", file=sys.stderr)
    q, _ = encode_batch(state.params_e, state.table, title)
    sims = cosine_to_all(q, embedding)[0]
    top = _top_k(sims, args.top_n)
    _print_top(catalog, top, sims[top])
    return 0


def cmd_next(args) -> int:
    catalog, state, token_ids, embedding = _load_for_query(args)
    ctx = np.array([_resolve(catalog, e) for e in args.context], dtype=np.int64)
    # the scorer holds the context vectors of the distinct context products only
    rows, at = np.unique(ctx, return_inverse=True)
    vectors = model.ProductVectors(embedding, _context_rows(state, token_ids, rows))
    scores = _scorer(state, vectors).score_all(at)
    top = _top_k(scores, args.top_n, exclude=ctx)
    _print_top(catalog, top, scores[top])
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(p, seed: bool = False):
    p.add_argument("--out", default="run", help="output directory (default: run)")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; currently has no effect")


def _add_model_flags(p):
    p.add_argument("--encoder", choices=["mov", "cnn"], default="mov")
    p.add_argument("--pretrained", default=None, help="pretrained word-vector file")
    p.add_argument("--finetune-pretrained", action="store_true",
                   help="tune the --pretrained vectors with the model")
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--neg", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=1024)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--patience", type=int, default=3,
                   help="stop after this many epochs (>= 1) without a better validation recall")
    p.add_argument("--min-count", type=int, default=1,
                   help="keep title words seen at least this many times (>= 1)")


COMMANDS = ("ingest", "split", "train", "evaluate", "similar", "alsobuy", "search", "next")


def _add_command(sub, name: str) -> None:
    """Add command `name`'s parser to `sub`. Its `func`, `cmd_<name>`, is looked up in the
    module globals now, so a `cmd_*` rebound after import is the one that runs."""
    if name == "ingest":
        p = sub.add_parser("ingest", help="normalize raw transactions into the canonical corpus")
        p.add_argument("--format", choices=["onlineretail", "instacart", "canonical"],
                       required=True)
        p.add_argument("paths", nargs="+")
        _add_common(p)
    elif name == "split":
        p = sub.add_parser("split", help="partition baskets into train/validation/test")
        p.add_argument("--ratios", default="0.85,0.05,0.10")
        p.add_argument("--cold", action="store_true")
        p.add_argument("--cold-fraction", type=float, default=0.10)
        _add_common(p, seed=True)
    elif name == "train":
        p = sub.add_parser("train", help="train the basket-text model")
        p.add_argument("--cold", action="store_true", help="train on the cold split")
        _add_model_flags(p)
        _add_common(p, seed=True)
    elif name == "evaluate":
        p = sub.add_parser("evaluate", help="rank test cases and report Recall/MRR")
        p.add_argument("--method", choices=["bastext", "pop", "itemknn", "prod2vec", "external"],
                       default="bastext")
        p.add_argument("--cold", action="store_true")
        p.add_argument("--pool", choices=["all", "test-products"], default="all")
        p.add_argument("--knn-last-item", action="store_true",
                       help="ItemKNN scores with the last context item only")
        p.add_argument("--scores", default=None, help="external score file for --method external")
        p.add_argument("--ns", default="10,20", help="comma-separated N values")
        p.add_argument("--k", type=int, default=64)
        p.add_argument("--neg", type=int, default=8)
        _add_common(p, seed=True)
    else:
        p = sub.add_parser(name, help=f"{name} query against a trained model")
        if name == "next":
            p.add_argument("context", nargs="+", help="external ids of basket products")
        else:
            p.add_argument("query" if name == "search" else "product")
        p.add_argument("--model", default=None, help="model file (default: <out>/models/model.bin)")
        p.add_argument("--top-n", type=int, default=10)
        _add_common(p)
    p.set_defaults(func=globals()[f"cmd_{name}"])


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone.

    The one-command parser prints the same help and errors for `command` as the full
    one: its usage line still lists every command.
    """
    parser = argparse.ArgumentParser(prog="bastext",
                                     description="Basket-text embedding pipeline")
    # A metavar would rename the full parser's "required: command" error, so only the
    # one-command parser spells out the full list it stands in for.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{%s}" % ",".join(COMMANDS))
    for name in COMMANDS if command is None else (command,):
        _add_command(sub, name)
    return parser


def main(argv=None) -> int:
    """Run one command. Only that command's parser is built; an `argv` that does not
    start with a command (help, a typo, nothing) gets the full parser and its message."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (corpus.CorpusError, model.ModelError, evaluation.EvalError, EncoderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
