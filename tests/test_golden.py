"""Golden digests: small CLI pipelines must reproduce committed artifact bytes.

Criterion 8 checks that two runs in one process agree, so a change that moves
every byte the same way passes it. This test pins the bytes themselves: it runs
ingest, split, train, evaluate (four methods) and the four queries on
criterion 8's 60-product corpus (warm mov with dropout 0.2, cold cnn, and a
fine-tuned pretrained table under mov and under cnn) and compares the SHA-256
of every artifact and of the stdout of ingest, split and the queries with
`golden_digests.json`.

A change that moves bytes on purpose regenerates the file with
`PYTHONPATH=src python tests/test_golden.py`. Before it rewrites the file, it
prints `key: old -> new` for every digest that moved; log those lines.
The file records the numpy and OpenBLAS versions it was computed with, since
another BLAS build may round differently.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from bastext import cli, corpus
from bastext.synthetic import make_planted_corpus

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
METHODS = ("bastext", "pop", "itemknn", "prod2vec")
TRAIN = ["--k", "16", "--epochs", "3", "--batch-size", "256", "--patience", "100"]
FINETUNE = ["--k", "8", "--epochs", "4", "--batch-size", "256", "--patience", "100",
            "--lr", "5e-3", "--dropout", "0.2", "--finetune-pretrained"]
PIPELINES = {
    "warm-mov": dict(split=[], mode=[], train=[*TRAIN, "--dropout", "0.2"]),
    "cold-cnn": dict(split=["--cold", "--cold-fraction", "0.25"], mode=["--cold"],
                     train=[*TRAIN, "--encoder", "cnn", "--dropout", "0.2"]),
    "finetune": dict(split=[], mode=[], vectors=True, train=FINETUNE),
    "finetune-cnn": dict(split=[], mode=[], vectors=True, train=[*FINETUNE, "--encoder", "cnn"]),
}


def versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": f"{blas['name']} {blas.get('version')}"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> str:
    """Runs one CLI command in-process; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    assert rc == 0, argv
    return out.getvalue()


def pipeline_digests(work: Path, name: str) -> dict[str, str]:
    spec = PIPELINES[name]
    catalog, baskets, _, _ = make_planted_corpus(
        num_products=60, num_communities=2, group_sizes=(10, 10, 10),
        num_baskets=400, basket_size=5, seed=0)
    raw, out = work / "raw", work / "run"
    raw.mkdir(parents=True)
    corpus.write_canonical(catalog, baskets, raw / "catalog.tsv", raw / "baskets.txt")
    digests = {}
    digests["stdout/ingest"] = _sha(_run(["ingest", "--format", "canonical", raw / "catalog.tsv",
                                          raw / "baskets.txt", "--out", out]).encode())
    digests["stdout/split"] = _sha(_run(["split", *spec["split"], "--out", out]).encode())
    train = list(spec["train"])
    if spec.get("vectors"):
        rng = np.random.default_rng(8)
        words = corpus.build_vocabulary(corpus.read_catalog(out / "corpus" / "catalog.tsv"))
        vectors = work / "vectors.txt"
        vectors.write_text("".join(f"{w} {' '.join(f'{x:.4f}' for x in rng.normal(size=4))}\n"
                                   for w in words.words()), encoding="utf-8")
        train += ["--pretrained", vectors]
    _run(["train", *spec["mode"], *train, "--out", out])
    for method in METHODS:
        _run(["evaluate", *spec["mode"], "--method", method, "--out", out])
    ids = catalog.external_ids()
    queries = {"similar": [ids[0]], "alsobuy": [ids[1]], "search": [catalog.products[2].title],
               "next": [ids[3], ids[4]]}
    for query, args in queries.items():
        digests[f"stdout/{query}"] = _sha(_run([query, *args, "--out", out]).encode())
    mode = "cold" if spec["mode"] else "warm"
    files = ["corpus/catalog.tsv", "corpus/baskets.txt", f"splits/{mode}.manifest",
             "models/model.bin"]
    files += [f"reports/{m}.{ext}" for m in METHODS for ext in ("json", "txt")]
    for rel in files:
        digests[rel] = _sha((out / rel).read_bytes())
    return {f"{name}/{key}": value for key, value in sorted(digests.items())}


def all_digests(work: Path) -> dict[str, str]:
    out = {}
    for name in PIPELINES:
        out.update(pipeline_digests(work / name, name))
    return out


def test_golden_digests(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    got = all_digests(tmp_path)
    capsys.readouterr()
    moved = sorted(k for k in golden["digests"].keys() | got.keys()
                   if golden["digests"].get(k) != got.get(k))
    assert not moved, (f"bytes moved for {moved}; recorded with {golden['versions']}, "
                       f"running {versions()}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        digests = all_digests(Path(d))
    old = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
    for key in sorted(old.keys() | digests.keys()):
        if old.get(key) != digests.get(key):
            print(f"{key}: {old.get(key)} -> {digests.get(key)}", file=sys.stderr)
    GOLDEN.write_text(json.dumps({"versions": versions(), "digests": digests},
                                 indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
