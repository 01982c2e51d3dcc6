"""The benchmark's workloads and the seeded inputs each one runs on.

Every workload is a closed loop with one client: a single process that runs
`bastext` CLI commands one after another. The seed passed on the command line
selects the generated corpus and the queries; the CLI itself runs with its
default `--seed`, so the program receives only the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

MIN_QUERIES = 100  # per timed run, so that p90 has 10 samples beyond it
QUERY_KINDS = ("similar", "alsobuy", "search", "next")
SETUP_REPS = 3  # ingest + split repetitions per round behind the setup_s median
EVAL_REPS = 2  # evaluate passes per round, spread between the round's queries


METHODS = ("bastext", "pop", "itemknn")  # evaluated in every round of every workload


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "planted" (make_planted_corpus defaults) | "random"
    cold: bool
    train_args: tuple[str, ...]
    queries_per_round: int
    split_args: tuple[str, ...] = ()
    num_products: int = 0  # random corpus only
    num_baskets: int = 0  # random corpus only
    traced_methods: tuple[str, ...] = ()  # evaluated only in traced runs
    recall_guard: bool = False  # bastext Recall@20 must beat random by 5x

    def fingerprint(self) -> str:
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()[:16]


PLANTED_TRAIN = ("--k", "32", "--batch-size", "256", "--lr", "2e-3", "--dropout", "0.0",
                 "--epochs", "1", "--patience", "1")

# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("planted-warm-mov", "planted", cold=False, train_args=PLANTED_TRAIN,
             queries_per_round=20, traced_methods=("prod2vec",), recall_guard=True),
    Workload("wide-warm-mov", "random", cold=False, train_args=("--epochs", "1"),
             queries_per_round=16, num_products=3000, num_baskets=1500),
    Workload("planted-cold-cnn", "planted", cold=True,
             train_args=("--encoder", "cnn", "--epochs", "1"), queries_per_round=20,
             split_args=("--cold-fraction", "0.25")),
)}


def write_inputs(workload: Workload, seed: int, raw_dir: Path):
    """Generate the workload's corpus from `seed` as canonical raw files; returns the catalog."""
    from bastext.corpus import write_canonical
    from bastext.synthetic import make_planted_corpus, make_random_corpus

    if workload.corpus == "planted":
        catalog, baskets, _, _ = make_planted_corpus(seed=seed)
    else:
        catalog, baskets = make_random_corpus(workload.num_products, workload.num_baskets,
                                              seed=seed)
    raw_dir.mkdir(parents=True, exist_ok=True)
    write_canonical(catalog, baskets, raw_dir / "catalog.tsv", raw_dir / "baskets.txt")
    return catalog


def draw_queries(catalog, seed: int) -> list[list[str]]:
    """MIN_QUERIES query commands, cycling through the four kinds, drawn from `seed`."""
    rng = np.random.default_rng([seed, 7])
    ids = catalog.external_ids()
    queries = []
    for i in range(MIN_QUERIES):
        kind = QUERY_KINDS[i % len(QUERY_KINDS)]
        if kind == "search":
            args = [catalog.products[int(rng.integers(len(ids)))].title]
        elif kind == "next":
            args = [ids[j] for j in rng.choice(len(ids), size=2, replace=False)]
        else:
            args = [ids[int(rng.integers(len(ids)))]]
        queries.append([kind, *args])
    return queries
