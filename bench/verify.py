"""Independent check of the evaluation reports a workload wrote.

Rebuilds each scorer the way `bastext evaluate` does, scores every test case,
ranks the pool with a brute-force stable `argsort` (ties by ascending id) and
recomputes Recall@N and MRR@N. They must equal the numbers in
`reports/<method>.json`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOLERANCE = 1e-12  # one changed rank moves a metric by at least 1 / cases


def _scorer(method: str, out: Path, split, catalog):
    from bastext import baselines, model

    if method == "bastext":
        state = model.load_model(out / "models" / "model.bin")
        vectors = model.materialize_product_vectors(state, catalog)
        bias = float(state.bias[0]) if state.config.use_bias else 0.0
        return model.BastextScorer(vectors, bias)
    if method == "pop":
        return baselines.PopModel.fit(split.train, len(catalog))
    return baselines.ItemKnnModel.fit(split.train, len(catalog))


def brute_force_ranks(scorer, cases, num_products: int) -> np.ndarray:
    ranks = np.empty(len(cases))
    for i, case in enumerate(cases):
        order = np.argsort(-scorer.score_all(case.context_ids), kind="stable")
        in_pool = np.ones(num_products, dtype=bool)
        in_pool[case.context_ids] = False
        pos = np.flatnonzero(order[in_pool[order]] == case.held_out_id)
        ranks[i] = pos[0] + 1 if len(pos) else np.inf
    return ranks


def check_reports(out: Path, cold: bool, methods) -> tuple[list[str], dict]:
    """Returns (errors, facts) for the reports of `methods` under run directory `out`.

    `methods` may hold bastext, pop and itemknn, the scorers `_scorer` rebuilds.
    """
    from bastext import corpus, evaluation

    catalog, baskets, _ = corpus.import_dataset(
        "canonical", [out / "corpus" / "catalog.tsv", out / "corpus" / "baskets.txt"])
    split = corpus.load_split_manifest(
        out / "splits" / f"{'cold' if cold else 'warm'}.manifest", catalog, baskets)
    cases = evaluation.form_test_cases(split)
    errors, facts = [], {}
    for method in methods:
        report = json.loads((out / "reports" / f"{method}.json").read_text())
        ranks = brute_force_ranks(_scorer(method, out, split, catalog), cases, len(catalog))
        if report["num_test_cases"] != len(cases):
            errors.append(f"{method}: report has {report['num_test_cases']} cases, "
                          f"split gives {len(cases)}")
        for n in (10, 20):
            expected = {f"recall@{n}": float(np.mean(ranks <= n)),
                        f"mrr@{n}": float(np.mean(np.where(ranks <= n, 1.0 / ranks, 0.0)))}
            for key, value in expected.items():
                got = report["metrics"].get(key)
                if got is None or abs(got - value) > TOLERANCE:
                    errors.append(f"{method}: {key} reported {got}, brute force {value}")
        facts[f"{method}.recall20"] = float(np.mean(ranks <= 20))
    pool = len(catalog) - float(np.mean([len(c.context_ids) for c in cases]))
    facts["random.recall20"] = 20.0 / pool
    facts["cases"] = len(cases)
    return errors, facts
