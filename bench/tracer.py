"""Span tracing for the traced run, installed from outside the program.

`Tracer.install` wraps every function defined in the traced `bastext` modules,
plus `fit` and `score_all` of the classes there, and rebinds each wrapper on
every module attribute that held the original, so that names a module
imported from another (`model.encode_batch`, `model.encode_catalog`, ...) are
traced too. Calls resolve the name at call time, so the wrappers see every
call. Spans are kept in memory as [name, start, end, parent, command, count]
and written out once the run ends. `layer_metrics` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("corpus", "encoders", "model", "evaluation", "baselines", "cli")
TRACED_METHODS = ("fit", "score_all")
# Called once per product on every corpus load; its time stays inside the
# caller's span (import_dataset) instead of adding one span per title.
UNTRACED = {"corpus.tokenize"}


def _rows(token_ids, *args, **kwargs):
    return len(token_ids)


def _encode_rows(params, table, token_ids, *args, **kwargs):
    return len(token_ids)


def _loss_slots(state, token_ids, cand_ids, ex_ctx, ctx_flat, *args, **kwargs):
    return len(cand_ids) + len(ctx_flat)


def _bitmap_bytes(basket_rows, basket_members, n, num_products, rng):
    return len(np.unique(basket_rows)) * num_products


# Work counted at a span's entry, before its clock starts.
COUNTERS = {
    "encoders._mean_matrix": _rows,
    "encoders.encode_batch": _encode_rows,
    "model._loss_arrays": _loss_slots,
    "model._sample_negative_matrix": _bitmap_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = count(*args, **kwargs) if count is not None else 0
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.command, work])
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid][1] = start
                spans[sid][2] = end

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        modules = [getattr(package, m) for m in TRACED_MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{short}.{attr}" not in UNTRACED:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                    self._set(mod, attr, wrappers[obj])
                elif inspect.isclass(obj):
                    for meth in TRACED_METHODS:
                        raw = obj.__dict__.get(meth)
                        name = f"{short}.{attr}.{meth}"
                        if isinstance(raw, classmethod):
                            self._set(obj, meth, classmethod(self._wrap(name, raw.__func__)))
                        elif inspect.isfunction(raw):
                            self._set(obj, meth, self._wrap(name, raw))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# Spans whose busy time is a train-layer metric (restricted to train commands).
TRAIN_BUSY = ("model._sample_negative_matrix", "model.adam_step", "model._validation_recall",
              "model.save_model", "corpus.import_dataset", "corpus.load_split_manifest")
FIT_SPANS = {"pop": "baselines.PopModel.fit", "itemknn": "baselines.ItemKnnModel.fit",
             "prod2vec": "baselines.Prod2vecModel.fit"}


def layer_metrics(spans: list[list], commands: list[dict], num_products: int) -> dict[str, float]:
    """Per-layer busy times, self times and counts from one traced round.

    `commands[i]` describes the command that ran while `Tracer.command == i`:
    its `label` ("train", "evaluate:pop", "similar", ...), its wall time `wall`
    measured outside the spans and, for train, the `epochs` it ran.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    cmd = np.array([s[4] for s in spans], dtype=np.int64)
    work = np.array([s[5] for s in spans], dtype=np.int64)
    child_time = np.zeros(n)
    children = defaultdict(list)
    by_name = defaultdict(list)
    for i in range(n):
        by_name[names[i]].append(i)
        if parent[i] >= 0:
            child_time[parent[i]] += dur[i]
            children[parent[i]].append(i)
    self_time = dur - child_time
    label = [commands[c]["label"] for c in cmd]

    def pick(name, where=None):
        return [i for i in by_name[name] if where is None or where(i)]

    def busy(name):
        return float(dur[pick(name)].sum())

    def in_label(prefix):
        return lambda i: label[i].startswith(prefix)

    def under(parent_name):
        return lambda i: parent[i] >= 0 and names[parent[i]] == parent_name

    def towers(fn):
        """Busy time of tower E (first call) and C (second call) inside each loss span."""
        e = c = 0.0
        for loss in pick("model._loss_arrays"):
            calls = [i for i in children[loss] if names[i] == fn]
            e += dur[calls[0]]
            c += dur[calls[1]]
        return float(e), float(c)

    out: dict[str, float] = {}
    query_cmds = [i for i in range(n) if parent[i] >= 0 and names[parent[i]] == "cli.main"
                  and names[i] in ("cli.cmd_similar", "cli.cmd_alsobuy", "cli.cmd_search",
                                   "cli.cmd_next")]
    load = busy("cli._load_for_query")
    out["cli.query.load_s"] = load
    out["cli.query.rest_s"] = float(dur[query_cmds].sum()) - load
    out["cli.query.calls"] = len(query_cmds)
    out["corpus.import_dataset.s"] = busy("corpus.import_dataset")
    out["corpus.import_dataset.calls"] = len(pick("corpus.import_dataset"))
    out["corpus.load_split_manifest.s"] = busy("corpus.load_split_manifest")
    out["corpus.split.s"] = busy("corpus.split_warm") + busy("corpus.split_cold")
    out["corpus.encode_catalog.s"] = busy("corpus.encode_catalog")

    out["model.batch_assembly.self_s"] = float(self_time[pick("model.train")].sum())
    out["model.loss.self_s"] = float(self_time[pick("model._loss_arrays")].sum())
    sample = pick("model._sample_negative_matrix")
    out["model.sample.s"] = float(dur[sample].sum())
    out["model.sample.calls"] = len(sample)
    out["model.sample.bitmap_mb_max"] = float(work[sample].max(initial=0)) / 1e6
    out["model.sample.bitmap_mb_sum"] = float(work[sample].sum()) / 1e6
    out["model.adam.s"] = busy("model.adam_step")
    out["model.validate.s"] = busy("model._validation_recall")
    out["model.materialize.s"] = busy("model.materialize_product_vectors")
    out["model.materialize.calls"] = len(pick("model.materialize_product_vectors"))
    out["model.save.s"] = busy("model.save_model")
    out["model.load.s"] = busy("model.load_model")

    out["encoders.forward_E.s"], out["encoders.forward_C.s"] = towers("encoders.encode_batch")
    out["encoders.backward_E.s"], out["encoders.backward_C.s"] = towers(
        "encoders.backward_batch")
    mean = pick("encoders._mean_matrix")
    out["encoders.mean_matrix.s"] = float(dur[mean].sum())
    out["encoders.mean_matrix.rows"] = int(work[mean].sum())
    train_epochs = sum(c.get("epochs", 0) for c in commands if c["label"] == "train")
    train_rows = int(work[pick("encoders._mean_matrix", in_label("train"))].sum())
    out["encoders.mean_matrix.rows_per_m_epoch"] = (
        train_rows / (num_products * train_epochs) if train_epochs else 0.0)
    losses = pick("model._loss_arrays")
    fwd_rows = sum(int(work[i]) for loss in losses for i in children[loss]
                   if names[i] == "encoders.encode_batch")
    slots = int(work[losses].sum())
    out["encoders.forward.rows"] = fwd_rows
    out["encoders.forward.slots"] = slots
    out["encoders.forward.rows_per_slot"] = fwd_rows / slots if slots else 0.0

    score_total = rank_total = 0.0
    for m in ("bastext", "pop", "itemknn", "prod2vec"):
        ranks = pick("evaluation.compute_ranks", in_label(f"evaluate:{m}"))
        score = float(sum(dur[i] for r in ranks for i in children[r]
                          if names[i].endswith(".score_all")))
        out[f"evaluation.score.{m}.s"] = score
        out[f"evaluation.rank.{m}.self_s"] = float(dur[ranks].sum()) - score
        score_total += score
        rank_total += float(dur[ranks].sum()) - score
    out["evaluation.score.s"] = score_total
    out["evaluation.rank.self_s"] = rank_total
    for m, span in FIT_SPANS.items():
        out[f"baselines.{m}.fit_s"] = busy(span)

    # The share of the train commands' wall time that the train-layer metrics
    # above explain, each span counted once. Time in spans that no metric
    # names (cli code, a module left untraced, a function the metrics do not
    # know) lowers it.
    in_train = in_label("train")
    explained = float(self_time[pick("model.train")].sum()
                      + self_time[pick("model._loss_arrays")].sum())
    explained += sum(float(dur[pick(name, under("model._loss_arrays"))].sum())
                     for name in ("encoders.encode_batch", "encoders.backward_batch"))
    explained += sum(float(dur[pick(name, in_train)].sum()) for name in TRAIN_BUSY)
    explained += float(dur[pick("corpus.encode_catalog", under("model.train"))].sum())
    train_wall = sum(c["wall"] for c in commands if c["label"] == "train")
    out["train.self_coverage"] = explained / train_wall if train_wall else 0.0
    out["trace.spans"] = n
    return out
