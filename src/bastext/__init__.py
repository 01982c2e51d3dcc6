"""Basket-text product embeddings: training, baselines, and ranking evaluation."""

from .corpus import (Baskets, Catalog, DatasetSplit, Product, Vocabulary, build_vocabulary,
                     encode_catalog, import_dataset, split_cold, split_warm, tokenize)
from .encoders import (CnnParams, MovParams, WordInputTable, backward_batch, encode_batch,
                       load_pretrained_vectors)
from .model import (BastextScorer, ModelConfig, ModelState, ProductVectors, adam_step,
                    load_model, materialize_product_vectors, save_model, train)
from .baselines import ItemKnnModel, PopModel, Prod2vecConfig, Prod2vecModel
from .evaluation import (EvalReport, TestCase, TestCases, evaluate, form_test_cases, mrr_at_n,
                         rank_candidates, recall_at_n)

__version__ = "0.1.0"
