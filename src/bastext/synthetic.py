"""Synthetic corpora with planted structure, used by tests and demo scripts.

Products are organized into communities, each partitioned into small groups of
products that are always bought together. Titles carry a community token, a
group token, and a product-unique token, so both the co-occurrence structure
and the title text identify a product's group.
"""

from __future__ import annotations

import numpy as np

from .corpus import Baskets, Catalog

# Default partition of each community into co-purchase groups. A mix of a few
# group sizes keeps every group large enough to fill a basket while keeping
# the total number of groups comfortably below the embedding width, which is
# what makes the structure recoverable at small K.
DEFAULT_GROUP_SIZES = (8,) * 10 + (5,) * 4


def make_planted_corpus(num_products: int = 200, num_communities: int = 2,
                        group_sizes: tuple[int, ...] = DEFAULT_GROUP_SIZES,
                        num_baskets: int = 5000, basket_size: int = 5,
                        seed: int = 1):
    """Returns (catalog, baskets, community_of_product, groups).

    Baskets are drawn by picking a group uniformly and sampling `basket_size`
    of its members, so every basket stays within one community.
    """
    if num_products % num_communities:
        raise ValueError("num_products must divide evenly into communities")
    per_comm = num_products // num_communities
    group_sizes = tuple(int(s) for s in group_sizes)
    if sum(group_sizes) != per_comm:
        raise ValueError(f"group sizes must sum to {per_comm} per community")
    if basket_size > min(group_sizes):
        raise ValueError("basket_size cannot exceed the smallest group size")

    rng = np.random.default_rng(seed)
    labels = [(c, g) for c in range(num_communities) for g, size in enumerate(group_sizes)
              for _ in range(size)]  # (community, group) of each product
    catalog = Catalog([f"p{pid}" for pid in range(num_products)],
                      [f"comm{c} grp{c}x{g} item{pid}" for pid, (c, g) in enumerate(labels)])
    community = np.array([c for c, _ in labels], dtype=np.int64)
    groups = np.split(np.arange(num_products, dtype=np.int64),
                      np.cumsum(group_sizes * num_communities)[:-1])

    members = [np.sort(rng.choice(groups[rng.integers(len(groups))], size=basket_size,
                                  replace=False)) for _ in range(num_baskets)]
    baskets = Baskets.from_lists(members, [f"s{i}" for i in range(num_baskets)])
    return catalog, baskets, community, groups


def make_random_corpus(num_products: int, num_baskets: int, max_basket: int = 8,
                       seed: int = 0):
    """Uniformly random corpus (no structure), for invariant and oracle tests."""
    rng = np.random.default_rng(seed)
    catalog = Catalog([f"p{p}" for p in range(num_products)],
                      [" ".join(f"w{rng.integers(num_products)}" for _ in range(3))
                       for _ in range(num_products)])
    members = [np.sort(rng.choice(num_products, size=int(rng.integers(2, max_basket + 1)),
                                  replace=False)) for _ in range(num_baskets)]
    return catalog, Baskets.from_lists(members, [f"s{i}" for i in range(num_baskets)])
