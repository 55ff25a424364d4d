import random

import numpy as np
import pytest

from vexmart import Exponent, build_dyadic_space, validate_filtration


def random_tree_space(rng: random.Random, max_leaves: int = 12, max_depth: int = 4):
    """Random atom filtration: start from the trivial partition and split
    blocks randomly until every block is a singleton, with random positive
    leaf probabilities normalized to 1."""
    n = rng.randint(2, max_leaves)
    raw = [rng.uniform(0.1, 1.0) for _ in range(n)]
    total = sum(raw)
    probs = [x / total for x in raw]
    # fix the rounding drift on the last leaf so the sum is exactly 1.0
    probs[-1] = 1.0 - sum(probs[:-1])

    levels = [[list(range(n))]]
    while any(len(b) > 1 for b in levels[-1]):
        nxt = []
        for block in levels[-1]:
            if len(block) == 1 or (len(levels) > 1 and rng.random() < 0.3
                                   and len(levels) < max_depth):
                nxt.append(list(block))
                continue
            cut = rng.randint(1, len(block) - 1)
            nxt.append(block[:cut])
            nxt.append(block[cut:])
        if nxt == levels[-1]:
            nxt = [[leaf] for b in levels[-1] for leaf in b]
        levels.append(nxt)
    return validate_filtration(levels, probs)


def relabelled_levels(space, rng: random.Random):
    """The space's levels and leaf probabilities as nested lists, with the
    leaves renamed by a random permutation, so blocks are not runs of
    consecutive leaves and their leaves are not listed in order, and with
    each level's blocks listed in random order."""
    perm = list(range(space.n_leaves))
    rng.shuffle(perm)
    levels = [[[perm[i] for i in b] for b in level] for level in space.levels]
    for level in levels:
        rng.shuffle(level)
    probs = [0.0] * space.n_leaves
    for i, p in enumerate(space.leaf_probs):
        probs[perm[i]] = p
    return levels, probs


def random_exponent(rng: random.Random, n: int, lo: float = 1.1, hi: float = 3.0):
    return Exponent(tuple(rng.uniform(lo, hi) for _ in range(n)))


@pytest.fixture
def two_leaf():
    return build_dyadic_space(1)


@pytest.fixture
def four_leaf():
    return build_dyadic_space(2)


def lp_norm(probs, values, p0: float) -> float:
    """Independent closed-form constant-exponent norm."""
    return float((np.abs(np.asarray(values)) ** p0 @ np.asarray(probs)) ** (1 / p0))
