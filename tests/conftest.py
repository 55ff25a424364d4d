import math
import random

import numpy as np
import pytest

from vexmart import Exponent, build_dyadic_space, serialize, validate_filtration


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
    levels = [
        [[perm[i] for i in b] for b in level]
        for level in serialize.space_to_json(space)["levels"]
    ]
    for level in levels:
        rng.shuffle(level)
    probs = [0.0] * space.n_leaves
    for i, p in enumerate(space.probs.tolist()):
        probs[perm[i]] = p
    return levels, probs


def children_of(space):
    """For each level n < N, block position -> child block positions at
    level n+1, ascending, read off ``block_of``."""
    return [
        [sorted({int(c) for c, a in zip(fine, coarse) if a == b}) for b in range(k)]
        for coarse, fine, k in zip(space.block_of, space.block_of[1:], space.n_blocks)
    ]


def drop_root_level(space):
    """The space without its level 0: a filtration whose first level may
    have several blocks, so the tree is a forest."""
    obj = serialize.space_to_json(space)
    return validate_filtration(obj["levels"][1:], obj["leaf_probs"])


def stopped_diffs_oracle(f, taus, shift="minus-one"):
    """(f - f^{tau-1})_N with f_{-1} = 0, or (f - f^tau)_N for shift
    "none", per row of a matrix of stop levels: leaf by leaf, f_N minus
    the leaf's own value at level min(tau - 1, N) or min(tau, N)."""
    taus = np.asarray(taus, dtype=float)
    back = 1.0 if shift == "minus-one" else 0.0
    out = np.empty(taus.shape)
    for x in range(f.space.n_leaves):
        path = f.arrays[:, x]
        level = np.minimum(taus[:, x] - back, f.space.depth)
        stopped = np.where(level < 0, 0.0, path[np.maximum(level, 0).astype(int)])
        out[:, x] = path[-1] - stopped
    return out


def scan_levels(scan, depth):
    """The stop levels of a scan's rows (inf for 'never'), read back from
    its cells and codes, after checking that every cell lies at its own
    leaf, and in the row of tau = inf exactly off the row's mask, the bits
    of its code with leaf 0 on top."""
    n = scan.cells.shape[1]
    level, leaf = np.divmod(scan.cells, n)
    assert np.array_equal(leaf, np.broadcast_to(np.arange(n), leaf.shape))
    finite = (scan.codes[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 1
    assert np.array_equal(level == depth + 1, ~finite)
    return np.where(finite, level, math.inf)


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


def bisection_oracle(probs, pvals, f) -> float:
    """Plain bisection on lambda -> rho(f/lambda), independent of the
    package's kernel; +inf entries of p impose |f| <= lambda instead."""
    v = np.abs(np.asarray(f, dtype=float))
    if not v.any():
        return 0.0
    inf = np.isinf(pvals)

    def feasible(lam):
        if np.any(v[inf] > lam):
            return False
        return float(np.sum(probs[~inf] * (v[~inf] / lam) ** pvals[~inf])) <= 1.0

    hi = float(v.max())  # feasible on a probability space
    lo = hi
    while feasible(lo):
        lo *= 0.5
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
