"""The seeded generators' draws: pinned digests, and the bulk draws against
the per-element ``random.Random`` calls they replace."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexmart import (
    TrialConfig,
    build_dyadic_space,
    build_mary_space,
    generate_exponent,
    generate_martingale,
)
from vexmart.experiments import _gausses, _randoms, _signs, _violation_draw

# dyadic depths 0-4 and the 9-leaf 3-ary space, whose gauss count is odd
GOLDEN_SPACES = [build_dyadic_space(d) for d in range(5)] + [build_mary_space(3, 2)]

# sha256 of the float.hex values over GOLDEN_SPACES x seeds 0-3
GOLDEN = {
    "iid-uniform": "c21c68edc4a6d76b8228ddc3116cb4f392956632c4d9800ded6464b2b3ebf609",
    "block-structured": "71303cfda879e636b26d713f70a4705cd6c746f60de1870d16fdef29d3f16a26",
    "normal": "cf5d8712656624d72a64cda5649a0be2d409487665af8c0f130d46624ca71388",
    "uniform": "77fbb6e7267b91e8d697fef597e2b012d38a0dd415a954201a7bac24e2e7575d",
    "two-point": "0f1c6f28ba2e802745f401f5e0e65fea336df7d904c5cb31e01805e3e44182c2",
    "violation": "1af0a20444b45bc662213a249f80c3ad9620be15ce825014349eafe4386102dd",
}


def _draw(kind, space, seed):
    if kind in ("iid-uniform", "block-structured"):
        return generate_exponent(space, kind, (1.1, 3.0), seed).vals
    if kind == "violation":
        fv, p = _violation_draw(TrialConfig(space, seed=seed), seed)
        return np.concatenate([fv, p.vals])
    cfg = TrialConfig(space, seed=seed, martingale_law=kind)
    return generate_martingale(cfg, seed).terminal


def _digest(kind):
    vals = [
        float.hex(x)
        for space in GOLDEN_SPACES
        for seed in range(4)
        for x in _draw(kind, space, seed).tolist()
    ]
    return hashlib.sha256(" ".join(vals).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_seeded_draws_match_pinned_digests(kind):
    assert _digest(kind) == GOLDEN[kind]


def _hexes(values):
    return [float.hex(float(x)) for x in values]


def _generator_pair(seed, pending):
    """Two generators in the same state, having drawn one gauss when
    ``pending``, so a second gauss is waiting in gauss_next."""
    pair = random.Random(seed), random.Random(seed)
    if pending:
        for rng in pair:
            rng.gauss()
    return pair


draw_cases = given(
    n=st.integers(0, 300),
    seed=st.one_of(st.integers(0, 2**64), st.text(max_size=8)),
    pending=st.booleans(),
)


@settings(max_examples=150, deadline=None)
@draw_cases
def test_bulk_randoms_and_uniforms_are_the_per_element_draws(n, seed, pending):
    bulk, each = _generator_pair(seed, pending)
    assert _hexes(_randoms(bulk, n)) == _hexes([each.random() for _ in range(n)])
    assert bulk.getstate() == each.getstate()
    # uniform(lo, hi) is lo + (hi - lo) * random(), the same in numpy
    for lo, hi in ((1.1, 3.0), (-1.0, 1.0)):
        got = lo + (hi - lo) * _randoms(bulk, n)
        assert _hexes(got) == _hexes([each.uniform(lo, hi) for _ in range(n)])
        assert bulk.getstate() == each.getstate()


@settings(max_examples=150, deadline=None)
@draw_cases
def test_bulk_gausses_are_the_per_element_draws(n, seed, pending):
    bulk, each = _generator_pair(seed, pending)
    assert _hexes(_gausses(bulk, n)) == _hexes([each.gauss(0.0, 1.0) for _ in range(n)])
    # the state includes gauss_next, so a value left pending is the same too
    assert bulk.getstate() == each.getstate()
    assert bulk.gauss() == each.gauss()


@settings(max_examples=150, deadline=None)
@draw_cases
def test_bulk_signs_are_the_per_element_choices(n, seed, pending):
    bulk, each = _generator_pair(seed, pending)
    got = _signs(bulk, n)
    assert got.dtype == float and got.shape == (n,)
    assert _hexes(got) == _hexes([each.choice((-1.0, 1.0)) for _ in range(n)])
