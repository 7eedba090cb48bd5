"""Property tests: the exact less-noisy test against the degradation LP and the sampled refuter.

W is drawn square and diagonally dominant, hence invertible.  V is drawn
square, singular (a repeated row), non-square or erasure, and half the time
is replaced by W V, which is degraded from W by construction.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from channel_order.channels import Channel, Pmf, erasure_channel
from channel_order.divergences import kl
from channel_order.preorders import (
    DivergencePairWitness,
    LoewnerWitness,
    Status,
    chi2_violation_pair,
    is_degraded,
    less_noisy_exact,
    less_noisy_sampled,
    loewner_gap,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def _stochastic_rows(draw, rows: int, cols: int) -> np.ndarray:
    raw = draw(arrays(np.float64, (rows, cols), elements=st.floats(0.05, 1.0), unique=True))
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def channel_pairs(draw):
    q = draw(st.integers(2, 5))
    t = draw(st.floats(0.05, 0.45))
    w = (1.0 - t) * np.eye(q) + t * _stochastic_rows(draw, q, q)
    kind = draw(st.sampled_from(("square", "singular", "nonsquare", "erasure")))
    if kind == "square":
        v = _stochastic_rows(draw, q, q)
    elif kind == "singular":
        v = _stochastic_rows(draw, q, q)
        v[-1] = v[0]
    elif kind == "nonsquare":
        cols = draw(st.sampled_from([s for s in (q - 1, q + 1, q + 2) if s > 1]))
        v = _stochastic_rows(draw, q, cols)
    else:
        v = erasure_channel(q, draw(st.floats(0.05, 0.95))).matrix
    if draw(st.booleans()):
        v = w @ v
    return Channel(w), Channel(v)


@PROPERTY_SETTINGS
@given(channel_pairs())
def test_degraded_implies_exact_dominates(pair):
    w, v = pair
    if is_degraded(w, v).dominates:
        assert less_noisy_exact(w, v).dominates


@PROPERTY_SETTINGS
@given(channel_pairs())
def test_sampled_refutation_implies_exact_fails(pair):
    w, v = pair
    if less_noisy_sampled(w, v, samples=20).status is Status.FAILS:
        assert less_noisy_exact(w, v).status is Status.FAILS


@PROPERTY_SETTINGS
@given(channel_pairs())
def test_exact_refutations_reverify(pair):
    w, v = pair
    verdict = less_noisy_exact(w, v)
    if verdict.status is not Status.FAILS:
        return
    witness = verdict.witness
    if isinstance(witness, DivergencePairWitness):
        p, q = witness.p, witness.q
        under_w = kl(Pmf(p @ w.matrix), Pmf(q @ w.matrix))
        under_v = kl(Pmf(p @ v.matrix), Pmf(q @ v.matrix))
        assert under_v > under_w
        return
    assert isinstance(witness, LoewnerWitness)
    assert np.all(witness.pmf > 0)
    assert loewner_gap(w, v, witness.pmf) < 0
    _, _, gap = chi2_violation_pair(w, v, witness)
    assert gap < 0
