"""Divergence, contraction, and KL/chi-squared bridge tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_order import channels
from channel_order.channels import (
    Channel,
    Pmf,
    point_mass,
    symmetric_channel,
    symmetric_eigenvalue,
    symmetric_matrix,
    symmetric_noise_pmf,
    uniform_pmf,
)
from channel_order.dirichlet import estimate_lsi_constant
from channel_order.divergences import (
    _kl_chi2_rows,
    chi2,
    eta_kl_bounds,
    eta_tv,
    kl,
    kl_chi2_integral_check,
    kl_chi2_local_check,
    maximal_correlation,
    shannon_entropy,
    tv_distance,
)
from channel_order.groups import circulant, cyclic_group

LOG2 = math.log(2.0)


def constant_channel(q):
    return Channel(np.full((q, q), 1.0 / q))


@st.composite
def pmf_stacks_with_zeros(draw):
    """Two stacks of 1-4 pmfs on 1-12 letters; about a third of the entries are zero."""
    n, rows = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    entries = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n)
    stack = []
    for _ in range(2 * rows):
        raw = np.array(draw(entries.filter(lambda xs: sum(xs) > 0)))
        stack.append(raw / raw.sum())
    return np.array(stack[:rows]), np.array(stack[rows:])


@settings(max_examples=40, deadline=None)
@given(pmf_stacks_with_zeros())
def test_divergence_conventions(stacks):
    ps, qs = stacks
    kls, chis = _kl_chi2_rows(ps, qs)
    for p, q, stacked_kl, stacked_chi2 in zip(ps, qs, kls, chis):
        d_kl, d_chi2 = kl(p, q), chi2(p, q)
        assert np.float64(d_kl).tobytes() == stacked_kl.tobytes()
        assert np.float64(d_chi2).tobytes() == stacked_chi2.tobytes()
        support = [(a, b) for a, b in zip(p.tolist(), q.tolist()) if a > 0]
        singular = any(b == 0 for _, b in support)
        assert math.isinf(d_kl) == singular and math.isinf(d_chi2) == singular
        if not singular:
            ref_kl = sum(a * math.log(a / b) for a, b in support)
            ref_chi2 = sum(a * a / b for a, b in support) - 1.0
            assert abs(d_kl - ref_kl) <= 1e-12 * max(1.0, abs(ref_kl))
            assert abs(d_chi2 - ref_chi2) <= 1e-12 * max(1.0, abs(ref_chi2))


def test_kl_examples():
    assert kl([1, 0], [0.5, 0.5]) == pytest.approx(LOG2, abs=1e-12)
    assert kl([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert math.isinf(kl([0.5, 0.5], [1, 0]))
    assert not kl([0.5, 0.5], [1, 0]).is_finite


def test_chi2_examples():
    assert chi2([1, 0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert chi2([0.3, 0.7], [0.3, 0.7]) == 0.0
    got = chi2(symmetric_noise_pmf(3, 0.2), uniform_pmf(3))
    assert got == pytest.approx(0.98, abs=1e-12)


def test_chi2_against_uniform_is_scaled_squared_norm():
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(q))
        expected = q * float(np.sum((p - 1.0 / q) ** 2))
        assert chi2(Pmf(p), uniform_pmf(q)) == pytest.approx(expected, abs=1e-12)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        kl([1, 0], [0.5, 0.25, 0.25])


def test_tv_examples():
    assert tv_distance([1, 0], [0, 1]) == 1.0
    assert tv_distance([0.4, 0.6], [0.4, 0.6]) == 0.0
    assert tv_distance([0.8, 0.1, 0.1], [0.1, 0.8, 0.1]) == pytest.approx(0.7, abs=1e-15)


def test_eta_tv_examples():
    assert eta_tv(symmetric_channel(3, 0.2)) == pytest.approx(0.7, abs=1e-12)
    assert eta_tv(Channel(np.eye(3))) == 1.0
    assert eta_tv(constant_channel(3)) == 0.0


def test_eta_tv_matches_closed_form_for_symmetric():
    for q in (2, 3, 5):
        for delta in np.linspace(0.0, 1.0, 11):
            expected = abs(symmetric_eigenvalue(q, delta))
            assert eta_tv(symmetric_channel(q, delta)) == pytest.approx(expected, abs=1e-12)


def test_maximal_correlation_symmetric_closed_form():
    for q in (2, 3, 5, 10):
        for delta in np.linspace(0.0, 1.0, 11):
            got = maximal_correlation(uniform_pmf(q), symmetric_channel(q, delta))
            assert got == pytest.approx(abs(symmetric_eigenvalue(q, delta)), abs=1e-10)


def test_maximal_correlation_examples():
    assert maximal_correlation(uniform_pmf(4), Channel(np.eye(4))) == pytest.approx(1.0)
    got = maximal_correlation(uniform_pmf(3), symmetric_channel(3, 0.3))
    assert got == pytest.approx(0.55, abs=1e-12)
    with pytest.raises(ValueError):
        maximal_correlation(point_mass(3, 0), symmetric_channel(3, 0.3))


def test_eta_kl_bounds():
    lower, upper = eta_kl_bounds(symmetric_channel(3, 0.2), samples=50, seed=0)
    assert lower >= 0.49 - 1e-12
    assert upper == pytest.approx(0.7, abs=1e-12)
    assert lower <= upper + 1e-12

    lower, upper = eta_kl_bounds(Channel(np.eye(3)), samples=20, seed=0)
    assert lower == pytest.approx(1.0, abs=1e-9)
    assert upper == 1.0

    lower, upper = eta_kl_bounds(constant_channel(3), samples=20, seed=0)
    assert lower == pytest.approx(0.0, abs=1e-12)
    assert upper == 0.0


def test_data_processing_property():
    # divergences never grow through a channel
    rng = np.random.default_rng(11)
    for _ in range(1000):
        q = int(rng.integers(2, 5))
        r = int(rng.integers(2, 5))
        p1 = rng.dirichlet(np.ones(q))
        p2 = rng.dirichlet(np.ones(q))
        w = rng.dirichlet(np.ones(r), size=q)
        out1, out2 = Pmf(p1 @ w), Pmf(p2 @ w)
        assert float(kl(out1, out2)) <= float(kl(Pmf(p1), Pmf(p2))) + 1e-9
        assert float(chi2(out1, out2)) <= float(chi2(Pmf(p1), Pmf(p2))) + 1e-9


def test_entropy():
    assert shannon_entropy(uniform_pmf(4)) == pytest.approx(math.log(4), abs=1e-12)
    assert shannon_entropy(point_mass(5, 2)) == 0.0


def test_local_check_converges_to_chi2():
    report = kl_chi2_local_check([1, 0], [0.5, 0.5], [1e-2, 1e-3, 1e-4])
    assert report.chi2_value == pytest.approx(1.0, abs=1e-12)
    assert report.final_gap <= 1e-3
    # gaps shrink along the sequence
    gaps = [abs(val - report.chi2_value) for _, val in report.entries]
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_local_check_identical_arguments():
    report = kl_chi2_local_check([0.4, 0.6], [0.4, 0.6], [0.1, 0.01])
    assert all(val == 0.0 for _, val in report.entries)
    assert report.chi2_value == 0.0


def test_integral_check_identical_arguments():
    report = kl_chi2_integral_check([0.25, 0.75], [0.25, 0.75], 101)
    assert report.integral_value == pytest.approx(0.0, abs=1e-15)
    assert report.kl_value == 0.0


def test_integral_check_point_mass():
    report = kl_chi2_integral_check([1, 0], [0.5, 0.5], 20001)
    assert report.kl_value == pytest.approx(LOG2, abs=1e-12)
    assert report.relative_error <= 1e-4


def test_integral_check_generic_pair():
    report = kl_chi2_integral_check([0.9, 0.1], [0.2, 0.8], 20001)
    assert report.relative_error <= 1e-4


@pytest.mark.parametrize(
    "call, most",
    [
        (lambda w: estimate_lsi_constant(w, samples=2000, seed=0), 0),
        (lambda w: eta_kl_bounds(w, samples=200, seed=0), 0),
        (lambda w: eta_tv(w), 0),
        (lambda w: kl_chi2_local_check([0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.1, 0.01, 0.001]), 2),
    ],
    ids=["estimate_lsi_constant", "eta_kl_bounds", "eta_tv", "kl_chi2_local_check"],
)
def test_estimators_validate_their_inputs_once(monkeypatch, call, most):
    # a Channel is validated when built; the estimators score their draws
    # without building a Pmf or Channel per draw
    w = symmetric_channel(3, 0.4)
    calls = []
    check = channels.pmf_rows
    monkeypatch.setattr(channels, "pmf_rows", lambda m: calls.append(1) or check(m))
    call(w)
    assert len(calls) <= most


def _random_channels(rng, count):
    for _ in range(count):
        q, r = (int(n) for n in rng.integers(1, 12, size=2))
        m = rng.dirichlet(np.full(r, float(rng.choice([0.2, 1.0, 5.0]))), size=q)
        yield Channel(0.99 * m + 0.01 / r)


def test_eta_tv_matches_the_row_pair_loop_bitwise():
    for w in _random_channels(np.random.default_rng(3), 100):
        m = w.matrix
        expected = 0.0
        for i in range(w.rows):
            d = 0.5 * np.abs(m[i + 1 :] - m[i]).sum(axis=1)
            if d.size:
                expected = max(expected, float(d.max()))
        assert eta_tv(w) == expected


def test_eta_kl_bounds_matches_the_per_draw_reference():
    rng = np.random.default_rng(4)
    cases = list(_random_channels(rng, 40))
    cases += [Channel(symmetric_matrix(q, 0.4)) for q in (2, 5, 16)]
    cases += [Channel(circulant(cyclic_group(8), rng.dirichlet(np.ones(8))))]
    for seed, w in enumerate(cases):
        draws = np.random.default_rng(seed)
        expected = maximal_correlation(uniform_pmf(w.rows), w) ** 2
        for _ in range(50):
            p = (1.0 - 1e-6) * draws.dirichlet(np.ones(w.rows)) + 1e-6 / w.rows
            expected = max(expected, maximal_correlation(Pmf(p), w) ** 2)
        lower, upper = eta_kl_bounds(w, samples=50, seed=seed)
        assert lower == pytest.approx(expected, rel=0, abs=1e-14)
        assert upper == eta_tv(w)


def test_local_check_matches_the_per_weight_reference_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = int(rng.integers(2, 12))
        p, center = rng.dirichlet(np.full(q, 0.5)), 0.99 * rng.dirichlet(np.ones(q)) + 0.01 / q
        lambdas = [float(t) for t in 10.0 ** -rng.uniform(0, 6, size=int(rng.integers(1, 5)))] + [1]
        report = kl_chi2_local_check(p, center, lambdas)
        pv, qv = Pmf(p).probs, Pmf(center).probs
        expected = tuple(
            (float(t), float(2.0 / t**2 * kl(Pmf(qv + t * (pv - qv)), Pmf(qv)))) for t in lambdas
        )
        assert report.entries == expected
        assert report.chi2_value == float(chi2(pv, qv))
