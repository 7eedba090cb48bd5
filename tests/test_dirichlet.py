"""Tests for Dirichlet forms, log-Sobolev constants, and KL decay."""

import json
import math

import numpy as np
import pytest

from channel_order.channels import (
    Channel,
    Pmf,
    point_mass,
    symmetric_channel,
    symmetric_matrix,
)
from channel_order.dirichlet import (
    dirichlet_domination_check,
    dirichlet_form,
    discrete_lsi_constant_symmetric,
    estimate_lsi_constant,
    kl_decay_check,
    lsi_constant_symmetric,
    lsi_functional,
    normalize_under_uniform,
    standard_dirichlet,
)
from channel_order.groups import circulant, cyclic_group
from channel_order.preorders import less_noisy_exact
from channel_order.symdom import ln_gamma_bound

LOG2 = math.log(2.0)


def constant_channel(q):
    return Channel(np.full((q, q), 1.0 / q))


def test_dirichlet_form_constants_in_kernel():
    assert dirichlet_form(symmetric_channel(5, 0.4), np.ones(5)) == pytest.approx(0.0, abs=1e-15)


def test_dirichlet_form_constant_channel_is_variance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = rng.standard_normal(4)
        got = dirichlet_form(constant_channel(4), f)
        assert got == pytest.approx(standard_dirichlet(f), abs=1e-12)


def test_dirichlet_form_symmetric_channel_scaling():
    # the symmetric channel's form is exactly q delta/(q-1) times the standard one
    rng = np.random.default_rng(1)
    for q, delta in ((3, 0.2), (5, 0.7), (2, 0.45)):
        w = symmetric_channel(q, delta)
        for _ in range(200):
            f = rng.standard_normal(q) * 3.0
            expected = q * delta / (q - 1) * standard_dirichlet(f)
            assert dirichlet_form(w, f) == pytest.approx(expected, abs=1e-12)


def test_dirichlet_form_matches_symmetrized_chain():
    rng = np.random.default_rng(2)
    m = circulant(cyclic_group(4), np.array([0.4, 0.3, 0.2, 0.1]))
    sym = Channel(0.5 * (m + m.T))
    for _ in range(20):
        f = rng.standard_normal(4)
        assert dirichlet_form(Channel(m), f) == pytest.approx(
            dirichlet_form(sym, f), abs=1e-12
        )


def test_dirichlet_form_rejects_non_doubly_stochastic():
    with pytest.raises(ValueError):
        dirichlet_form(Channel([[0.9, 0.1], [0.5, 0.5]]), np.ones(2))


def test_standard_dirichlet_examples():
    assert standard_dirichlet([1.0, 1.0, 1.0]) == 0.0
    assert standard_dirichlet([1.0, -1.0]) == pytest.approx(1.0, abs=1e-15)
    assert standard_dirichlet([3.0, 0.0, 0.0]) == pytest.approx(2.0, abs=1e-15)


def test_lsi_constant_symmetric():
    assert lsi_constant_symmetric(2, 0.3) == pytest.approx(0.3)
    assert lsi_constant_symmetric(3, 0.2) == pytest.approx(0.2 / (2 * LOG2), abs=1e-12)
    assert lsi_constant_symmetric(3, 1.0) == pytest.approx(1 / (2 * LOG2), abs=1e-12)
    with pytest.raises(ValueError):
        lsi_constant_symmetric(3, 0.0)


def test_discrete_lsi_constant_symmetric():
    assert discrete_lsi_constant_symmetric(2, 0.3) == pytest.approx(0.42, abs=1e-12)
    assert discrete_lsi_constant_symmetric(3, 0.2) == pytest.approx(
        0.34 / (2 * LOG2), abs=1e-12
    )
    # the singular parameter is a fixed point of two-step composition
    assert discrete_lsi_constant_symmetric(3, 2 / 3) == pytest.approx(
        (2 / 3) / (2 * LOG2), abs=1e-12
    )
    # two steps of a symmetric channel are the symmetric channel at delta'
    q, delta = 4, 0.35
    delta_prime = delta * (2 - q * delta / (q - 1))
    two_step = symmetric_matrix(q, delta) @ symmetric_matrix(q, delta).T
    assert np.allclose(two_step, symmetric_matrix(q, delta_prime), atol=1e-12)


def test_lsi_functional():
    assert lsi_functional(np.ones(4)) == 0.0
    assert lsi_functional([math.sqrt(2.0), 0.0]) == pytest.approx(LOG2, abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = normalize_under_uniform(rng.standard_normal(5))
        assert lsi_functional(f) >= -1e-12
    with pytest.raises(ValueError):
        lsi_functional([2.0, 0.0])


def test_lsi_inequality_for_symmetric_channels():
    # entropy of f^2 is controlled by the Dirichlet form with the closed-form constant
    rng = np.random.default_rng(4)
    for q, delta in ((3, 0.2), (5, 0.5)):
        w = symmetric_channel(q, delta)
        alpha = lsi_constant_symmetric(q, delta)
        for _ in range(300):
            f = normalize_under_uniform(rng.standard_normal(q))
            assert lsi_functional(f) <= dirichlet_form(w, f) / alpha + 1e-9


def test_estimate_lsi_constant_never_undercuts_closed_form():
    for q, delta in ((2, 0.3), (3, 0.2), (5, 0.6)):
        w = symmetric_channel(q, delta)
        estimate = estimate_lsi_constant(w, samples=800, seed=5)
        assert estimate >= lsi_constant_symmetric(q, delta) - 1e-9
        # and it is a genuine upper bound that comes reasonably close
        assert estimate <= 3.0 * lsi_constant_symmetric(q, delta)


def test_estimate_lsi_constant_identity_is_zero():
    assert estimate_lsi_constant(Channel(np.eye(3)), samples=100, seed=0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_estimate_lsi_constant_constant_channel():
    # closed form (1 - 2/q) / log(q - 1) at q = 3
    estimate = estimate_lsi_constant(constant_channel(3), samples=800, seed=1)
    assert estimate >= (1 - 2 / 3) / LOG2 - 1e-9


def test_dirichlet_domination_check_reflexive():
    w = symmetric_channel(3, 0.3)
    for kind in ("discrete", "continuous", "standard"):
        assert dirichlet_domination_check(w, w, kind)


def test_dirichlet_domination_check_standard_monotone():
    w1, w2 = symmetric_channel(3, 0.2), symmetric_channel(3, 0.5)
    assert dirichlet_domination_check(w1, w2, "standard")
    assert not dirichlet_domination_check(w2, w1, "standard")


def test_dirichlet_domination_check_standard_from_less_noisy():
    # whenever the exact test certifies domination of an additive channel, the
    # standard-form comparison must agree
    rng = np.random.default_rng(6)
    g = cyclic_group(3)
    delta = 0.2
    w = symmetric_channel(3, delta)
    gamma = ln_gamma_bound(3, delta)
    generators = np.vstack(
        [
            np.vstack([np.roll(symmetric_channel(3, delta).matrix[0], k) for k in range(3)]),
            np.vstack([np.roll(symmetric_channel(3, gamma).matrix[0], k) for k in range(3)]),
        ]
    )
    checked = 0
    while checked < 10:
        weights = rng.dirichlet(np.ones(6))
        noise = weights @ generators
        v = Channel(circulant(g, noise))
        if not less_noisy_exact(w, v).dominates:
            continue
        checked += 1
        assert dirichlet_domination_check(w, v, "standard")


def test_dirichlet_domination_check_discrete_follows_less_noisy():
    # random additive pairs built by degradation (hence certified less noisy)
    # must pass the two-step Gramian comparison
    from channel_order.preorders import SingularChannelError

    rng = np.random.default_rng(7)
    g = cyclic_group(4)
    checked = 0
    while checked < 10:
        w = Channel(circulant(g, rng.dirichlet(np.ones(4))))
        v = Channel(w.matrix @ circulant(g, rng.dirichlet(np.ones(4))))
        try:
            verdict = less_noisy_exact(w, v)
        except SingularChannelError:
            continue
        if not verdict.dominates:
            continue
        checked += 1
        assert dirichlet_domination_check(w, v, "discrete")


def test_dirichlet_domination_check_continuous_requires_normal():
    w = symmetric_channel(3, 0.2)
    # circulants are normal, so this input is accepted
    lopsided = Channel([[0.6, 0.4, 0.0], [0.0, 0.6, 0.4], [0.4, 0.0, 0.6]])
    assert dirichlet_domination_check(w, lopsided, "continuous") in (True, False)
    # doubly stochastic but not normal: rejected
    not_normal = Channel([[0.2, 0.8, 0.0], [0.5, 0.1, 0.4], [0.3, 0.1, 0.6]])
    with pytest.raises(ValueError, match="normal"):
        dirichlet_domination_check(w, not_normal, "continuous")


def test_dirichlet_domination_check_standard_requires_symmetric_w():
    v = symmetric_channel(3, 0.5)
    skew = Channel(circulant(cyclic_group(3), np.array([0.5, 0.3, 0.2])))
    with pytest.raises(ValueError):
        dirichlet_domination_check(skew, v, "standard")


# W_0.3 at q = 3 with entries of rows 0 and 1 moved by 5e-10: doubly
# stochastic, within 1e-9 of the symmetric channel, asymmetric by 1e-9
W03_PERTURBED = [
    [0.7, 0.1500000005, 0.1499999995],
    [0.15, 0.6999999995, 0.1500000005],
    [0.15, 0.15, 0.7],
]


def test_dirichlet_domination_check_standard_compares_the_inferred_w_delta():
    # the raw W is asymmetric by 1e-9, which a symmetry check at 1e-10 rejects
    w, v = Channel(W03_PERTURBED), symmetric_channel(3, 0.5)
    assert dirichlet_domination_check(w, v, "standard")
    assert not dirichlet_domination_check(w, symmetric_channel(3, 0.1), "standard")


def _estimate_lsi_constant_per_draw(v, samples, seed):
    """The estimator one draw at a time through the public forms, as it once ran."""
    q = v.rows
    rng = np.random.default_rng(seed)
    best = math.inf
    for index in range(samples):
        if index % 2 == 0:
            f = rng.standard_normal(q)
        else:
            f = 0.05 * np.abs(rng.standard_normal(q))
            f[rng.integers(q)] = 1.0
        norm = math.sqrt(float(np.mean(f**2)))
        if norm <= 1e-12:
            continue
        f = f / norm
        entropy = lsi_functional(f)
        if entropy >= 1e-6:
            best = min(best, dirichlet_form(v, f) / entropy)
    return best


@pytest.mark.parametrize("q", [2, 3, 5, 8, 16, 64])
def test_estimate_lsi_constant_matches_the_per_draw_reference(q):
    rng = np.random.default_rng(q)
    channels = [
        symmetric_channel(q, 0.3 * (q - 1) / q),
        Channel(circulant(cyclic_group(q), rng.dirichlet(np.ones(q)))),
        Channel(0.5 * np.eye(q) + 0.5 * np.eye(q)[rng.permutation(q)]),
    ]
    for seed, v in enumerate(channels):
        for samples in (1, 37, 500):
            expected = _estimate_lsi_constant_per_draw(v, samples, seed)
            if not math.isfinite(expected):
                with pytest.raises(RuntimeError):
                    estimate_lsi_constant(v, samples=samples, seed=seed)
                continue
            assert estimate_lsi_constant(v, samples=samples, seed=seed) == pytest.approx(
                expected, rel=1e-11, abs=1e-15
            )


def test_kl_decay_check_constant_channel():
    report = kl_decay_check(constant_channel(3), 0.5, point_mass(3, 0), horizon=1)
    assert report.steps[0].lhs == pytest.approx(0.0, abs=1e-12)
    assert report.holds


def test_kl_decay_check_symmetric_channel():
    alpha = discrete_lsi_constant_symmetric(3, 0.2)
    report = kl_decay_check(symmetric_channel(3, 0.2), alpha, point_mass(3, 0), horizon=20)
    assert report.holds
    assert all(step.margin >= 0 for step in report.steps)


def test_kl_decay_check_zero_alpha_is_data_processing():
    report = kl_decay_check(symmetric_channel(4, 0.15), 0.0, Pmf([0.7, 0.1, 0.1, 0.1]), horizon=10)
    assert report.holds


def test_kl_decay_check_alpha_range():
    with pytest.raises(ValueError):
        kl_decay_check(symmetric_channel(3, 0.2), 1.5, point_mass(3, 0))


def test_kl_decay_report_json():
    report = kl_decay_check(symmetric_channel(3, 0.2), 0.1, point_mass(3, 0), horizon=2)
    data = json.loads(report.to_json())
    assert data["alpha"] == 0.1
    assert len(data["steps"]) == 2
    assert set(data["steps"][0]) == {"n", "lhs", "bound"}
