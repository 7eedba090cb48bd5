"""Tests for majorization, degradation, and less-noisy decision procedures."""

import math

import numpy as np
import pytest

from channel_order.channels import (
    Channel,
    Pmf,
    erasure_channel,
    point_mass,
    symmetric_channel,
    symmetric_noise_pmf,
    uniform_pmf,
)
from channel_order.divergences import chi2
from channel_order.groups import circulant, cyclic_group, direct_product
from channel_order.preorders import (
    DivergencePairWitness,
    DominationVerdict,
    LoewnerWitness,
    LpProblem,
    SingularChannelError,
    Status,
    chi2_violation_pair,
    group_majorizes,
    is_degraded,
    is_degraded_additive,
    less_noisy_exact,
    less_noisy_sampled,
    loewner_gap,
    majorizes,
    psd_check,
)
from channel_order.symdom import extremal_degraded_tau, ln_gamma_bound


def klein_group():
    return direct_product(cyclic_group(2), cyclic_group(2))


def constant_channel(q):
    return Channel(np.full((q, q), 1.0 / q))


def random_channel(rng, q, r=None, positive=False):
    r = q if r is None else r
    alpha = np.ones(r) if not positive else np.full(r, 5.0)
    return Channel(rng.dirichlet(alpha, size=q))


# --- verdict type ------------------------------------------------------------


def test_verdict_invariants():
    with pytest.raises(ValueError):
        DominationVerdict(Status.DOMINATES)
    with pytest.raises(ValueError):
        DominationVerdict(Status.FAILS)
    with pytest.raises(ValueError):
        DominationVerdict(Status.UNDETERMINED, certificate="x")


# --- LP engine ---------------------------------------------------------------


def test_lp_phase_one_feasible_and_infeasible():
    # x1 + x2 = 1, x1 - x2 = 0 has the solution (1/2, 1/2)
    feasible = LpProblem(a_eq=np.array([[1.0, 1.0], [1.0, -1.0]]), b_eq=np.array([1.0, 0.0]))
    opt, x = feasible.phase_one()
    assert opt <= 1e-12
    assert np.allclose(x, [0.5, 0.5], atol=1e-9)
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    infeasible = LpProblem(
        a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]), b_eq=np.array([1.0, 2.0])
    )
    opt, _ = infeasible.phase_one()
    assert opt >= 0.5


# --- majorization ------------------------------------------------------------


def test_majorizes_examples():
    assert majorizes([0.6, 0.2, 0.2], [0.4, 0.3, 0.3])
    assert majorizes([0.4, 0.3, 0.3], [0.4, 0.3, 0.3])
    assert not majorizes([1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0])


def test_majorizes_requires_equal_sums():
    with pytest.raises(ValueError):
        majorizes([0.5, 0.5], [0.6, 0.6])


def doubly_stochastic_feasible(x, y):
    """Independent oracle: y = x D for doubly stochastic D, as an LP."""
    q = len(x)
    rows = []
    rhs = []
    for j in range(q):  # columns of the product
        row = np.zeros(q * q)
        row[j::q] = x
        rows.append(row)
        rhs.append(y[j])
    for k in range(q):  # row sums of D
        row = np.zeros(q * q)
        row[k * q : (k + 1) * q] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for j in range(q):  # column sums of D
        row = np.zeros(q * q)
        row[j::q] = 1.0
        rows.append(row)
        rhs.append(1.0)
    feasible, _, _ = LpProblem(np.array(rows), np.array(rhs)).solve()
    return feasible


def test_majorizes_matches_doubly_stochastic_lp():
    rng = np.random.default_rng(2)
    for _ in range(40):
        q = int(rng.integers(2, 5))
        x = rng.dirichlet(np.ones(q))
        if rng.random() < 0.5:
            # mix toward uniform: guaranteed majorized
            lam = rng.random()
            y = lam * x[rng.permutation(q)] + (1 - lam) / q
        else:
            y = rng.dirichlet(np.ones(q))
        assert majorizes(x, y) == doubly_stochastic_feasible(x, y)


# --- group majorization -------------------------------------------------------


def test_group_majorizes_orbit_point():
    # the target is one group shift of w (right rotation = acting by element
    # 3); the circulant is invertible, so the convex weights are uniquely a
    # point mass, sitting at the inverse element 1 since lam indexes rows of
    # circ(w), whose row x is w shifted by -x
    g = cyclic_group(4)
    w = symmetric_noise_pmf(4, 0.3).probs
    from channel_order.groups import permutation_matrix

    target = np.roll(w, 1)
    assert np.allclose(target, w @ permutation_matrix(g, 3))
    verdict = group_majorizes(g, w, target)
    assert verdict.dominates
    lam = verdict.certificate["weights"]
    assert np.allclose(lam @ circulant(g, w), target, atol=1e-8)
    assert np.allclose(lam, np.eye(4)[1], atol=1e-8)


def test_group_majorizes_to_uniform():
    g = klein_group()
    x = np.array([0.4, 0.3, 0.2, 0.1])
    verdict = group_majorizes(g, x, np.full(4, 0.25))
    assert verdict.dominates


def test_group_majorizes_solves_weights():
    g = cyclic_group(3)
    x = np.array([0.8, 0.1, 0.1])
    y = np.array([0.5, 0.3, 0.2])
    verdict = group_majorizes(g, x, y)
    assert verdict.dominates
    lam = verdict.certificate["weights"]
    # linear-solve oracle: lam = y . circ(x)^{-1}
    expected = y @ np.linalg.inv(circulant(g, x))
    assert np.allclose(lam, expected, atol=1e-8)
    assert np.allclose(expected, [4 / 7, 2 / 7, 1 / 7], atol=1e-12)


def test_group_majorizes_orbit_equivalence():
    # shifting by a group element is invertible, so both directions dominate
    from channel_order.groups import permutation_matrix

    for g in (cyclic_group(4), klein_group()):
        v = np.array([0.45, 0.3, 0.15, 0.1])
        for x in g.elements():
            shifted = v @ permutation_matrix(g, x)
            assert group_majorizes(g, v, shifted).dominates
            assert group_majorizes(g, shifted, v).dominates


# --- degradation ---------------------------------------------------------------


def test_is_degraded_identity():
    rng = np.random.default_rng(0)
    v = random_channel(rng, 3)
    verdict = is_degraded(Channel(np.eye(3)), v)
    assert verdict.dominates
    assert np.allclose(verdict.certificate["matrix"], v.matrix, atol=1e-9)


def test_is_degraded_constant_w_fails_on_unequal_rows():
    v = symmetric_channel(3, 0.2)
    assert is_degraded(constant_channel(3), v).status is Status.FAILS


def test_is_degraded_symmetric_extremal():
    w = symmetric_channel(3, 0.2)
    assert is_degraded(w, symmetric_channel(3, 0.9)).dominates
    assert is_degraded(w, symmetric_channel(3, 0.95)).status is Status.FAILS


def test_is_degraded_certificate_residual():
    w = symmetric_channel(4, 0.25)
    v = symmetric_channel(4, 0.6)
    verdict = is_degraded(w, v)
    assert verdict.dominates
    assert verdict.certificate["residual"] <= 1e-9


def test_is_degraded_input_alphabet_mismatch():
    with pytest.raises(ValueError):
        is_degraded(symmetric_channel(3, 0.1), symmetric_channel(4, 0.1))


def test_degradation_transitivity_composes():
    w = symmetric_channel(3, 0.1)
    v = symmetric_channel(3, 0.3)
    x = symmetric_channel(3, 0.6)
    first = is_degraded(w, v)
    second = is_degraded(v, x)
    assert first.dominates and second.dominates
    composed = first.certificate["matrix"] @ second.certificate["matrix"]
    assert np.abs(w.matrix @ composed - x.matrix).max() <= 1e-8
    assert is_degraded(w, x).dominates


def test_is_degraded_additive_matches_matrix_test():
    rng = np.random.default_rng(4)
    for group in (cyclic_group(4), klein_group()):
        for _ in range(10):
            w = rng.dirichlet(np.ones(4))
            v = rng.dirichlet(np.ones(4))
            additive = is_degraded_additive(group, Pmf(w), Pmf(v)).dominates
            matrix = is_degraded(
                Channel(circulant(group, w)), Channel(circulant(group, v))
            ).dominates
            assert additive == matrix


def test_is_degraded_additive_examples():
    g = cyclic_group(5)
    delta = 0.3
    tau = extremal_degraded_tau(5, delta)
    w = symmetric_noise_pmf(5, delta)
    verdict = is_degraded_additive(g, w, symmetric_noise_pmf(5, tau))
    assert verdict.dominates
    # uniform weights over the q-1 nontrivial shifts
    lam = verdict.certificate["weights"]
    assert lam[0] == pytest.approx(0.0, abs=1e-8)
    assert np.allclose(lam[1:], np.full(4, 0.25), atol=1e-8)

    assert is_degraded_additive(g, w, w).dominates
    bad = is_degraded_additive(cyclic_group(3), Pmf([0.8, 0.1, 0.1]), Pmf([0.85, 0.1, 0.05]))
    assert bad.status is Status.FAILS


# --- PSD kernel -----------------------------------------------------------------


def test_psd_check_examples():
    ok, lam, _ = psd_check(np.eye(3))
    assert ok and lam == pytest.approx(1.0)
    ok, lam, vec = psd_check(np.diag([1.0, -0.5]))
    assert not ok
    assert lam == pytest.approx(-0.5)
    assert abs(vec[1]) == pytest.approx(1.0)
    ok, lam, vec = psd_check(symmetric_channel(3, 0.2).matrix)
    assert ok and lam == pytest.approx(0.7, abs=1e-12)
    assert abs(vec @ np.ones(3)) <= 1e-9


def test_psd_check_rejects_asymmetric():
    with pytest.raises(ValueError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- less noisy: exact -----------------------------------------------------------


def test_less_noisy_exact_reflexive():
    w = symmetric_channel(4, 0.22)
    assert less_noisy_exact(w, w).dominates


def test_less_noisy_exact_gamma_bound():
    w = symmetric_channel(3, 0.2)
    assert less_noisy_exact(w, symmetric_channel(3, 16 / 17)).dominates


def test_less_noisy_exact_fails_toward_identity():
    w, v = symmetric_channel(3, 0.2), symmetric_channel(3, 0.1)
    verdict = less_noisy_exact(w, v)
    assert verdict.status is Status.FAILS
    witness = verdict.witness
    assert isinstance(witness, LoewnerWitness)
    assert witness.vertex is None
    assert np.all(witness.pmf > 0) and witness.pmf.sum() == pytest.approx(1.0)
    assert witness.eigenvalue < 0
    assert loewner_gap(w, v, witness.pmf) == pytest.approx(witness.eigenvalue)


def test_less_noisy_exact_singular_input():
    singular = Channel([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1]])
    with pytest.raises(SingularChannelError):
        less_noisy_exact(singular, symmetric_channel(3, 0.2))
    with pytest.raises(SingularChannelError):
        less_noisy_exact(erasure_channel(3, 0.3), symmetric_channel(3, 0.2))
    # only W is inverted: a singular V gets an exact verdict either way
    w = symmetric_channel(3, 0.2)
    assert less_noisy_exact(w, Channel(w.matrix @ singular.matrix)).dominates
    assert less_noisy_exact(w, singular).status is Status.FAILS


def test_less_noisy_exact_desk_scale_alphabet():
    # at q = 64 the determinant of a well-conditioned symmetric channel
    # underflows; the singularity gate must still accept it
    q = 64
    gamma = ln_gamma_bound(q, 0.3)
    assert less_noisy_exact(symmetric_channel(q, 0.3), symmetric_channel(q, gamma)).dominates
    verdict = less_noisy_exact(symmetric_channel(q, 0.3), symmetric_channel(q, 0.2))
    assert verdict.status is Status.FAILS


def test_less_noisy_exact_shortcuts():
    rng = np.random.default_rng(1)
    v = random_channel(rng, 3)
    assert less_noisy_exact(Channel(np.eye(3)), v).dominates
    assert less_noisy_exact(v, constant_channel(3)).dominates
    assert less_noisy_exact(constant_channel(3), v).status is Status.FAILS


# --- less noisy: sampled -----------------------------------------------------------


@pytest.mark.parametrize("delta", [0.1, 0.5])
@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_less_noisy_sampled_erasure_witness(delta, eps):
    # a symmetric channel never dominates an erasure channel: the uniform /
    # point-mass pair exhibits an infinite output divergence on the erasure
    # side against a finite one on the symmetric side
    verdict = less_noisy_sampled(
        symmetric_channel(3, delta), erasure_channel(3, eps), samples=10, seed=0
    )
    assert verdict.status is Status.FAILS
    witness = verdict.witness
    assert isinstance(witness, DivergencePairWitness)
    assert np.allclose(witness.p, np.full(3, 1 / 3))
    assert np.allclose(witness.q, [1, 0, 0])
    assert math.isinf(witness.rhs) and math.isfinite(witness.lhs)


def test_less_noisy_sampled_identity_shortcut():
    rng = np.random.default_rng(3)
    assert less_noisy_sampled(Channel(np.eye(3)), random_channel(rng, 3)).dominates


def test_less_noisy_sampled_no_violation_when_degraded():
    verdict = less_noisy_sampled(
        symmetric_channel(3, 0.1), symmetric_channel(3, 0.2), samples=500, seed=7
    )
    assert verdict.status is Status.UNDETERMINED
    assert verdict.samples_used >= 500


def test_less_noisy_consistency_with_degradation():
    # degraded implies less noisy: neither test may refute it
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = int(rng.integers(2, 5))
        w = random_channel(rng, q)
        a = random_channel(rng, q)
        v = Channel(w.matrix @ a.matrix)
        assert is_degraded(w, v).dominates
        sampled = less_noisy_sampled(w, v, samples=60, seed=int(rng.integers(1 << 30)))
        assert sampled.status is not Status.FAILS
        try:
            exact = less_noisy_exact(w, v)
            assert exact.status is not Status.FAILS
        except SingularChannelError:
            pass


def test_exact_vs_sampled_agreement():
    # sampled witness search agrees with the exact verdict on failing pairs
    rng = np.random.default_rng(99)
    fails = 0
    found = 0
    dominates_checked = 0
    while fails < 25 or dominates_checked < 10:
        q = int(rng.integers(2, 7))
        w = random_channel(rng, q)
        v = random_channel(rng, q)
        try:
            exact = less_noisy_exact(w, v)
        except SingularChannelError:
            continue
        if exact.status is Status.FAILS and fails < 25:
            fails += 1
            sampled = less_noisy_sampled(w, v, samples=10_000, seed=fails)
            if sampled.status is Status.FAILS:
                found += 1
        elif exact.dominates and dominates_checked < 10:
            dominates_checked += 1
            sampled = less_noisy_sampled(w, v, samples=200, seed=dominates_checked)
            assert sampled.status is not Status.FAILS
    assert found >= 0.95 * fails


def test_loewner_gap():
    w = symmetric_channel(3, 0.2)
    u = uniform_pmf(3)
    assert loewner_gap(w, w, u) == pytest.approx(0.0, abs=1e-12)
    assert loewner_gap(w, symmetric_channel(3, 16 / 17), u) >= -1e-9
    assert loewner_gap(w, symmetric_channel(3, 0.1), u) < 0
    with pytest.raises(ValueError):
        loewner_gap(w, w, point_mass(3, 1))


def test_chi2_violation_pair_from_witness():
    w = symmetric_channel(3, 0.2)
    v = symmetric_channel(3, 0.1)
    verdict = less_noisy_exact(w, v)
    p, q, gap = chi2_violation_pair(w, v, verdict.witness)
    assert gap < 0
    direct = float(chi2(Pmf(p @ w.matrix), Pmf(q @ w.matrix))) - float(
        chi2(Pmf(p @ v.matrix), Pmf(q @ v.matrix))
    )
    assert direct == pytest.approx(gap, rel=1e-9)
