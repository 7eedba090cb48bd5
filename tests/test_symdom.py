"""Tests for symmetric-channel domination thresholds, regions, and delta-star."""

import io
import math

import numpy as np
import pytest

from channel_order.channels import (
    Channel,
    Pmf,
    additive_channel,
    symmetric_channel,
    symmetric_noise_pmf,
    uniform_pmf,
)
from channel_order.groups import circulant, cyclic_group, direct_product
from channel_order.preorders import (
    SingularChannelError,
    Status,
    _orbit_letters,
    is_degraded,
    is_degraded_additive,
    less_noisy_exact,
    less_noisy_mask,
    loewner_gap,
    majorizes,
)
from channel_order.symdom import (
    additive_degradation_delta,
    circle_radius,
    classify_noise_pmf,
    classify_noise_pmfs,
    delta_star,
    domination_factor_estimate,
    extremal_degraded_tau,
    ln_gamma_bound,
    lower_hull_member,
    min_entry_tight_channel,
    necessary_screen,
    region_grid,
    region_label_counts,
    region_sample,
    min_entry_delta_lower,
)


def constant_channel(q):
    return Channel(np.full((q, q), 1.0 / q))


# --- thresholds ---------------------------------------------------------------


def test_min_entry_delta_lower_values():
    v = Channel([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    assert min_entry_delta_lower(v) == pytest.approx(0.1 / 0.85, abs=1e-12)
    # for q = 2 the denominator collapses to 1
    bsc = symmetric_channel(2, 0.23)
    assert min_entry_delta_lower(bsc) == pytest.approx(0.23, abs=1e-12)
    assert min_entry_delta_lower(constant_channel(4)) == pytest.approx(0.75, abs=1e-12)
    assert min_entry_delta_lower(Channel(np.eye(3))) == 0.0


def test_additive_degradation_delta():
    assert additive_degradation_delta(symmetric_noise_pmf(4, 0.3)) == pytest.approx(0.3)
    # uniform noise reaches the largest threshold (q-1)/q
    assert additive_degradation_delta(uniform_pmf(5)) == pytest.approx(0.8)
    v = Pmf([0.5, 0.3, 0.2])
    assert additive_degradation_delta(v) == pytest.approx(0.4, abs=1e-12)
    g = cyclic_group(3)
    assert is_degraded_additive(g, symmetric_noise_pmf(3, 0.4), v).dominates
    assert (
        is_degraded_additive(g, symmetric_noise_pmf(3, 0.45), v).status is Status.FAILS
    )


def test_extremal_degraded_tau():
    assert extremal_degraded_tau(3, 0.2) == pytest.approx(0.9, abs=1e-15)
    assert extremal_degraded_tau(2, 0.3) == pytest.approx(0.7, abs=1e-15)
    assert extremal_degraded_tau(5, 0.0) == 1.0
    # fixed point at the singular parameter
    assert extremal_degraded_tau(4, 0.75) == pytest.approx(0.75, abs=1e-15)


def test_ln_gamma_bound_values():
    assert ln_gamma_bound(3, 0.2) == pytest.approx(16 / 17, abs=1e-12)
    assert ln_gamma_bound(2, 0.3) == pytest.approx(0.7, abs=1e-15)
    assert ln_gamma_bound(4, 0.0) == 1.0
    assert ln_gamma_bound(4, 0.75) == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        ln_gamma_bound(3, 0.7)


def test_gamma_strictly_beyond_degradation_interval():
    for q in (3, 4, 5, 8):
        for delta in np.arange(0.05, 0.61, 0.05):
            if delta >= (q - 1) / q:
                continue
            assert ln_gamma_bound(q, delta) > extremal_degraded_tau(q, delta) + 1e-9


def test_degradation_interval_for_symmetric_pairs():
    # symmetric channels degraded from W_delta are exactly [delta, tau]
    for q in (2, 3, 4):
        for delta in (0.1, 0.25):
            w = symmetric_channel(q, delta)
            tau = extremal_degraded_tau(q, delta)
            for gamma in np.linspace(0.0, 1.0, 21):
                expected = delta - 1e-12 <= gamma <= tau + 1e-12
                got = is_degraded(w, symmetric_channel(q, gamma)).dominates
                assert got == expected, (q, delta, gamma)


def test_bound_ordering_min_entry_vs_additive():
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = int(rng.integers(2, 6))
        v = rng.dirichlet(np.ones(q))
        general = min_entry_delta_lower(Channel(circulant(cyclic_group(q), v)))
        additive = additive_degradation_delta(Pmf(v))
        assert general <= additive + 1e-12
    # equality exactly at the uniform pmf
    u = uniform_pmf(4)
    assert min_entry_delta_lower(constant_channel(4)) == pytest.approx(
        additive_degradation_delta(u), abs=1e-12
    )


def test_min_entry_tight_channel_shape():
    v = min_entry_tight_channel(3, 0.05)
    assert v.matrix.min() == pytest.approx(0.05, abs=1e-15)
    base = symmetric_channel(3, 0.1).matrix
    assert np.allclose(v.matrix[0], base[1])
    assert np.allclose(v.matrix[1], base[0])
    assert np.allclose(v.matrix[2], base[0])


def test_min_entry_threshold_sharpness():
    for q in (3, 4):
        for nu in (0.02, 0.05, 0.08):
            v = min_entry_tight_channel(q, nu)
            threshold = min_entry_delta_lower(v)
            assert threshold == pytest.approx(
                nu / (1 - (q - 1) * nu + nu / (q - 1)), abs=1e-12
            )
            assert is_degraded(symmetric_channel(q, threshold), v).dominates
            beyond = is_degraded(symmetric_channel(q, threshold * 1.001), v)
            assert beyond.status is Status.FAILS


# --- region classification -----------------------------------------------------


def test_circle_radius_closed_form():
    for q in (2, 3, 5):
        for delta in np.linspace(0, (q - 1) / q, 7):
            w = symmetric_noise_pmf(q, delta).probs
            assert circle_radius(q, delta) == pytest.approx(
                float(np.linalg.norm(w - 1.0 / q)), abs=1e-12
            )


def test_classify_examples():
    delta = 0.2
    assert classify_noise_pmf(3, delta, symmetric_noise_pmf(3, delta)) == "DEGRADED"
    assert classify_noise_pmf(3, delta, uniform_pmf(3)) == "DEGRADED"
    gamma = ln_gamma_bound(3, delta)
    assert classify_noise_pmf(3, delta, symmetric_noise_pmf(3, gamma)) == "LOWER_HULL"
    assert not majorizes(symmetric_noise_pmf(3, delta).probs, symmetric_noise_pmf(3, gamma).probs)


def test_classify_outside_and_circle_only():
    # the identity noise pmf is far outside the ball for moderate delta
    assert classify_noise_pmf(3, 0.5, Pmf([1.0, 0.0, 0.0])) == "OUTSIDE"


def test_classify_singular_circulant_is_exact():
    # pmfs of the form (a, b, a, b) or (a, a, b, b) have a vanishing character
    # for q = 4, so their circulants are singular; these sit between the hull
    # and the ball, with smallest vertex margins -0.0145 and -4.3e-3
    for probs, delta in (([0.37, 0.13, 0.37, 0.13], 0.4), ([0.06, 0.06, 0.44, 0.44], 0.23)):
        v = Pmf(probs)
        m = circulant(cyclic_group(4), v.probs)
        assert abs(np.linalg.det(m)) < 1e-12
        assert not lower_hull_member(4, delta, v)
        assert classify_noise_pmf(4, delta, v) == "CIRCLE_ONLY"


def test_lower_hull_member_rejects_wrong_length():
    with pytest.raises(ValueError, match="length 4 does not match q = 3"):
        lower_hull_member(3, 0.2, [0.25] * 4)


def test_lower_hull_member_at_the_boundary_holds_only_uniform():
    q = 3
    assert lower_hull_member(q, 2 / 3, uniform_pmf(q))
    assert not lower_hull_member(q, 2 / 3, [0.34, 0.33, 0.33])
    # one ulp below the boundary, r(gamma) rounds to 0 while r(delta) does not
    delta = float(np.nextafter(0.5, 0.0))
    assert 1.0 - 2 * delta > 0.0 and 2 * ln_gamma_bound(2, delta) - 1.0 == 0.0
    assert lower_hull_member(2, delta, uniform_pmf(2))
    assert not lower_hull_member(2, delta, [0.6, 0.4])


def test_classify_next_to_the_boundary_with_a_constant_row_channel():
    # one ulp below (q-1)/q, W_delta has equal rows within 1e-12; a pmf 1e-12
    # from uniform is then neither degraded nor in the hull, yet inside the
    # ball, and the less-noisy test must give less_noisy_exact's verdict
    # instead of refusing a singular W
    q, delta = 5, float(np.nextafter(0.8, 0.0))
    p = np.full(q, 0.2) + 0.36e-12 * np.array([-1.0, -1.0, -1.0, 1.5, 1.5])
    assert not majorizes(symmetric_noise_pmf(q, delta).probs, p)
    circ = Channel(circulant(cyclic_group(q), p))
    assert less_noisy_exact(symmetric_channel(q, delta), circ).dominates
    assert classify_noise_pmf(q, delta, p) == "LESS_NOISY"


def test_classify_noise_pmfs_rejects_bad_input():
    with pytest.raises(ValueError, match="stack of noise pmfs"):
        classify_noise_pmfs(3, 0.2, [0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="must be a pmf"):
        classify_noise_pmfs(3, 0.2, [[0.5, 0.6, -0.1]])
    with pytest.raises(ValueError, match="delta must lie"):
        classify_noise_pmfs(3, 0.7, [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="must be a pmf"):
        classify_noise_pmfs(3, 0.2, [[1.0, 0.0, 0.0], [np.nan, 0.5, 0.5]])


def test_region_sample_rejects_bad_delta():
    for delta in (-0.1, 0.9):
        with pytest.raises(ValueError, match="delta must lie"):
            region_sample(3, delta, grid_n=4)


def test_region_grid_size():
    assert len(list(region_grid(2))) == 6
    assert len(list(region_grid(60))) == 61 * 62 // 2


def test_region_identity_channel_dominates_everything():
    labels = region_sample(3, 0.0, grid_n=6)
    assert labels == ["DEGRADED"] * 28


def test_region_uniform_channel_dominates_only_uniform():
    labels = region_sample(3, 2 / 3, grid_n=6)
    counts = region_label_counts(labels)
    assert counts["DEGRADED"] == 1  # only the uniform grid point
    assert counts["DEGRADED"] + counts["OUTSIDE"] == len(labels)


def test_region_csv_format_and_determinism():
    out1, out2 = io.StringIO(), io.StringIO()
    region_sample(3, 0.2, grid_n=4, out=out1)
    region_sample(3, 0.2, grid_n=4, out=out2)
    assert out1.getvalue() == out2.getvalue()
    lines = out1.getvalue().strip().splitlines()
    assert lines[0] == "v0,v1,v2,label,method"
    assert len(lines) == 1 + 15
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "1"]
    assert first[3] in ("DEGRADED", "LOWER_HULL", "LESS_NOISY", "CIRCLE_ONLY", "OUTSIDE")
    assert first[4] == "exact"


def test_region_nesting_small_grid():
    delta = 0.2
    labels = region_sample(3, delta, grid_n=10)
    for (i, j, k), label in zip(region_grid(10), labels, strict=True):
        v = np.array([i, j, k]) / 10
        in_degraded = majorizes(symmetric_noise_pmf(3, delta).probs, v)
        in_hull = lower_hull_member(3, delta, v)
        in_circle = float(np.linalg.norm(v - 1 / 3)) <= circle_radius(3, delta) + 1e-12
        if in_degraded:
            assert in_hull
        if in_hull:
            assert label in ("DEGRADED", "LOWER_HULL")
            assert in_circle
        if label in ("DEGRADED", "LOWER_HULL", "LESS_NOISY"):
            assert in_circle


# --- delta-star -------------------------------------------------------------------


def assert_probes_match_exact(v, result):
    # each probe runs the vertex checks without a witness; its status must be
    # the full exact test's and that of the checks at every letter
    # (less_noisy_mask), and an undetermined probe a singular W_delta
    q = v.rows
    for delta, status in result.probes:
        if status == "undetermined":
            with pytest.raises(SingularChannelError):
                less_noisy_exact(symmetric_channel(q, delta), v)
        else:
            assert less_noisy_exact(symmetric_channel(q, delta), v).status.value == status, delta
            every_letter = less_noisy_mask(symmetric_channel(q, delta), v.matrix[None])[0]
            assert every_letter == (status == "dominates"), delta


def test_delta_star_symmetric_channel():
    v = symmetric_channel(3, 0.2)
    result = delta_star(v, tol=1e-4)
    assert_probes_match_exact(v, result)
    assert result.bracket_width <= 1e-4
    assert result.lower <= 0.2 + 1e-4
    assert result.upper >= 0.2 - 1e-4
    assert abs(0.5 * (result.lower + result.upper) - 0.2) <= 1e-4


def test_delta_star_identity():
    result = delta_star(Channel(np.eye(3)), tol=1e-4)
    assert result.lower == 0.0
    assert result.upper <= 1e-4


def test_delta_star_constant_channel():
    result = delta_star(constant_channel(4), tol=1e-6)
    assert result.lower == result.upper == pytest.approx(0.75, abs=1e-15)


def test_delta_star_monotone_probes():
    result = delta_star(symmetric_channel(3, 0.2), tol=1e-4)
    for delta, status in result.probes:
        if status == "dominates":
            assert delta <= result.lower + 1e-15
        if status == "fails":
            assert delta >= result.upper - 1e-15


def test_delta_star_singular_channel_is_exact():
    # the circulant of (a, b, a, b) is doubly stochastic, non-constant, singular
    m = circulant(cyclic_group(4), np.array([0.35, 0.15, 0.35, 0.15]))
    v = Channel(m)
    assert abs(np.linalg.det(m)) < 1e-12
    result = delta_star(v, tol=1e-3)
    assert_probes_match_exact(v, result)
    assert 0.0 < result.lower and result.bracket_width <= 1e-3
    assert less_noisy_exact(symmetric_channel(4, result.lower), v).dominates
    assert less_noisy_exact(symmetric_channel(4, result.upper), v).status is Status.FAILS


@pytest.mark.parametrize(
    "eps, star", [(1e-6, 0.0162601), (1e-5, 0.0162602), (1e-4, 0.0162613)]
)
def test_near_singular_channel(eps, star):
    # V's third row sits eps off the midpoint of the first two, so sigma_min(V)
    # is of order eps; the vertex margin on A = W^{-1} V at W_0.3 is -0.83
    # whatever eps is, and ``star`` is delta* to 1e-7
    r0, r1 = np.array([0.98, 0.01, 0.01]), np.array([0.01, 0.98, 0.01])
    v = Channel(np.vstack([r0, r1, 0.5 * (r0 + r1) + eps * np.array([-1.0, -1.0, 2.0])]))
    w = symmetric_channel(3, 0.3)
    verdict = less_noisy_exact(w, v)
    assert verdict.status is Status.FAILS
    assert loewner_gap(w, v, verdict.witness.pmf) < 0
    result = delta_star(v, tol=1e-4)
    assert_probes_match_exact(v, result)
    assert result.lower <= star <= result.upper


@pytest.mark.parametrize(
    "group", [direct_product(cyclic_group(4), cyclic_group(4)), cyclic_group(32)], ids=["Z4xZ4", "Z32"]
)
def test_delta_star_additive_channel_probes_one_letter(group):
    # distinct noise entries: every probe checks letter 0 alone
    q = group.order
    noise = 0.7 * np.random.default_rng(q).dirichlet(np.ones(q)) + 0.3 / q
    v = additive_channel(group, noise)
    assert _orbit_letters(v.matrix) == range(1)
    result = delta_star(v, tol=1e-4)
    assert_probes_match_exact(v, result)
    assert additive_degradation_delta(noise) <= result.upper
    assert result.bracket_width <= 1e-4


def test_delta_star_large_alphabet_random_channel():
    # sigma_min(V) = 3.9e-4 and delta* = 6.036e-5
    v = Channel(np.random.default_rng(5).dirichlet(np.ones(64), size=64))
    result = delta_star(v, tol=1e-4)
    assert_probes_match_exact(v, result)
    assert result.lower <= 6.036e-5 <= result.upper


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-4])
def test_delta_star_rejects_a_tolerance_that_is_not_positive(tol):
    # NaN once passed the check and returned the starting bracket, never narrowed
    with pytest.raises(ValueError, match="tolerance must be positive"):
        delta_star(symmetric_channel(3, 0.2), tol=tol)


# --- domination factor ---------------------------------------------------------


def test_domination_factor_identical_channels():
    est = domination_factor_estimate(symmetric_channel(3, 0.3), 0.3, samples=200, seed=1)
    assert est == pytest.approx(1.0, abs=1e-9)


def test_domination_factor_below_delta_star():
    # delta* of W_0.2 is 0.2: below it the factor stays at most 1
    est = domination_factor_estimate(symmetric_channel(3, 0.2), 0.15, samples=300, seed=2)
    assert est <= 1.0 + 1e-9
    assert est > 0.5


def test_domination_factor_monotone_in_delta():
    v = symmetric_channel(3, 0.25)
    estimates = [
        domination_factor_estimate(v, d, samples=300, seed=3) for d in (0.1, 0.2, 0.3, 0.4)
    ]
    for a, b in zip(estimates, estimates[1:]):
        assert b >= a - 1e-6


def test_domination_factor_rejects_bad_inputs():
    with pytest.raises(ValueError):
        domination_factor_estimate(symmetric_channel(3, 0.2), 0.0)
    with pytest.raises(ValueError):
        domination_factor_estimate(Channel(np.eye(3)), 0.2)


# --- necessary screens -----------------------------------------------------------


def test_necessary_screen_identical():
    w = symmetric_noise_pmf(3, 0.2)
    report = necessary_screen(w, w)
    assert not report.any_violation
    assert all(c.status in ("pass", "inconclusive") for c in report.conditions)


def test_necessary_screen_circle_violation():
    w = symmetric_noise_pmf(3, 0.2)
    v = symmetric_noise_pmf(3, 0.1)
    report = necessary_screen(w, v)
    circle = report.conditions[0]
    assert circle.status == "fail"
    assert circle.detail["w_distance"] == pytest.approx(0.571548, abs=1e-6)
    assert circle.detail["v_distance"] == pytest.approx(
        0.85 * math.sqrt(2 / 3), abs=1e-6
    )
    assert report.any_violation


def test_necessary_screen_entropy_passes_toward_uniform():
    w = symmetric_noise_pmf(3, 0.2)
    v = symmetric_noise_pmf(3, 0.9)
    report = necessary_screen(w, v)
    entropy = report.conditions[1]
    assert entropy.status == "pass"
    assert entropy.detail["v_entropy"] > entropy.detail["w_entropy"]
