"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own output.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from channel_order.channels import (
    Channel,
    Pmf,
    channel_to_csv,
    erasure_channel,
    point_mass,
    symmetric_channel,
    symmetric_compose_param,
    symmetric_eigenvalue,
    symmetric_matrix,
    symmetric_noise_pmf,
    uniform_pmf,
)
from channel_order.cli import main as cli_main
from channel_order.dirichlet import (
    dirichlet_domination_check,
    dirichlet_form,
    discrete_lsi_constant_symmetric,
    kl_decay_check,
    lsi_constant_symmetric,
    lsi_functional,
    normalize_under_uniform,
    standard_dirichlet,
)
from channel_order.divergences import (
    _kl_chi2_rows,
    kl_chi2_integral_check,
    kl_chi2_local_check,
    maximal_correlation,
)
from channel_order.groups import circulant, cyclic_group
from channel_order.preorders import (
    SingularChannelError,
    Status,
    chi2_violation_pair,
    is_degraded,
    less_noisy_exact,
)
from channel_order.symdom import (
    circle_radius,
    classify_noise_pmf,
    delta_star,
    extremal_degraded_tau,
    ln_gamma_bound,
    lower_hull_member,
    min_entry_tight_channel,
    region_grid,
    min_entry_delta_lower,
)


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {number:02d}] PASS  {description}  ({elapsed:.1f}s)")


def test_criterion_01_symmetric_pair_degradation_interval():
    with criterion(1, "symmetric-pair degradation interval and its endpoint"):
        start = time.monotonic()
        for q in (2, 3, 4, 5):
            for delta in (0.1, 0.2, 0.3):
                w = symmetric_channel(q, delta)
                tau = extremal_degraded_tau(q, delta)
                for gamma in np.linspace(delta, tau, 50):
                    verdict = is_degraded(w, symmetric_channel(q, gamma))
                    assert verdict.dominates, (q, delta, gamma)
                beyond = is_degraded(w, symmetric_channel(q, tau + 0.01))
                assert beyond.status is Status.FAILS, (q, delta)
        assert time.monotonic() - start < 10.0


def test_criterion_02_less_noisy_gamma_bound():
    with criterion(2, "gamma bound certifies less-noisy domination beyond degradation"):
        start = time.monotonic()
        for q in (3, 4, 5, 8):
            for delta in np.arange(0.05, 0.601, 0.05):
                if delta > (q - 1) / q:
                    continue
                gamma = ln_gamma_bound(q, delta)
                w = symmetric_channel(q, delta)
                assert less_noisy_exact(w, symmetric_channel(q, gamma)).dominates, (q, delta)
                assert gamma > extremal_degraded_tau(q, delta), (q, delta)
        assert time.monotonic() - start < 5.0


def test_criterion_03_min_entry_threshold_tightness():
    with criterion(3, "minimum-entry degradation threshold is tight"):
        for q in (3, 4):
            for nu in (0.02, 0.05, 0.08):
                v = min_entry_tight_channel(q, nu)
                threshold = nu / (1 - (q - 1) * nu + nu / (q - 1))
                assert min_entry_delta_lower(v) == pytest.approx(threshold, abs=1e-12)
                at = is_degraded(symmetric_channel(q, threshold), v)
                assert at.dominates, (q, nu)
                beyond = is_degraded(symmetric_channel(q, 1.001 * threshold), v)
                assert beyond.status is Status.FAILS, (q, nu)


def test_criterion_04_closed_form_constants():
    with criterion(4, "closed-form eigenvalue, maximal correlation, composition"):
        deltas = np.arange(0.0, 1.001, 0.05)
        for q in (2, 3, 5, 10):
            u = uniform_pmf(q)
            for delta in deltas:
                lam = symmetric_eigenvalue(q, delta)
                eigs = np.sort(np.linalg.eigvalsh(symmetric_matrix(q, delta)))
                expected = np.sort(np.concatenate([[1.0], np.full(q - 1, lam)]))
                assert np.abs(eigs - expected).max() <= 1e-10, (q, delta)
                rho = maximal_correlation(u, symmetric_channel(q, delta))
                assert abs(rho - abs(lam)) <= 1e-10, (q, delta)
                composed = symmetric_compose_param(q, delta, delta)
                two_step = delta * (2.0 - q * delta / (q - 1))
                assert abs(composed - two_step) <= 1e-12, (q, delta)


def _random_invertible_channel(rng, q):
    while True:
        m = rng.dirichlet(np.ones(q), size=q)
        if abs(np.linalg.det(m)) > 1e-6:
            return Channel(m)


def _divergence_slacks(w, v, ps, qs):
    """Smallest D(pW||qW) - D(pV||qV) over the row pairs of ps and qs, for KL and chi-squared."""
    # one kernel call: axis 0 is the channel (W, V), axis 1 the pair
    kls, chis = _kl_chi2_rows(
        np.stack([ps @ w.matrix, ps @ v.matrix]), np.stack([qs @ w.matrix, qs @ v.matrix])
    )
    return float((kls[0] - kls[1]).min()), float((chis[0] - chis[1]).min())


def test_criterion_05_chi2_characterization_consistency():
    with criterion(5, "output divergence inequalities match the exact verdicts"):
        rng = np.random.default_rng(2024)
        dominating = 0
        while dominating < 50:
            q = int(rng.integers(2, 6))
            w = _random_invertible_channel(rng, q)
            a = Channel(rng.dirichlet(np.ones(q), size=q))
            v = Channel(w.matrix @ a.matrix)
            try:
                verdict = less_noisy_exact(w, v)
            except SingularChannelError:
                continue
            if not verdict.dominates:
                continue
            dominating += 1
            pairs = [
                (
                    rng.dirichlet(np.ones(q)),
                    (1 - 1e-6) * rng.dirichlet(np.ones(q)) + 1e-6 / q,
                )
                for _ in range(1000)
            ]
            ps, qs = map(np.array, zip(*pairs))
            kl_slack, chi2_slack = _divergence_slacks(w, v, ps, qs)
            assert kl_slack >= -1e-9
            assert chi2_slack >= -1e-9

        failing = 0
        while failing < 50:
            q = int(rng.integers(2, 6))
            w = _random_invertible_channel(rng, q)
            v = _random_invertible_channel(rng, q)
            try:
                verdict = less_noisy_exact(w, v)
            except SingularChannelError:
                continue
            if verdict.status is not Status.FAILS:
                continue
            failing += 1
            p_arr, q_arr, gap = chi2_violation_pair(w, v, verdict.witness)
            assert gap < 0, "witness must materialize a chi-squared violation"


def test_criterion_06_kl_chi2_bridges():
    with criterion(6, "integral and local bridges between KL and chi-squared"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = int(rng.integers(2, 6))
            p = Pmf(rng.dirichlet(np.ones(q)))
            interior = Pmf((1 - 1e-6) * rng.dirichlet(np.ones(q)) + 1e-6 / q)
            report = kl_chi2_integral_check(p, interior, 20001)
            assert report.relative_error <= 1e-4
        # local bridge at lambda = 1e-4, on the canonical pair and on random
        # pairs with a well-conditioned center
        report = kl_chi2_local_check([1, 0], [0.5, 0.5], [1e-4])
        assert report.final_gap <= 1e-3
        for _ in range(100):
            q = int(rng.integers(2, 6))
            p = Pmf(rng.dirichlet(np.ones(q)))
            center = Pmf(0.5 * rng.dirichlet(np.ones(q)) + 0.5 / q)
            report = kl_chi2_local_check(p, center, [1e-4])
            assert report.final_gap <= 1e-3


def test_criterion_07_region_figure():
    with criterion(7, "ternary region grid: nesting, hull stratum, uniform point"):
        start = time.monotonic()
        q, delta, grid_n = 3, 0.2, 60
        w_noise = symmetric_noise_pmf(q, delta).probs
        radius = circle_radius(q, delta)
        group = cyclic_group(q)
        w = symmetric_channel(q, delta)
        counts = {}
        from channel_order.preorders import majorizes

        for i, j, k in region_grid(grid_n):
            v = np.array([i, j, k], dtype=float) / grid_n
            label = classify_noise_pmf(q, delta, Pmf(v))
            counts[label] = counts.get(label, 0) + 1
            degraded = majorizes(w_noise, v)
            hull = lower_hull_member(q, delta, Pmf(v))
            in_circle = float(np.linalg.norm(v - 1 / 3)) <= radius + 1e-12
            # nested chain
            if degraded:
                assert hull, v
            if hull:
                assert in_circle, v
                try:
                    assert less_noisy_exact(w, Channel(circulant(group, v))).dominates, v
                except SingularChannelError:
                    pass
            # the classifier's label agrees with the predicates
            if degraded:
                assert label == "DEGRADED", v
            elif hull:
                assert label == "LOWER_HULL", v
            else:
                assert label in ("LESS_NOISY", "CIRCLE_ONLY", "OUTSIDE"), v
                assert (label != "OUTSIDE") == in_circle, v
        # the gamma orbit lies in the hull stratum but not the degraded one
        gamma = ln_gamma_bound(q, delta)
        for shift in range(q):
            orbit_point = Pmf(np.roll(symmetric_noise_pmf(q, gamma).probs, shift))
            assert classify_noise_pmf(q, delta, orbit_point) == "LOWER_HULL"
        assert classify_noise_pmf(q, delta, uniform_pmf(q)) == "DEGRADED"
        assert counts.get("DEGRADED", 0) > 0
        assert counts.get("LOWER_HULL", 0) > 0
        assert time.monotonic() - start < 60.0


def test_criterion_08_dirichlet_and_lsi():
    with criterion(8, "Dirichlet-form identity, LSI, KL decay, PSD transfer"):
        rng = np.random.default_rng(31)
        # scaling identity between the symmetric and standard forms
        w3 = symmetric_channel(3, 0.2)
        for _ in range(1000):
            f = rng.standard_normal(3) * 2.0
            expected = 3 * 0.2 / 2 * standard_dirichlet(f)
            assert abs(dirichlet_form(w3, f) - expected) <= 1e-12
        # log-Sobolev inequality at the closed-form constant
        for q, delta in ((3, 0.2), (3, 0.5), (5, 0.2), (5, 0.5)):
            w = symmetric_channel(q, delta)
            alpha = lsi_constant_symmetric(q, delta)
            for _ in range(1000):
                f = normalize_under_uniform(rng.standard_normal(q))
                assert lsi_functional(f) <= dirichlet_form(w, f) / alpha + 1e-9
        # KL decay at the discrete constant
        alpha = discrete_lsi_constant_symmetric(3, 0.2)
        report = kl_decay_check(w3, alpha, point_mass(3, 0), horizon=20)
        assert report.holds
        # less-noisy domination transfers to the standard-form comparison
        gamma = ln_gamma_bound(3, 0.2)
        generators = np.vstack(
            [
                np.vstack([np.roll(symmetric_noise_pmf(3, 0.2).probs, s) for s in range(3)]),
                np.vstack([np.roll(symmetric_noise_pmf(3, gamma).probs, s) for s in range(3)]),
            ]
        )
        group = cyclic_group(3)
        certified = 0
        while certified < 20:
            noise = rng.dirichlet(np.ones(6)) @ generators
            v = Channel(circulant(group, noise))
            try:
                if not less_noisy_exact(w3, v).dominates:
                    continue
            except SingularChannelError:
                continue
            certified += 1
            assert dirichlet_domination_check(w3, v, "standard")


def test_criterion_09_delta_star_sanity():
    with criterion(9, "delta-star brackets the symmetric, identity, constant channels"):
        start = time.monotonic()
        result = delta_star(symmetric_channel(3, 0.2), tol=1e-4)
        assert result.lower <= 0.2 + 1e-4 and result.upper >= 0.2 - 1e-4
        assert result.bracket_width <= 1e-4
        assert time.monotonic() - start < 5.0

        start = time.monotonic()
        result = delta_star(Channel(np.eye(3)), tol=1e-4)
        assert result.lower == 0.0 and result.upper <= 1e-4
        assert time.monotonic() - start < 5.0

        start = time.monotonic()
        result = delta_star(Channel(np.full((4, 4), 0.25)), tol=1e-4)
        assert result.lower == result.upper == pytest.approx(0.75, abs=1e-15)
        assert time.monotonic() - start < 5.0


def test_criterion_10_erasure_refutation_via_cli(tmp_path, capsys):
    with criterion(10, "CLI refutes symmetric-over-erasure with an infinite witness"):
        for delta in (0.1, 0.5):
            for eps in (0.1, 0.5):
                wf = tmp_path / f"w_{delta}.csv"
                wf.write_text(channel_to_csv(symmetric_channel(3, delta)))
                vf = tmp_path / f"v_{eps}.csv"
                vf.write_text(channel_to_csv(erasure_channel(3, eps)))
                code = cli_main(["check-less-noisy", "--w", str(wf), "--v", str(vf)])
                out = capsys.readouterr().out
                assert code == 1
                witness = json.loads(out)["witness"]
                assert witness["kind"] == "divergence_pair"
                assert witness["dominated_side"] == "inf"
                assert isinstance(witness["dominating_side"], float)
                assert math.isfinite(witness["dominating_side"])
