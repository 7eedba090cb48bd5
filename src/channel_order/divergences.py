"""f-divergences, contraction coefficients, and maximal correlation on finite alphabets.

All divergences use natural logarithms.  Infinite values are returned as an
explicit ``DivergenceValue(inf)`` produced by an absolute-continuity check,
never as the result of a float overflow; several arguments in this library
(e.g. why no symmetric channel dominates an erasure channel) hinge on telling
finite from infinite apart reliably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Pmf, as_channel, as_pmf, uniform_pmf


class DivergenceValue(float):
    """A nonnegative divergence in nats; may be ``inf`` when absolute continuity fails."""

    def __new__(cls, value: float):
        if value < 0:
            raise ValueError(f"divergence cannot be negative, got {value}")
        return super().__new__(cls, value)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self)


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    pv, qv = as_pmf(p).probs, as_pmf(q).probs
    if pv.size != qv.size:
        raise ValueError(f"dimension mismatch: {pv.size} vs {qv.size}")
    return pv, qv


def _kl_chi2_rows(ps: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D(p||q) and chi2(p||q) for each row pair of two pmf stacks, unchecked.

    Sums p log(p/q) and (p - q)^2/q along the last axis, with 0 log 0 = 0/0 = 0.
    The chi-squared terms are nonnegative, so a small chi-squared keeps its
    relative accuracy; the equal sum p^2/q - 1 would cancel to round-off.
    Both are +inf where q vanishes somewhere on p's support, by that test and
    never by overflow; KL round-off in (-1e-12, 0) reads 0.
    """
    support = ps > 0
    safe = np.where(qs > 0, qs, 1.0)  # keeps log and division finite; singular rows are set below
    kls = (ps * np.log(np.where(support, ps / safe, 1.0))).sum(axis=-1)
    chis = ((ps - qs) ** 2 / safe).sum(axis=-1)
    values = np.array([kls, chis])
    values[(values < 0) & (values > -1e-12)] = 0.0
    values[..., (support & (qs <= 0)).any(axis=-1)] = math.inf
    return values[0], values[1]


def kl(p, q) -> DivergenceValue:
    """Kullback-Leibler divergence D(p||q) with the 0 log 0 = 0 convention."""
    return DivergenceValue(float(_kl_chi2_rows(*_pair(p, q))[0]))


def chi2(p, q) -> DivergenceValue:
    """Chi-squared divergence sum_i (p_i - q_i)^2/q_i with the 0/0 = 0 convention."""
    return DivergenceValue(float(_kl_chi2_rows(*_pair(p, q))[1]))


def tv_distance(p, q) -> float:
    """Total variation distance, half the l1 distance; lies in [0, 1]."""
    pv, qv = _pair(p, q)
    return float(0.5 * np.abs(pv - qv).sum())


def shannon_entropy(p) -> float:
    """Shannon entropy in nats."""
    pv = as_pmf(p).probs
    support = pv > 0
    return float(-np.sum(pv[support] * np.log(pv[support])))


def eta_tv(w) -> float:
    """Dobrushin contraction coefficient: the maximum TV distance between rows."""
    m = as_channel(w).matrix
    best = 0.0
    for i in range(m.shape[0]):
        d = 0.5 * np.abs(m[i + 1 :] - m[i]).sum(axis=1)
        if d.size:
            best = max(best, float(d.max()))
    return best


def maximal_correlation(p, w) -> float:
    """Maximal correlation of input pmf p and the output of channel w.

    Computed as the second largest singular value of the divergence transition
    matrix diag(p)^{1/2} W diag(pW)^{-1/2}; requires p and pW strictly positive.
    """
    pv = as_pmf(p).probs
    m = as_channel(w).matrix
    if pv.size != m.shape[0]:
        raise ValueError("pmf length does not match channel input size")
    if np.any(pv <= 0):
        raise ValueError("input pmf must be strictly positive")
    out = pv @ m
    if np.any(out <= 0):
        raise ValueError("output pmf must be strictly positive")
    dtm = np.sqrt(pv)[:, None] * m / np.sqrt(out)[None, :]
    sv = np.linalg.svd(dtm, compute_uv=False)
    if sv.size < 2:
        return 0.0
    return float(min(1.0, sv[1]))


def eta_kl_bounds(w, samples: int = 200, seed: int = 0) -> tuple[float, float]:
    """Bracket the KL contraction coefficient of a channel.

    The lower bound is the best squared maximal correlation found over the
    uniform pmf and ``samples`` random interior input pmfs; the upper bound is
    the Dobrushin coefficient.  The same bracket also bounds the chi-squared
    contraction coefficient, which coincides with the KL one.
    """
    ch = as_channel(w)
    q = ch.rows
    rng = np.random.default_rng(seed)
    lower = maximal_correlation(uniform_pmf(q), ch) ** 2
    for _ in range(samples):
        p = rng.dirichlet(np.ones(q))
        p = (1.0 - 1e-6) * p + 1e-6 / q
        lower = max(lower, maximal_correlation(Pmf(p), ch) ** 2)
    upper = eta_tv(ch)
    if lower > upper + 1e-12:
        raise AssertionError(f"contraction bracket inverted: {lower} > {upper}")
    return lower, upper


@dataclass(frozen=True)
class LocalCheckReport:
    """Scaled KL values along a mixture path and their gap to the chi-squared limit."""

    entries: tuple[tuple[float, float], ...]  # (lambda, (2/lambda^2) KL)
    chi2_value: float
    final_gap: float


def kl_chi2_local_check(p, q, lambda_sequence) -> LocalCheckReport:
    """Check that (2/t^2) D(t p + (1-t) q || q) approaches chi2(p||q) as t -> 0."""
    pv, qv = _pair(p, q)
    if np.any(qv <= 0):
        raise ValueError("second argument must be strictly interior")
    target = float(chi2(pv, qv))
    entries = []
    for lam in lambda_sequence:
        if not 0 < lam <= 1:
            raise ValueError(f"mixture weights must lie in (0, 1], got {lam}")
        mix = qv + lam * (pv - qv)  # exact when p = q
        entries.append((float(lam), float(2.0 / lam**2 * kl(Pmf(mix), Pmf(qv)))))
    gap = abs(entries[-1][1] - target) if entries else math.nan
    return LocalCheckReport(entries=tuple(entries), chi2_value=target, final_gap=gap)


@dataclass(frozen=True)
class IntegralCheckReport:
    kl_value: float
    integral_value: float
    relative_error: float
    nodes: int


def kl_chi2_integral_check(p, q, quadrature_nodes: int = 20001) -> IntegralCheckReport:
    """Reproduce KL divergence by integrating chi-squared along a mixture path.

    D(p||q) equals the integral over t in [0, inf) of
    chi2(p || (t p + q)/(t + 1)) / (t + 1); substituting t = s/(1-s) maps the
    half line to s in [0, 1), integrated with composite Simpson quadrature.
    """
    pv, qv = _pair(p, q)
    if np.any(qv <= 0):
        raise ValueError("second argument must be strictly interior")
    n = int(quadrature_nodes)
    if n < 3:
        raise ValueError("need at least 3 quadrature nodes")
    if n % 2 == 0:
        n += 1  # Simpson needs an odd node count
    s = np.linspace(0.0, 1.0, n)
    # with t = s/(1-s) the mixture (t p + q)/(t+1) is p + (1-s)(q - p), and dt/(t+1) is ds/(1-s)
    mixtures = pv[None, :] + (1.0 - s)[:, None] * (qv - pv)[None, :]
    integrand = np.zeros(n)  # the limit at s = 1: chi2 vanishes quadratically there
    integrand[:-1] = _kl_chi2_rows(pv, mixtures[:-1])[1] / (1.0 - s[:-1])
    h = s[1] - s[0]
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = float(h / 3.0 * np.sum(weights * integrand))
    exact = float(kl(pv, qv))
    rel = abs(integral - exact) / max(abs(exact), 1e-300)
    return IntegralCheckReport(kl_value=exact, integral_value=integral, relative_error=rel, nodes=n)
