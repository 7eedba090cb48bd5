"""Dirichlet forms over the uniform distribution, log-Sobolev constants, KL decay.

Everything here assumes doubly stochastic chains (uniform stationary
distribution); other stationary laws are rejected.  The symmetric channel's
Dirichlet form is an exact multiple of the standard one (the variance under
uniform), which makes its log-Sobolev constants available in closed form and
lets a less-noisy comparison transfer those constants to arbitrary doubly
stochastic channels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channels import as_channel, as_pmf, symmetric_matrix
from .divergences import kl
from .preorders import psd_check


def _doubly_stochastic_matrix(v, name: str = "channel") -> np.ndarray:
    channel = as_channel(v)
    if not channel.is_doubly_stochastic():
        raise ValueError(f"{name} must be doubly stochastic")
    return channel.matrix


def dirichlet_form(v, f) -> float:
    """Energy (1/q) f^T (I - V) f of f under the doubly stochastic chain V.

    Equals the same form with V replaced by its symmetrization (V + V^T)/2.
    """
    m = _doubly_stochastic_matrix(v)
    fv = np.asarray(f, dtype=float).reshape(-1)
    if fv.size != m.shape[0]:
        raise ValueError("function length does not match the chain's state count")
    return float(fv @ (fv - m @ fv)) / fv.size


def standard_dirichlet(f) -> float:
    """Variance of f under the uniform distribution; the all-uniform-rows chain's form."""
    fv = np.asarray(f, dtype=float).reshape(-1)
    return float(np.mean(fv**2) - np.mean(fv) ** 2)


def normalize_under_uniform(f) -> np.ndarray:
    """Scale f so that (1/q) sum f_k^2 = 1."""
    fv = np.asarray(f, dtype=float).reshape(-1)
    norm = math.sqrt(float(np.mean(fv**2)))
    if norm <= 0:
        raise ValueError("cannot normalize the zero function")
    return fv / norm


def lsi_constant_symmetric(q: int, delta: float) -> float:
    """Log-Sobolev constant of the symmetric channel: delta for q = 2, else
    (q-2) delta / ((q-1) log(q-1))."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if q == 2:
        return delta
    return (q - 2) * delta / ((q - 1) * math.log(q - 1))


def discrete_lsi_constant_symmetric(q: int, delta: float) -> float:
    """Log-Sobolev constant of W W^T for the symmetric channel W.

    The product is itself symmetric with parameter delta' = delta(2 - q
    delta/(q-1)), so this is the ordinary constant at delta'; for q = 2 it
    equals 2 delta (1 - delta).
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    delta_prime = delta * (2.0 - q * delta / (q - 1))
    if delta_prime <= 0.0:
        return 0.0  # q = 2, delta = 1: the two-step chain is the identity
    return lsi_constant_symmetric(q, delta_prime)


def lsi_functional(f) -> float:
    """Relative entropy D(f^2 u || u) = (1/q) sum f_k^2 log f_k^2 for normalized f.

    f must satisfy (1/q) sum f_k^2 = 1 within 1e-9 (NaN is rejected).
    """
    fv = np.asarray(f, dtype=float).reshape(-1)
    if not abs(float(np.mean(fv**2)) - 1.0) <= 1e-9:
        raise ValueError("f must satisfy (1/q) sum f_k^2 = 1")
    sq = fv**2
    support = sq > 0
    return float(np.sum(sq[support] * np.log(sq[support]))) / fv.size


def estimate_lsi_constant(v, samples: int = 2000, seed: int = 0) -> float:
    """Sampled upper bound on the log-Sobolev constant of a doubly stochastic chain.

    Minimizes the Dirichlet-to-entropy ratio over normalized Gaussian draws
    and near-indicator spikes (the extremizers at small crossover are
    spike-like).  The sampled minimum can only overestimate the true infimum.
    """
    m = _doubly_stochastic_matrix(v)
    q = m.shape[0]
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
        if entropy < 1e-6:
            continue  # near-constant f: the ratio is all cancellation noise
        best = min(best, dirichlet_form(m, f) / entropy)
    if not math.isfinite(best):
        raise RuntimeError("no informative test function sampled")
    return best


def _infer_symmetric_delta(m: np.ndarray) -> float:
    q = m.shape[0]
    delta = float(1.0 - np.trace(m) / q)
    if np.abs(m - symmetric_matrix(q, delta)).max() > 1e-9:
        raise ValueError("standard-form comparison requires W to be a symmetric channel")
    return delta


def dirichlet_domination_check(w, v, kind: str) -> bool:
    """Pointwise Dirichlet-form domination of W's form by V's, as a PSD test.

    kind="discrete": compares the forms of W W^T and V V^T, i.e. checks
    W W^T - V V^T >= 0.  Implied by W less noisy than V.

    kind="continuous": compares the forms of W and V directly via their
    symmetrizations; requires W positive semidefinite and V normal.

    kind="standard": W must be the symmetric channel at some delta, which is
    read off W; checks that V's form dominates q delta/(q-1) times the
    standard form, i.e. W_delta - (V + V^T)/2 >= 0.
    """
    wm = _doubly_stochastic_matrix(w, "W")
    vm = _doubly_stochastic_matrix(v, "V")
    if wm.shape != vm.shape:
        raise ValueError("channels must share their alphabet")
    if kind == "discrete":
        ok, _, _ = psd_check(wm @ wm.T - vm @ vm.T)
        return ok
    if kind == "continuous":
        psd, _, _ = psd_check(0.5 * (wm + wm.T))
        if not psd:
            raise ValueError("continuous-form comparison requires W positive semidefinite")
        if np.abs(vm @ vm.T - vm.T @ vm).max() > 1e-9:
            raise ValueError("continuous-form comparison requires V normal")
        ok, _, _ = psd_check(0.5 * (wm + wm.T) - 0.5 * (vm + vm.T))
        return ok
    if kind == "standard":
        q = wm.shape[0]
        delta = _infer_symmetric_delta(wm)
        if not 0.0 <= delta <= (q - 1) / q + 1e-12:
            raise ValueError("standard-form comparison needs delta in [0, (q-1)/q]")
        ok, _, _ = psd_check(wm - 0.5 * (vm + vm.T))
        return ok
    raise ValueError(f"unknown comparison kind {kind!r}")


@dataclass(frozen=True)
class DecayStep:
    n: int
    lhs: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.lhs


@dataclass(frozen=True)
class DecayReport:
    alpha: float
    steps: tuple[DecayStep, ...]

    @property
    def holds(self) -> bool:
        return all(step.margin >= -1e-12 for step in self.steps)

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "steps": [
                    {"n": s.n, "lhs": s.lhs, "bound": s.bound} for s in self.steps
                ],
            }
        )


def kl_decay_check(v, alpha: float, mu0, horizon: int = 20) -> DecayReport:
    """Check geometric KL decay to uniform: D(mu V^n || u) <= (1-alpha)^n D(mu || u).

    With alpha the discrete log-Sobolev constant of a chain dominating V in
    the less-noisy order, the bound is a consequence of that domination; with
    alpha = 0 it reduces to plain data processing.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    m = _doubly_stochastic_matrix(v)
    q = m.shape[0]
    mu = as_pmf(mu0).probs
    if mu.size != q:
        raise ValueError("initial pmf length does not match the chain")
    u = np.full(q, 1.0 / q)
    base = float(kl(mu, u))
    steps = []
    current = mu
    for n in range(1, horizon + 1):
        current = current @ m
        steps.append(
            DecayStep(n=n, lhs=float(kl(current, u)), bound=(1.0 - alpha) ** n * base)
        )
    return DecayReport(alpha=alpha, steps=tuple(steps))
