"""Domination by symmetric channels: thresholds, regions, delta-star, domination factor.

The additive noise pmfs dominated by a symmetric channel with crossover
probability delta form a nested chain of sets: the degradation region (the
convex hull of the cyclic shifts of the symmetric noise pmf), a polytope
lower bound for the less-noisy region (adding the shifts of the gamma-bound
noise pmf), the less-noisy region itself, and the Euclidean ball around
uniform of the symmetric noise pmf's radius.  ``classify_noise_pmf`` places a
pmf in the finest stratum it provably belongs to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

import numpy as np

from .channels import (
    Channel,
    Pmf,
    additive_channel,
    as_channel,
    as_pmf,
    symmetric_channel,
    symmetric_matrix,
    symmetric_noise_pmf,
    uniform_pmf,
)
from .divergences import eta_tv, kl, maximal_correlation, shannon_entropy
from .groups import circulant, cyclic_group
from .preorders import (
    LP_TOL,
    SingularChannelError,
    Status,
    convex_hull_membership,
    is_degraded,  # not called here; bench/tracing.py wraps this name
    less_noisy_exact,
    less_noisy_sampled,  # not called here; bench/tracing.py wraps this name
    majorizes,
)

LABELS = ("DEGRADED", "LOWER_HULL", "LESS_NOISY", "CIRCLE_ONLY", "OUTSIDE")


def min_entry_delta_lower(v) -> float:
    """Degradation threshold from the minimum entry of a square channel.

    With nu the smallest entry of V, every symmetric channel with crossover
    probability delta <= nu / (1 - (q-1) nu + nu/(q-1)) degrades to V.  The
    bound is tight over all channels with minimum entry nu.
    """
    vc = as_channel(v)
    if vc.rows != vc.cols:
        raise ValueError("channel must be square")
    q = vc.rows
    nu = float(vc.matrix.min())
    if nu <= 0.0:
        return 0.0
    return nu / (1.0 - (q - 1) * nu + nu / (q - 1))


def additive_degradation_delta(v) -> float:
    """Degradation threshold (q-1) * min(v) special to additive noise channels."""
    noise = as_pmf(v)
    q = len(noise)
    if q < 2:
        raise ValueError("noise pmf must have length >= 2")
    return (q - 1) * float(noise.probs.min())


def extremal_degraded_tau(q: int, delta: float) -> float:
    """Largest crossover probability whose symmetric channel is degraded from delta's.

    Symmetric channels degraded from W_delta are exactly those with parameter
    in [delta, 1 - delta/(q-1)]; at delta = (q-1)/q the interval collapses to
    the fixed point tau = delta.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    return 1.0 - delta / (q - 1)


def ln_gamma_bound(q: int, delta: float) -> float:
    """Crossover probability gamma with W_delta less noisy than W_gamma.

    gamma = (1-delta) / (1-delta + delta/(q-1)^2) exceeds the degradation
    endpoint 1 - delta/(q-1) strictly for q >= 3 and interior delta, which is
    what makes the region chain's first inclusion strict.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if not 0.0 <= delta <= (q - 1) / q:
        raise ValueError(f"delta must lie in [0, (q-1)/q], got {delta}")
    return (1.0 - delta) / (1.0 - delta + delta / (q - 1) ** 2)


def circle_radius(q: int, delta: float) -> float:
    """Euclidean distance of the symmetric noise pmf from uniform."""
    return abs(1.0 - q * delta / (q - 1)) * math.sqrt((q - 1) / q)


def _cyclic_shifts(vec: np.ndarray) -> np.ndarray:
    q = vec.size
    return np.vstack([np.roll(vec, k) for k in range(q)])


@dataclass(frozen=True)
class RegionPoint:
    """A noise pmf together with its stratum in the nested domination regions."""

    noise: Pmf
    label: str
    method: str = "exact"  # every stratum is decided exactly; kept as a CSV column

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label}")


def lower_hull_member(q: int, delta: float, v, lp_tol: float = LP_TOL) -> bool:
    """Membership of v in the hull of the cyclic shifts of the delta and gamma noise pmfs.

    Cyclic shifts are used regardless of the underlying group: the hull's 2q
    generators are defined through the rotation orbit of the two noise pmfs.
    """
    noise = as_pmf(v).probs
    gamma = ln_gamma_bound(q, delta)
    generators = np.vstack(
        [
            _cyclic_shifts(symmetric_noise_pmf(q, delta).probs),
            _cyclic_shifts(symmetric_noise_pmf(q, gamma).probs),
        ]
    )
    member, _ = convex_hull_membership(generators, noise, lp_tol)
    return member


def classify_noise_pmf(q: int, delta: float, v, norm_tol: float = 1e-12) -> RegionPoint:
    """Assign a noise pmf to the finest stratum of the nested region chain.

    Checked in order: DEGRADED (majorization by the symmetric noise pmf),
    LOWER_HULL (membership in the two-orbit hull), LESS_NOISY (exact vertex
    test of W_delta against the circulant, which may be singular), then
    CIRCLE_ONLY (inside the ball around uniform) and OUTSIDE.  The
    less-noisy test runs only inside the ball, which is necessary for it.
    """
    if not 0.0 <= delta <= (q - 1) / q:
        raise ValueError(f"delta must lie in [0, (q-1)/q], got {delta}")
    noise = as_pmf(v)
    if len(noise) != q:
        raise ValueError(f"noise pmf length {len(noise)} does not match q = {q}")
    w_noise = symmetric_noise_pmf(q, delta).probs
    if majorizes(w_noise, noise.probs):
        return RegionPoint(noise=noise, label="DEGRADED")
    if lower_hull_member(q, delta, noise):
        return RegionPoint(noise=noise, label="LOWER_HULL")
    inside_circle = (
        float(np.linalg.norm(noise.probs - 1.0 / q)) <= circle_radius(q, delta) + norm_tol
    )
    if not inside_circle:
        return RegionPoint(noise=noise, label="OUTSIDE")
    vc = Channel(circulant(cyclic_group(q), noise.probs))
    if less_noisy_exact(symmetric_channel(q, delta), vc).dominates:
        return RegionPoint(noise=noise, label="LESS_NOISY")
    return RegionPoint(noise=noise, label="CIRCLE_ONLY")


def region_grid(grid_n: int) -> Iterator[tuple[int, int, int]]:
    """Barycentric grid indices (i, j, k), i + j + k = grid_n, lexicographic in (i, j)."""
    for i in range(grid_n + 1):
        for j in range(grid_n - i + 1):
            yield i, j, grid_n - i - j


def region_sample(
    q: int, delta: float, grid_n: int, out=None, workers: int = 1
) -> list[RegionPoint]:
    """Classify every barycentric grid point and optionally stream CSV to ``out``.

    Only the ternary emitter (q = 3) is supported; the classifier itself is
    general.  CSV columns: v0,v1,v2,label,method with floats printed to 9
    significant digits.  Every point is decided exactly and rows are emitted
    in grid order, so serial and parallel runs produce byte-identical files.
    """
    if q != 3:
        raise ValueError("the grid emitter supports q = 3 only")
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    coords = [np.array(ijk, dtype=float) / grid_n for ijk in region_grid(grid_n)]
    classify = partial(classify_noise_pmf, q, delta)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(classify, coords, chunksize=32))
    else:
        results = [classify(c) for c in coords]
    if out is not None:
        out.write("v0,v1,v2,label,method\n")
        for c, point in zip(coords, results):
            out.write(",".join(format(x, ".9g") for x in c) + f",{point.label},{point.method}\n")
    return results


def region_label_counts(points: list[RegionPoint]) -> dict[str, int]:
    counts = {label: 0 for label in LABELS}
    for point in points:
        counts[point.label] += 1
    return counts


# ---------------------------------------------------------------------------
# delta-star
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaStarResult:
    """Bisection bracket for the largest delta whose symmetric channel is less noisy than V."""

    lower: float
    upper: float
    iterations: int
    bracket_width: float
    method: str = "exact"  # every probe is the exact vertex test; kept as a JSON key
    probes: tuple = field(default=(), repr=False)  # (delta, status value) pairs


def delta_star(v, tol: float = 1e-4) -> DeltaStarResult:
    """Bracket delta*(V) = sup{delta : W_delta less noisy than V} by bisection.

    Monotonicity holds because smaller-parameter symmetric channels degrade to
    larger-parameter ones and the less-noisy order is transitive, so the
    feasible set is an interval [0, delta*].  The bracket starts at the
    minimum-entry degradation threshold (feasible) and (q-1)/q (the boundary);
    each probe is the exact test, which needs W_delta invertible (delta below
    the boundary) but not V.  A probe so close to the boundary that W_delta
    counts as singular ends the bisection.
    """
    vc = as_channel(v)
    if vc.rows != vc.cols:
        raise ValueError("channel must be square")
    q = vc.rows
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    boundary = (q - 1) / q
    if np.abs(vc.matrix - vc.matrix[0]).max() <= 1e-12:
        return DeltaStarResult(lower=boundary, upper=boundary, iterations=0, bracket_width=0.0)
    probes = []

    def probe(delta: float) -> Status:
        try:
            status = less_noisy_exact(symmetric_channel(q, delta), vc).status
        except SingularChannelError:
            status = Status.UNDETERMINED
        probes.append((delta, status.value))
        return status

    lower = min_entry_delta_lower(vc)
    if lower > 0.0 and probe(lower) is not Status.DOMINATES:
        lower = 0.0  # numerical edge at the threshold; delta = 0 always dominates
    upper = boundary
    iterations = 0
    while upper - lower > tol and iterations < 200:
        iterations += 1
        mid = 0.5 * (lower + upper)
        status = probe(mid)
        if status is Status.DOMINATES:
            lower = mid
        elif status is Status.FAILS:
            upper = mid
        else:
            break  # W_mid counts as singular this close to the boundary
    return DeltaStarResult(
        lower=lower,
        upper=upper,
        iterations=iterations,
        bracket_width=upper - lower,
        probes=tuple(probes),
    )


# ---------------------------------------------------------------------------
# domination factor
# ---------------------------------------------------------------------------


def domination_factor_estimate(
    v, delta: float, samples: int = 2000, seed: int = 0
) -> float:
    """Certified lower estimate of the domination factor of V at parameter delta.

    The domination factor is the supremum over input pmf pairs of the ratio
    D(pV||qV) / D(pW||qW) with W the symmetric channel at delta; it is at
    most 1 exactly when W is less noisy than V.  Half the sampled pairs are
    Dirichlet draws, half concentrate near simplex vertices (where the
    supremum is typically approached), and the best pair is refined by
    coordinate ascent with halving steps.
    """
    vc = as_channel(v)
    q = vc.rows
    if not 0.0 < delta < (q - 1) / q:
        raise ValueError(f"delta must lie strictly inside (0, (q-1)/q), got {delta}")
    if np.any(vc.matrix <= 0):
        raise ValueError("channel must be strictly positive entry-wise")
    wm = symmetric_matrix(q, delta)
    vm = vc.matrix

    def ratio(p: np.ndarray, q_arr: np.ndarray) -> float:
        denom = float(kl(Pmf(p @ wm), Pmf(q_arr @ wm)))
        if denom < 1e-14 or not math.isfinite(denom):
            return -math.inf
        return float(kl(Pmf(p @ vm), Pmf(q_arr @ vm))) / denom

    rng = np.random.default_rng(seed)
    best = -math.inf
    best_pair = None
    half = samples // 2
    for index in range(samples):
        if index < half:
            p = rng.dirichlet(np.ones(q))
            q_arr = rng.dirichlet(np.ones(q))
        else:
            p = 0.98 * np.eye(q)[rng.integers(q)] + 0.02 * rng.dirichlet(np.ones(q))
            q_arr = 0.98 * np.eye(q)[rng.integers(q)] + 0.02 * rng.dirichlet(np.ones(q))
        r = ratio(p, q_arr)
        if r > best:
            best, best_pair = r, (p, q_arr)
    if best_pair is None:
        raise RuntimeError("no informative pair sampled")

    p, q_arr = best_pair
    step = 0.25
    for _ in range(100):
        improved = False
        for target in (0, 1):
            vec = p if target == 0 else q_arr
            for coord in range(q):
                for sign in (1.0, -1.0):
                    candidate = vec.copy()
                    candidate[coord] = max(0.0, candidate[coord] + sign * step)
                    total = candidate.sum()
                    if total <= 0:
                        continue
                    candidate = candidate / total
                    pair = (candidate, q_arr) if target == 0 else (p, candidate)
                    r = ratio(*pair)
                    if r > best:
                        best = r
                        p, q_arr = pair
                        improved = True
        if not improved:
            step *= 0.5
            if step < 1e-8:
                break
    return best


# ---------------------------------------------------------------------------
# necessary screens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScreenCondition:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    detail: dict


@dataclass(frozen=True)
class NecessaryScreenReport:
    conditions: tuple[ScreenCondition, ...]

    @property
    def any_violation(self) -> bool:
        return any(c.status == "fail" for c in self.conditions)


def necessary_screen(w, v) -> NecessaryScreenReport:
    """Cheap necessary conditions for one additive channel dominating another.

    Given noise pmfs w and v: the dominating side must sit farther from
    uniform in Euclidean distance, have no more Shannon entropy, and have no
    smaller KL contraction coefficient.  The first two are decisive; the
    contraction test compares intervals (squared maximal correlation up to
    the Dobrushin coefficient) and reports "inconclusive" when they overlap.
    Any failed condition certifies that domination cannot hold.
    """
    wp, vp = as_pmf(w), as_pmf(v)
    if len(wp) != len(vp):
        raise ValueError("noise pmfs must have equal length")
    q = len(wp)
    u = uniform_pmf(q)
    group = cyclic_group(q)
    w_norm = float(np.linalg.norm(wp.probs - u.probs))
    v_norm = float(np.linalg.norm(vp.probs - u.probs))
    circle = ScreenCondition(
        name="circle",
        status="pass" if w_norm >= v_norm - 1e-12 else "fail",
        detail={"w_distance": w_norm, "v_distance": v_norm},
    )
    hw, hv = shannon_entropy(wp), shannon_entropy(vp)
    entropy = ScreenCondition(
        name="entropy",
        status="pass" if hv >= hw - 1e-12 else "fail",
        detail={"w_entropy": hw, "v_entropy": hv},
    )
    wc, vc = additive_channel(group, wp), additive_channel(group, vp)
    w_lo, w_hi = maximal_correlation(u, wc) ** 2, eta_tv(wc)
    v_lo, v_hi = maximal_correlation(u, vc) ** 2, eta_tv(vc)
    if w_hi < v_lo - 1e-12:
        contraction_status = "fail"  # W's coefficient is certainly below V's
    elif w_lo >= v_hi - 1e-12:
        contraction_status = "pass"
    else:
        contraction_status = "inconclusive"
    contraction = ScreenCondition(
        name="contraction",
        status=contraction_status,
        detail={"w_interval": (w_lo, w_hi), "v_interval": (v_lo, v_hi)},
    )
    return NecessaryScreenReport(conditions=(circle, entropy, contraction))


def min_entry_tight_channel(q: int, nu: float) -> Channel:
    """The extremal channel with minimum entry nu for the degradation threshold.

    Built by replacing the first row of the symmetric channel at (q-1) nu
    with its second row; the minimum-entry degradation threshold is attained
    with equality on this channel.
    """
    if not 0.0 < nu < 1.0 / q:
        raise ValueError(f"minimum entry must lie in (0, 1/q), got {nu}")
    base = symmetric_matrix(q, (q - 1) * nu)
    # row selector (2, 1, ..., 1): first output row copies the base channel's
    # second row, all remaining rows copy its first row
    selector = np.zeros((q, q))
    selector[0, 1] = 1.0
    selector[1:, 0] = 1.0
    return Channel(selector @ base)
