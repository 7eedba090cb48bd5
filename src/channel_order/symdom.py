"""Domination by symmetric channels: thresholds, regions, delta-star, domination factor.

The additive noise pmfs dominated by a symmetric channel with crossover
probability delta form a nested chain of sets: the degradation region (the
convex hull of the cyclic shifts of the symmetric noise pmf), a polytope
lower bound for the less-noisy region (adding the shifts of the gamma-bound
noise pmf), the less-noisy region itself, and the Euclidean ball around
uniform of the symmetric noise pmf's radius.  ``classify_noise_pmfs`` places
each pmf of a stack in the finest stratum it provably belongs to, one array
pass per stratum, and returns their labels.

The polytope has a closed form.  With u uniform and e_k the k-th unit
vector, the symmetric noise pmf at parameter t and its shifts are
u + r(t) (e_k - u) with r(t) = 1 - q t / (q-1), so the 2q generators are

    u + r_d (e_k - u)   with r_d = r(delta) >= 0,
    u + r_g (e_k - u)   with r_g = r(gamma) <= 0.

A pmf p = u + d lies in their hull iff d = sum_k c_k (e_k - u) with
c_k = a_k r_d - b_k |r_g|, weights a, b >= 0 and sum(a) + sum(b) <= 1
(adding equal weight to every a_k moves c by a multiple of the all-ones
vector, which the e_k - u ignore, so the total can be padded up to 1).
The c that give d are c = d + s 1 for a scalar s, and the cheapest split
of c_k costs c_k^+ / r_d + c_k^- / |r_g|.  That cost is convex and piecewise
linear in s with breakpoints at s = -d_j, so

    p in hull  iff  min_j sum_k [(p_k - p_j)^+ / r_d + (p_j - p_k)^+ / |r_g|] <= 1.

At delta = (q-1)/q both radii vanish and the hull is {u}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .channels import (
    Channel,
    _symmetric_is_singular,
    additive_channel,
    as_channel,
    as_pmf,
    pmf_rows,
    symmetric_eigenvalue,
    symmetric_matrix,
    symmetric_noise_pmf,
    uniform_pmf,
)
# kl: not called here; bench/tracing.py wraps it
from .divergences import _kl_chi2_rows, eta_tv, kl, maximal_correlation, shannon_entropy
from .groups import circulant, cyclic_group  # circulant: not called here; bench/tracing.py wraps it
from .preorders import (
    LP_TOL,
    Status,
    _DeltaPencil,
    _orbit_letters,
    _rows_all_equal,
    _vertex_checks,
    is_degraded,  # not called here; bench/tracing.py wraps this name
    less_noisy_exact,  # not called here; bench/tracing.py wraps this name
    less_noisy_sampled,  # not called here; bench/tracing.py wraps this name
    majorized_rows,
    majorizes,  # not called here; bench/tracing.py wraps this name
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
    _check_delta(q, delta)
    return (1.0 - delta) / (1.0 - delta + delta / (q - 1) ** 2)


def _check_delta(q: int, delta: float) -> None:
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if not 0.0 <= delta <= (q - 1) / q:
        raise ValueError(f"delta must lie in [0, (q-1)/q], got {delta}")


def circle_radius(q: int, delta: float) -> float:
    """Euclidean distance of the symmetric noise pmf from uniform."""
    return abs(1.0 - q * delta / (q - 1)) * math.sqrt((q - 1) / q)


def _hull_members(q: int, delta: float, noise: np.ndarray) -> np.ndarray:
    """Closed-form hull test (module docstring) for each row of an (n, q) stack."""
    r_delta = 1.0 - q * delta / (q - 1)
    r_gamma = q * ln_gamma_bound(q, delta) / (q - 1) - 1.0  # |r(gamma)|
    if r_delta <= 0.0:
        # the hull is {uniform}; the LP's phase-one residual is the L1 distance
        return np.abs(noise - 1.0 / q).sum(axis=1) <= LP_TOL
    diff = noise[:, :, None] - noise[:, None, :]  # [n, k, j] = p_k - p_j
    up, down = np.maximum(diff, 0.0), np.maximum(-diff, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # r_gamma rounds to 0 only within an ulp of the boundary; 0 / 0 counts as 0
        down = np.where(down > 0.0, down / r_gamma, 0.0)
    cost = (up / r_delta + down).sum(axis=1).min(axis=1)
    return cost <= 1.0 + LP_TOL


def lower_hull_member(q: int, delta: float, v) -> bool:
    """Membership of v in the hull of the cyclic shifts of the delta and gamma noise pmfs.

    Cyclic shifts are used regardless of the underlying group: the hull's 2q
    generators u + r(t) (e_k - u), t in {delta, gamma}, are the rotation orbits
    of the two noise pmfs.  Decided in closed form, not by an LP: p is a
    member iff min_j sum_k [(p_k - p_j)^+ / r(delta) + (p_j - p_k)^+ / |r(gamma)|]
    <= 1 + LP_TOL, with r(t) = 1 - q t / (q-1).  The module docstring derives
    it.  At delta = (q-1)/q the hull is the uniform pmf alone, and p is a member
    iff its L1 distance from uniform is at most LP_TOL.
    """
    _check_delta(q, delta)
    noise = as_pmf(v).probs
    if noise.size != q:
        raise ValueError(f"noise pmf length {noise.size} does not match q = {q}")
    return bool(_hull_members(q, delta, noise[None, :])[0])


def classify_noise_pmfs(q: int, delta: float, noise) -> list[str]:
    """Assign each row of an (n, q) stack of noise pmfs to its finest stratum.

    Checked in order, each test on the rows still unlabelled: DEGRADED
    (majorization by the symmetric noise pmf), LOWER_HULL (membership in the
    two-orbit hull), then OUTSIDE the ball around uniform, and inside it
    LESS_NOISY (exact vertex test of W_delta against the circulant, which may
    be singular) or CIRCLE_ONLY.  The less-noisy test runs only inside the
    ball, which is necessary for it.  Cyclic shifts fix W_delta and every
    circulant and carry letter 0 to every letter, so the check at letter 0
    decides alone (``preorders._vertex_checks``).  W_delta is gated in closed
    form: when it counts as singular it is taken for a constant-row channel,
    so a circulant is LESS_NOISY iff its rows are equal within ENTRY_TOL, and
    nothing raises.  Rows pass ``channels.pmf_rows``, as a ``Pmf`` does.
    Returns one label per row.
    """
    _check_delta(q, delta)
    p = np.asarray(noise, dtype=float)
    if p.ndim != 2 or p.shape[1] != q:
        raise ValueError(f"expected an (n, {q}) stack of noise pmfs, got shape {p.shape}")
    p = pmf_rows(p)
    label = np.full(len(p), LABELS.index("OUTSIDE"))
    degraded = majorized_rows(symmetric_noise_pmf(q, delta).probs, p)
    label[degraded] = LABELS.index("DEGRADED")
    rest = np.flatnonzero(~degraded)
    hull = _hull_members(q, delta, p[rest])
    label[rest[hull]] = LABELS.index("LOWER_HULL")
    rest = rest[~hull]
    inside = np.linalg.norm(p[rest] - 1.0 / q, axis=1) <= circle_radius(q, delta) + 1e-12
    rest = rest[inside]
    if rest.size:
        # entry (a, b) of the cyclic circulant is p[b - a], as groups.circulant builds it
        shifts = (np.arange(q) - np.arange(q)[:, None]) % q
        circulants = p[rest][:, shifts]
        if _symmetric_is_singular(symmetric_eigenvalue(q, delta)):
            dominated = _rows_all_equal(circulants)
        else:
            dominated = _vertex_checks(symmetric_matrix(q, delta), circulants, range(1))[2] < 0
        label[rest] = np.where(
            dominated, LABELS.index("LESS_NOISY"), LABELS.index("CIRCLE_ONLY")
        )
    return [LABELS[i] for i in label]


def classify_noise_pmf(q: int, delta: float, v) -> str:
    """Label of one noise pmf's finest stratum; see ``classify_noise_pmfs``."""
    return classify_noise_pmfs(q, delta, as_pmf(v).probs[None, :])[0]


def region_grid(grid_n: int) -> Iterator[tuple[int, int, int]]:
    """Barycentric grid indices (i, j, k), i + j + k = grid_n, lexicographic in (i, j)."""
    for i in range(grid_n + 1):
        for j in range(grid_n - i + 1):
            yield i, j, grid_n - i - j


def region_sample(q: int, delta: float, grid_n: int, out=None) -> list[str]:
    """Label every barycentric grid point and optionally write CSV to ``out``.

    Returns the labels in ``region_grid`` order.  Only the ternary emitter
    (q = 3) is supported; the classifier itself is general.  CSV columns:
    v0,v1,v2,label,method with floats printed to 9 significant digits and
    method always "exact".  The whole grid is classified in one call to
    ``classify_noise_pmfs`` and rows are emitted in grid order, so identical
    arguments give byte-identical files.
    """
    if q != 3:
        raise ValueError("the grid emitter supports q = 3 only")
    _check_delta(q, delta)
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    coords = np.array(list(region_grid(grid_n)), dtype=float) / grid_n
    labels = classify_noise_pmfs(q, delta, coords)
    if out is not None:
        out.write("v0,v1,v2,label,method\n")
        for c, label in zip(coords.tolist(), labels):
            out.write(",".join(format(x, ".9g") for x in c) + f",{label},exact\n")
    return labels


def region_label_counts(labels: list[str]) -> dict[str, int]:
    return {label: labels.count(label) for label in LABELS}


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
    probes: tuple = field(default=(), repr=False)  # (delta, status value) pairs


def delta_star(v, tol: float = 1e-4) -> DeltaStarResult:
    """Bracket delta*(V) = sup{delta : W_delta less noisy than V} by bisection.

    Monotonicity holds because smaller-parameter symmetric channels degrade to
    larger-parameter ones and the less-noisy order is transitive, so the
    feasible set is an interval [0, delta*].  The bracket starts at the
    minimum-entry degradation threshold (feasible) and (q-1)/q (the boundary).
    Each probe is the exact vertex test of ``less_noisy_exact``, with no
    witness, and needs W_delta invertible (delta below the boundary) but not
    V.  With r = 1 - delta - delta/(q-1), W_delta = r I + (1 - r) J / q, so
    its singularity gate is closed form (``channels._symmetric_is_singular``),
    and a probe so close to the boundary that W_delta counts as singular ends
    the bisection.  Every vertex matrix is a quadratic in t = 1/r whose
    coefficients are computed once per call (``preorders._DeltaPencil``); a
    probe evaluates them and runs one Cholesky factorization per letter, the
    letter that failed last first, and builds no channel and solves nothing.
    W_delta commutes with every permutation, so when V's own symmetry carries
    letter 0 to every letter (an additive V with distinct noise entries, or a
    V that is itself r' I + c' J) only letter 0 is checked
    (``preorders._orbit_letters``).  ``tol`` must be positive (NaN is
    rejected).
    """
    vc = as_channel(v)
    if vc.rows != vc.cols:
        raise ValueError("channel must be square")
    q = vc.rows
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    boundary = (q - 1) / q
    if _rows_all_equal(vc.matrix):
        return DeltaStarResult(lower=boundary, upper=boundary, iterations=0, bracket_width=0.0)
    probes = []
    pencil = _DeltaPencil(vc.matrix, _orbit_letters(vc.matrix))

    def probe(delta: float) -> Status:
        r = symmetric_eigenvalue(q, delta)
        if _symmetric_is_singular(r):
            status = Status.UNDETERMINED
        else:
            status = Status.DOMINATES if pencil.dominates(r) else Status.FAILS
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
    supremum is typically approached), all scored in one pass of the
    divergence kernel, and the best pair is refined by coordinate ascent
    with halving steps.
    """
    vc = as_channel(v)
    q = vc.rows
    if not 0.0 < delta < (q - 1) / q:
        raise ValueError(f"delta must lie strictly inside (0, (q-1)/q), got {delta}")
    if np.any(vc.matrix <= 0):
        raise ValueError("channel must be strictly positive entry-wise")
    wm = symmetric_matrix(q, delta)
    vm = vc.matrix

    def outputs(p: np.ndarray, q_arr: np.ndarray) -> np.ndarray:
        # one product per vector: a stacked product rounds differently
        return np.array([p @ wm, p @ vm, q_arr @ wm, q_arr @ vm])

    def ratios(out: np.ndarray) -> np.ndarray:
        """D(pV||qV) / D(pW||qW) per (4, q) block of ``outputs``; -inf where uninformative."""
        divergences = _kl_chi2_rows(out[..., :2, :], out[..., 2:, :])[0]
        denom, numer = divergences[..., 0], divergences[..., 1]
        informative = (denom >= 1e-14) & np.isfinite(denom)
        return np.where(informative, numer / np.where(informative, denom, 1.0), -math.inf)

    rng = np.random.default_rng(seed)
    half = samples // 2
    pairs = np.empty((samples, 2, q))
    out = np.empty((samples, 4, q))
    for index in range(samples):
        if index < half:
            p = rng.dirichlet(np.ones(q))
            q_arr = rng.dirichlet(np.ones(q))
        else:
            p = 0.98 * np.eye(q)[rng.integers(q)] + 0.02 * rng.dirichlet(np.ones(q))
            q_arr = 0.98 * np.eye(q)[rng.integers(q)] + 0.02 * rng.dirichlet(np.ones(q))
        pairs[index] = p, q_arr
        out[index] = outputs(p, q_arr)
    scores = ratios(out)
    if not (scores > -math.inf).any():
        raise RuntimeError("no informative pair sampled")
    first_best = int(np.argmax(scores))
    best = float(scores[first_best])
    p, q_arr = pairs[first_best]

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
                    r = float(ratios(outputs(*pair)))
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
