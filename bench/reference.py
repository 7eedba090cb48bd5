"""Independent reference for the verdicts the benchmark times.

Plain numpy and scipy only; nothing here imports ``channel_order``, so a
fault in the program's decision paths cannot hide in its own check.

Both exact tests go through the single matrix ``A = W^{-1} V`` (W square and
invertible, V any channel on the same input alphabet):

* degradation: ``V = W K`` pins ``K = A``, whose rows sum to one because W's
  do, so V is degraded from W iff ``A >= 0``;
* less noisy: ``W`` is less noisy than ``V`` iff
  ``diag(V[x]) - A^T diag(W[x]) A`` is PSD at every input letter x.  The
  all-ones vector is always in its kernel, so the eigenvalues are taken on
  its orthogonal complement; otherwise every margin would read zero.

Each margin comes with a tolerance band scaled to the quantities compared
(``|A|``, never ``1/sigma_min(V)``).  A margin inside its band is ambiguous and
either verdict is accepted there.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull

DOMINATES, FAILS, AMBIGUOUS = "dominates", "fails", "ambiguous"
REL_BAND = 1e-9
KERNEL_TOL = 1e-6


def symmetric(q: int, delta: float) -> np.ndarray:
    """W_delta: 1 - delta on the diagonal, delta / (q - 1) elsewhere."""
    m = np.full((q, q), delta / (q - 1))
    np.fill_diagonal(m, 1.0 - delta)
    return m


def circulant(noise) -> np.ndarray:
    """Cyclic circulant over Z_q: entry (a, b) is noise[(b - a) mod q]."""
    v = np.asarray(noise, dtype=float)
    q = v.size
    idx = (np.arange(q)[None, :] - np.arange(q)[:, None]) % q
    return v[idx]


def classify(margin: float, band: float) -> str:
    if margin >= band:
        return DOMINATES
    if margin <= -band:
        return FAILS
    return AMBIGUOUS


def accepts(reference: str, status: str) -> bool:
    """Does a program status agree with a reference class?"""
    return reference == AMBIGUOUS or reference == status


# ---------------------------------------------------------------------------
# degradation and the less-noisy vertex test
# ---------------------------------------------------------------------------


def degraded_margin(w: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(min entry of A = W^{-1} V, band): V is degraded from W iff it is >= 0."""
    a = np.linalg.solve(w, v)
    return float(a.min()), REL_BAND * max(1.0, float(np.abs(a).max()))


def verify_kernel(w: np.ndarray, v: np.ndarray, k: np.ndarray, tol: float = KERNEL_TOL) -> bool:
    """A returned degrading kernel K: W K = V, K >= 0, rows summing to one."""
    k = np.asarray(k, dtype=float)
    if k.shape != (w.shape[1], v.shape[1]):
        return False
    return bool(
        np.abs(w @ k - v).max() <= tol
        and k.min() >= -tol
        and np.abs(k.sum(axis=1) - 1.0).max() <= tol
    )


@lru_cache(maxsize=None)
def _ones_complement(s: int) -> np.ndarray:
    """Orthonormal basis (s x (s-1)) of the complement of the all-ones vector."""
    basis, _ = np.linalg.qr(np.hstack([np.ones((s, 1)), np.eye(s)[:, : s - 1]]))
    return basis[:, 1:]


def less_noisy_margin(w: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(smallest vertex eigenvalue off the ones direction, band).

    The vertex matrices diag(V[x]) - A^T diag(W[x]) A are stacked over x.
    """
    a = np.linalg.solve(w, v)
    s = v.shape[1]
    m = -(a.T[None, :, :] * w[:, None, :]) @ a
    m[:, np.arange(s), np.arange(s)] += v
    basis = _ones_complement(s)
    margin = float(np.linalg.eigvalsh(basis.T @ m @ basis)[:, 0].min())
    return margin, REL_BAND * s * max(1.0, float(np.abs(a).max())) ** 2


def delta_star(v: np.ndarray, tol: float = 1e-9) -> float:
    """sup{delta : W_delta less noisy than V} by bisection on the vertex test.

    The feasible set is an interval [0, delta*] (smaller-parameter symmetric
    channels degrade to larger ones), so bisection on the sign is exact up to
    ``tol``.
    """
    q = v.shape[0]
    lo, hi = 0.0, (q - 1) / q
    if np.abs(v - v[0]).max() <= 1e-12:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if less_noisy_margin(symmetric(q, mid), v)[0] >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def min_entry_threshold(v: np.ndarray) -> float:
    """The paper's degradation threshold nu / (1 - (q-1) nu + nu / (q-1))."""
    q = v.shape[0]
    nu = float(v.min())
    return 0.0 if nu <= 0 else nu / (1.0 - (q - 1) * nu + nu / (q - 1))


def gamma_bound(q: int, delta: float) -> float:
    """The paper's gamma with W_delta less noisy than W_gamma."""
    return (1.0 - delta) / (1.0 - delta + delta / (q - 1) ** 2)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def loewner_form(w: np.ndarray, v: np.ndarray, direction, vertex=None, pmf=None) -> float:
    """Recompute the quadratic form a refuting Loewner witness claims is negative.

    At a vertex x the program compares V^{-T} diag(V[x]) V^{-1} with
    W^{-T} diag(W[x]) W^{-1}; at an interior pmf p it compares
    W diag(1/pW) W^T with V diag(1/pV) V^T.
    """
    d = np.asarray(direction, dtype=float)
    if vertex is not None:
        wi, vi = np.linalg.inv(w), np.linalg.inv(v)
        m = vi.T @ np.diag(v[vertex]) @ vi - wi.T @ np.diag(w[vertex]) @ wi
    else:
        p = np.asarray(pmf, dtype=float)
        m = w @ np.diag(1.0 / (p @ w)) @ w.T - v @ np.diag(1.0 / (p @ v)) @ v.T
    return float(d @ m @ d)


def divergence(name: str, p: np.ndarray, q: np.ndarray) -> float:
    support = p > 0
    if np.any(q[support] <= 0):
        return math.inf
    if name == "kl":
        return float(np.sum(p[support] * np.log(p[support] / q[support])))
    return float(np.sum(p[support] ** 2 / q[support]) - 1.0)


def divergence_pair_refutes(w: np.ndarray, v: np.ndarray, name: str, p, q) -> bool:
    """Does the input pair (p, q) give D(pV||qV) > D(pW||qW) for this divergence?"""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    under_w = divergence(name, p @ w, q @ w)
    under_v = divergence(name, p @ v, q @ v)
    if math.isinf(under_v):
        return not math.isinf(under_w)
    return under_v > under_w + 1e-11 * max(1.0, under_v)


# ---------------------------------------------------------------------------
# noise-pmf strata (region)
# ---------------------------------------------------------------------------

LABELS = ("DEGRADED", "LOWER_HULL", "LESS_NOISY", "CIRCLE_ONLY", "OUTSIDE")
DOMINATED = frozenset(LABELS[:3])


def majorization_margin(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows of y against x: min over k < q-1 of (sorted partial sums of y - of x).

    x majorizes y iff the margin is >= 0.
    """
    xs = np.cumsum(np.sort(x))[:-1]
    ys = np.cumsum(np.sort(y, axis=-1), axis=-1)[..., :-1]
    return (ys - xs).min(axis=-1)


def _shifts(vec: np.ndarray) -> np.ndarray:
    return np.vstack([np.roll(vec, k) for k in range(vec.size)])


def noise_pmf(q: int, delta: float) -> np.ndarray:
    return symmetric(q, delta)[0]


def hull_margin(q: int, delta: float, points: np.ndarray) -> np.ndarray:
    """Distance inside (positive) the hull of the shifts of the delta and gamma noise pmfs.

    Qhull facets of the generators, in the first q-1 coordinates (the simplex
    is affine, so dropping the last coordinate loses nothing).
    """
    generators = np.vstack(
        [_shifts(noise_pmf(q, delta)), _shifts(noise_pmf(q, gamma_bound(q, delta)))]
    )
    hull = ConvexHull(generators[:, : q - 1])
    eq = hull.equations
    return -(points[:, : q - 1] @ eq[:, :-1].T + eq[:, -1]).max(axis=1)


def circle_margin(q: int, delta: float, points: np.ndarray) -> np.ndarray:
    radius = abs(1.0 - q * delta / (q - 1)) * math.sqrt((q - 1) / q)
    return radius - np.linalg.norm(points - 1.0 / q, axis=1)


def region_labels(q: int, delta: float, points: np.ndarray, band: float = 1e-9) -> list[frozenset]:
    """The set of acceptable stratum labels for each noise pmf (one per row).

    Walks the strata finest first.  A margin beyond the band settles the
    test; a margin inside it admits both outcomes.
    """
    w = symmetric(q, delta)
    margins = zip(
        majorization_margin(noise_pmf(q, delta), points),
        hull_margin(q, delta, points),
        circle_margin(q, delta, points),
    )
    return [frozenset(_labels(w, point, m, band)) for point, m in zip(points, margins)]


def _labels(w: np.ndarray, point: np.ndarray, margins, band: float) -> set:
    allowed = set()
    for label, margin in zip(LABELS[:2], margins[:2]):
        kind = classify(margin, band)
        if kind != FAILS:
            allowed.add(label)
        if kind == DOMINATES:
            return allowed
    inside = classify(margins[2], band)
    if inside != FAILS:
        less_noisy = classify(*less_noisy_margin(w, circulant(point)))
        if less_noisy != FAILS:
            allowed.add("LESS_NOISY")
        if less_noisy != DOMINATES:
            allowed.add("CIRCLE_ONLY")
    if inside != DOMINATES:
        allowed.add("OUTSIDE")
    return allowed


# ---------------------------------------------------------------------------
# Dirichlet forms and group tables
# ---------------------------------------------------------------------------


def psd_margin(m: np.ndarray) -> tuple[float, float]:
    """(smallest eigenvalue of the symmetrized matrix, band)."""
    sym = 0.5 * (m + m.T)
    return float(np.linalg.eigvalsh(sym)[0]), REL_BAND * max(1.0, float(np.abs(sym).max()))


def group_axioms_failing(table: np.ndarray) -> set[str]:
    """Names of the group axioms a Cayley table violates (empty for a group)."""
    t = np.asarray(table, dtype=int)
    q = t.shape[0]
    bad = set()
    full = np.arange(q)
    if any(
        not np.array_equal(np.sort(t[x]), full) or not np.array_equal(np.sort(t[:, x]), full)
        for x in range(q)
    ):
        bad.add("not_latin_square")
    if not (np.array_equal(t[0], full) and np.array_equal(t[:, 0], full)):
        bad.add("bad_identity")
    if not all(np.any(t[x] == 0) for x in range(q)):
        bad.add("missing_inverse")
    if not np.array_equal(t, t.T):
        bad.add("not_commutative")
    # (x + y) + z against x + (y + z), indexed [x, y, z]
    if not np.array_equal(t[t], t[full[:, None, None], t[None, :, :]]):
        bad.add("not_associative")
    return bad
