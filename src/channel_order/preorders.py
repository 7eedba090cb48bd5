"""Decision procedures for majorization, degradation, and the less-noisy order.

Every test returns a DominationVerdict: Dominates with a checkable
certificate, Fails with a concrete witness, or Undetermined when only sampled
evidence is available.  Degradation and group majorization reduce to linear
feasibility problems.  The less-noisy order from a square invertible W to any
channel V on the same input alphabet reduces to q positive-semidefiniteness
checks on the single matrix A = W^{-1} V, one per simplex vertex:

    W is less noisy than V
        iff  W D_{pW}^{-1} W^T  >=  V D_{pV}^{-1} V^T   (PSD order)
             for every strictly positive input pmf p
        iff  D_{pW}^{-1}  >=  A D_{pV}^{-1} A^T        (congruence by W^{-1})
        iff  D_{pV} - A^T D_{pW} A  >=  0               (two Schur complements)
        iff  diag(V[x]) - A^T diag(W[x]) A  >=  0      for every input letter x,

where D_u = diag(u) and the last step uses that D_{pV} - A^T D_{pW} A is
linear in p, so checking the simplex vertices suffices.  The rows of A sum
to one, so the all-ones vector lies in the kernel of every vertex matrix and
the checks are made on its orthogonal complement.  V is never inverted: it
may be singular or non-square.  A singular or non-square W raises
SingularChannelError; the sampled test covers that case and can refute but
never certify.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .channels import Pmf, as_channel, as_pmf, point_mass, uniform_pmf
from .divergences import chi2, kl
from .groups import FiniteAbelianGroup, circulant

LP_TOL = 1e-9
PSD_TOL = 1e-9
DET_TOL = 1e-10
INTERIOR_MIX = 1e-6


class SingularChannelError(ValueError):
    """Raised by the exact less-noisy test when W is singular or not square.

    V may be any channel on W's input alphabet; only W is inverted.  Use the
    sampled test for such a W.
    """


class Status(enum.Enum):
    DOMINATES = "dominates"
    FAILS = "fails"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class LoewnerWitness:
    """A direction along which the defining PSD comparison fails.

    At the strictly positive input pmf ``pmf``, ``direction`` is an
    eigenvector of W D_{pW}^{-1} W^T - V D_{pV}^{-1} V^T with eigenvalue
    ``eigenvalue`` < 0.  Both the exact and the sampled test report this
    form; ``vertex`` is always None and is kept for readers of the field.
    """

    eigenvalue: float
    direction: np.ndarray = field(repr=False)
    vertex: Optional[int] = None
    pmf: Optional[np.ndarray] = field(default=None, repr=False)
    kind: str = "loewner"


@dataclass(frozen=True)
class DivergencePairWitness:
    """An input pmf pair whose output divergences violate the defining inequality."""

    p: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    divergence: str = "kl"  # "kl" or "chi2"
    lhs: float = 0.0  # divergence under the would-be dominating channel
    rhs: float = 0.0  # divergence under the dominated channel
    kind: str = "divergence_pair"


@dataclass(frozen=True)
class DominationVerdict:
    status: Status
    certificate: object = None
    witness: object = None
    samples_used: int = 0

    def __post_init__(self):
        if self.status is Status.DOMINATES and self.certificate is None:
            raise ValueError("a Dominates verdict must carry a certificate")
        if self.status is Status.FAILS and self.witness is None:
            raise ValueError("a Fails verdict must carry a witness")
        if self.status is Status.UNDETERMINED and (
            self.certificate is not None or self.witness is not None
        ):
            raise ValueError("an Undetermined verdict carries only sample counts")

    @property
    def dominates(self) -> bool:
        return self.status is Status.DOMINATES


def _dominates(certificate, samples_used: int = 0) -> DominationVerdict:
    return DominationVerdict(Status.DOMINATES, certificate=certificate, samples_used=samples_used)


def _fails(witness, samples_used: int = 0) -> DominationVerdict:
    return DominationVerdict(Status.FAILS, witness=witness, samples_used=samples_used)


def _undetermined(samples_used: int) -> DominationVerdict:
    return DominationVerdict(Status.UNDETERMINED, samples_used=samples_used)


# ---------------------------------------------------------------------------
# linear feasibility engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LpProblem:
    """Feasibility of ``a_eq x = b_eq`` with ``x >= 0``.

    Feasibility is decided by the phase-one objective (the minimal total
    artificial slack); the problem is feasible iff that optimum is <= lp_tol.
    Solved with scipy's HiGHS backend, which is deterministic on these small
    dense instances.
    """

    a_eq: np.ndarray = field(repr=False)
    b_eq: np.ndarray = field(repr=False)

    @property
    def variables(self) -> int:
        return self.a_eq.shape[1]

    def phase_one(self) -> tuple[float, np.ndarray]:
        """Return (phase-one optimum, primal point)."""
        a, b = self.a_eq, self.b_eq
        m, n = a.shape
        sign = np.where(b < 0.0, -1.0, 1.0)
        a1 = np.hstack([a * sign[:, None], np.eye(m)])
        c = np.concatenate([np.zeros(n), np.ones(m)])
        res = linprog(c, A_eq=a1, b_eq=b * sign, bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"phase-one LP did not solve: {res.message}")
        return float(res.fun), res.x[:n]

    def solve(self, lp_tol: float = LP_TOL) -> tuple[bool, Optional[np.ndarray], float]:
        """Return (feasible, x or None, phase-one optimum)."""
        optimum, x = self.phase_one()
        if optimum > lp_tol:
            return False, None, optimum
        # polish: a direct equality solve usually lands on a cleaner vertex
        direct = linprog(
            np.zeros(self.variables),
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=(0, None),
            method="highs",
        )
        if direct.status == 0:
            x = direct.x
        return True, x, optimum


def convex_hull_membership(
    points: np.ndarray, target: np.ndarray, lp_tol: float = LP_TOL
) -> tuple[bool, Optional[np.ndarray]]:
    """Membership of ``target`` in the convex hull of the rows of ``points``.

    Returns (member, convex weights or None).
    """
    k = points.shape[0]
    problem = LpProblem(
        a_eq=np.vstack([points.T, np.ones((1, k))]),
        b_eq=np.concatenate([target, [1.0]]),
    )
    feasible, weights, _ = problem.solve(lp_tol)
    return feasible, weights


# ---------------------------------------------------------------------------
# majorization
# ---------------------------------------------------------------------------


def majorizes(x, y, tol: float = 1e-12) -> bool:
    """True when x majorizes y: ascending partial sums of x never exceed y's.

    Equivalently, y lies in the convex hull of the permutations of x.  Inputs
    must have equal sums (within 1e-9).
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.size != yv.size:
        raise ValueError(f"dimension mismatch: {xv.size} vs {yv.size}")
    if abs(xv.sum() - yv.sum()) > 1e-9:
        raise ValueError(f"sums differ: {xv.sum()} vs {yv.sum()}")
    xs = np.cumsum(np.sort(xv))
    ys = np.cumsum(np.sort(yv))
    return bool(np.all(xs[:-1] <= ys[:-1] + tol))


def group_majorizes(group: FiniteAbelianGroup, x, y, lp_tol: float = LP_TOL) -> DominationVerdict:
    """Does x group-majorize y, i.e. is y a convex combination of x's group orbit?

    Decided as feasibility of y = x . circulant(lam) over pmfs lam; a
    Dominates verdict carries the convex weights lam.
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    q = group.order
    if xv.size != q or yv.size != q:
        raise ValueError("vector lengths must match the group order")
    # x . circ(lam) = lam . circ(x), so this is membership of y in the hull of
    # the orbit rows of circ(x), with lam the convex weights
    feasible, lam = convex_hull_membership(circulant(group, xv), yv, lp_tol)
    if not feasible:
        return _fails(witness={"kind": "infeasible", "x": xv, "y": yv})
    return _dominates(certificate={"kind": "convex_weights", "weights": lam})


# ---------------------------------------------------------------------------
# degradation
# ---------------------------------------------------------------------------


def is_degraded(w, v, lp_tol: float = LP_TOL) -> DominationVerdict:
    """Is V a degraded version of W, i.e. V = W A for some channel A?

    Feasibility of a linear system in the entries of A (row sums one,
    nonnegative).  A Dominates verdict carries the degrading kernel A.
    """
    wc, vc = as_channel(w), as_channel(v)
    if wc.rows != vc.rows:
        raise ValueError(f"input alphabets differ: {wc.rows} vs {vc.rows}")
    q, r, s = wc.rows, wc.cols, vc.cols
    a_eq = np.zeros((q * s + r, r * s))
    b_eq = np.zeros(q * s + r)
    for i in range(q):
        for j in range(s):
            a_eq[i * s + j, j::s] = wc.matrix[i]
            b_eq[i * s + j] = vc.matrix[i, j]
    for k in range(r):
        a_eq[q * s + k, k * s : (k + 1) * s] = 1.0
        b_eq[q * s + k] = 1.0
    feasible, x, optimum = LpProblem(a_eq=a_eq, b_eq=b_eq).solve(lp_tol)
    if not feasible:
        return _fails(witness={"kind": "infeasible", "phase_one_optimum": optimum})
    kernel = x.reshape(r, s)
    residual = float(np.abs(wc.matrix @ kernel - vc.matrix).max())
    return _dominates(certificate={"kind": "kernel", "matrix": kernel, "residual": residual})


def is_degraded_additive(group: FiniteAbelianGroup, w, v, lp_tol: float = LP_TOL) -> DominationVerdict:
    """Degradation between the additive channels of noise pmfs w and v.

    For additive channels the degrading kernel can be taken additive as well,
    so this is exactly group majorization of the noise pmfs.
    """
    return group_majorizes(group, as_pmf(w).probs, as_pmf(v).probs, lp_tol)


# ---------------------------------------------------------------------------
# PSD kernel
# ---------------------------------------------------------------------------


def psd_check(m, tol: float = PSD_TOL) -> tuple[bool, float, np.ndarray]:
    """Is the (symmetrized) matrix positive semidefinite?

    Returns (verdict, smallest eigenvalue, its eigenvector).  The tolerance is
    relative: negative eigenvalues above -tol * max(1, |m|_max) pass.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if np.abs(a - a.T).max() > 1e-10 * max(1.0, np.abs(a).max()):
        raise ValueError("matrix is not symmetric")
    a = 0.5 * (a + a.T)
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    lam = float(eigenvalues[0])
    vec = eigenvectors[:, 0]
    return lam >= -tol * max(1.0, float(np.abs(a).max())), lam, vec


# ---------------------------------------------------------------------------
# less-noisy order
# ---------------------------------------------------------------------------


def _rows_all_equal(m: np.ndarray) -> bool:
    return bool(np.abs(m - m[0]).max() <= 1e-12)


def _is_identity(m: np.ndarray) -> bool:
    return m.shape[0] == m.shape[1] and bool(np.abs(m - np.eye(m.shape[0])).max() <= 1e-12)


def _shortcut(wm: np.ndarray, vm: np.ndarray) -> Optional[DominationVerdict]:
    """Extremal channels decide instantly: the identity dominates everything, a
    constant-row channel is dominated by everything, and a constant-row W only
    dominates constant-row V."""
    if _rows_all_equal(vm):
        return _dominates(certificate="constant-row channel is dominated by every channel")
    if _is_identity(wm):
        return _dominates(certificate="identity channel dominates every channel")
    if _rows_all_equal(wm):
        x, y = _first_differing_rows(vm)
        p, q = point_mass(vm.shape[0], x), point_mass(vm.shape[0], y)
        return _fails(
            witness=DivergencePairWitness(
                p=p.probs,
                q=q.probs,
                divergence="kl",
                lhs=0.0,
                rhs=float(kl(Pmf(vm[x]), Pmf(vm[y]))),
            )
        )
    return None


def _first_differing_rows(m: np.ndarray) -> tuple[int, int]:
    for i in range(1, m.shape[0]):
        if np.abs(m[i] - m[0]).max() > 1e-12:
            return 0, i
    raise AssertionError("rows are all equal")


def is_singular_channel_matrix(m: np.ndarray, tol: float = DET_TOL) -> bool:
    """Singularity gate for square channels, by smallest singular value.

    Relative to row-norm scale; a determinant test would underflow at desk
    scale (63 eigenvalues of size 0.02 multiply to 1e-113) and misclassify
    well-conditioned matrices.
    """
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv[-1] <= tol * max(1.0, float(np.linalg.norm(m, axis=1).max())))


@lru_cache(maxsize=None)
def _ones_complement(s: int) -> np.ndarray:
    """Orthonormal basis (s x (s-1)) of the complement of the all-ones vector."""
    basis, _ = np.linalg.qr(np.hstack([np.ones((s, 1)), np.eye(s)[:, : s - 1]]))
    basis = basis[:, 1:]
    basis.flags.writeable = False
    return basis


def _loewner(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """M D_{pM}^{-1} M^T, the chi-squared form of channel M at input pmf p."""
    return (m / (p @ m)) @ m.T


def _support_witness(wm: np.ndarray, vm: np.ndarray) -> Optional[DivergencePairWitness]:
    """The input pair (uniform, e_x) when W[x] has full support and V[x] does not.

    Its KL divergence is finite under W and infinite under V.  Such a row
    always fails its vertex check, and the pair is a plainer refutation than
    a Loewner direction.
    """
    rows = np.flatnonzero((wm > 0).all(axis=1) & (vm == 0).any(axis=1))
    if rows.size == 0:
        return None
    n = wm.shape[0]
    return _divergence_pair_violation(
        wm, vm, uniform_pmf(n).probs, point_mass(n, int(rows[0])).probs, tol=1e-11
    )


def _interior_witness(
    wm: np.ndarray, vm: np.ndarray, a: np.ndarray, x: int, u: np.ndarray, lam: float
) -> LoewnerWitness:
    """Move a failed vertex check into the simplex and return the Loewner witness there.

    With M(p) = D_{pV} - A^T D_{pW} A linear in p and u^T M(e_x) u = lam < 0,
    mixing e_x with uniform no further than u^T M(p) u = lam / 2 keeps the
    form negative at an interior p.  Then d = W^{-T} D_{pW} A u satisfies
    d^T L d < 0 for L = W D_{pW}^{-1} W^T - V D_{pV}^{-1} V^T
    (Cauchy-Schwarz), so L's smallest eigenpair is a refutation at p.
    """
    n = wm.shape[0]
    uniform = np.full(n, 1.0 / n)
    at_uniform = float(u @ (uniform @ vm * u) - (a @ u) @ (uniform @ wm * (a @ u)))
    # u^T M(p) u = (1 - s) lam + s at_uniform <= lam / 2 with p = (1 - s) e_x + s uniform
    s = 0.5 if at_uniform <= 0.0 else 0.5 * lam / (lam - at_uniform)
    p = s * uniform
    p[x] += 1.0 - s
    diff = _loewner(wm, p) - _loewner(vm, p)
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (diff + diff.T))
    return LoewnerWitness(eigenvalue=float(eigenvalues[0]), direction=eigenvectors[:, 0], pmf=p)


def less_noisy_exact(w, v, psd_tol: float = PSD_TOL) -> DominationVerdict:
    """Exact less-noisy test for a square invertible W and any V on its input alphabet.

    With A = W^{-1} V, checks at each input letter x that
    diag(V[x]) - A^T diag(W[x]) A is PSD on the complement of the all-ones
    vector; W is less noisy than V iff all q checks pass.  The tolerance is
    relative to these matrices, whose size is of order |A|^2.  Dominates
    verdicts list the q smallest eigenvalues as margins.  Fails verdicts
    carry an input pair with infinite divergence under V only, when one
    exists, and otherwise a LoewnerWitness at an interior input pmf.
    """
    wc, vc = as_channel(w), as_channel(v)
    if wc.rows != vc.rows:
        raise ValueError(f"input alphabets differ: {wc.rows} vs {vc.rows}")
    wm, vm = wc.matrix, vc.matrix
    shortcut = _shortcut(wm, vm)
    if shortcut is not None:
        return shortcut
    if wc.cols != wc.rows:
        raise SingularChannelError("W is not square; use less_noisy_sampled instead")
    if is_singular_channel_matrix(wm):
        raise SingularChannelError("W is singular within tolerance; use less_noisy_sampled instead")
    a = np.linalg.solve(wm, vm)
    basis = _ones_complement(vc.cols)
    ab = a @ basis
    minima = []
    for x in range(wc.rows):
        m_x = (basis.T * vm[x]) @ basis - (ab.T * wm[x]) @ ab
        ok, lam, vec = psd_check(m_x, psd_tol)
        if not ok:
            witness = _support_witness(wm, vm) or _interior_witness(wm, vm, a, x, basis @ vec, lam)
            return _fails(witness=witness)
        minima.append(lam)
    return _dominates(
        certificate={
            "kind": "vertex_psd",
            "description": f"all {wc.rows} vertex PSD checks passed",
            "min_eigenvalues": minima,
        }
    )


def sample_interior_pmf(rng: np.random.Generator, q: int) -> np.ndarray:
    """Dirichlet(1) sample mixed with a sliver of uniform to stay interior."""
    p = rng.dirichlet(np.ones(q))
    return (1.0 - INTERIOR_MIX) * p + INTERIOR_MIX / q


def _divergence_pair_violation(
    wm: np.ndarray, vm: np.ndarray, p: np.ndarray, q: np.ndarray, tol: float
) -> Optional[DivergencePairWitness]:
    """Check the KL and chi-squared inequalities on one input pair."""
    pw, qw = Pmf(p @ wm), Pmf(q @ wm)
    pv, qv = Pmf(p @ vm), Pmf(q @ vm)
    for name, fn in (("kl", kl), ("chi2", chi2)):
        lhs, rhs = fn(pw, qw), fn(pv, qv)
        # infinity >= infinity is fine; a finite lhs below an infinite or
        # larger rhs refutes domination
        if rhs > lhs + tol:
            return DivergencePairWitness(
                p=p, q=q, divergence=name, lhs=float(lhs), rhs=float(rhs)
            )
    return None


def _special_pairs(q: int):
    u = uniform_pmf(q).probs
    for x in range(q):
        yield u, point_mass(q, x).probs
    for x in range(q):
        yield point_mass(q, x).probs, u
    for x in range(q):
        for y in range(q):
            if x != y:
                yield point_mass(q, x).probs, point_mass(q, y).probs


def less_noisy_sampled(
    w, v, samples: int = 1000, seed: int = 0, psd_tol: float = PSD_TOL
) -> DominationVerdict:
    """Sampled refutation search for the less-noisy order (never certifies).

    Runs three families of necessary checks: the PSD comparison and its range
    inclusion at sampled interior input pmfs, and the KL / chi-squared output
    divergence inequalities on deterministic boundary pairs plus sampled
    pairs.  Any violation yields Fails with a witness; otherwise Undetermined.
    """
    wc, vc = as_channel(w), as_channel(v)
    if wc.rows != vc.rows:
        raise ValueError(f"input alphabets differ: {wc.rows} vs {vc.rows}")
    wm, vm = wc.matrix, vc.matrix
    shortcut = _shortcut(wm, vm)
    if shortcut is not None:
        return shortcut
    q = wc.rows
    used = 0
    # deterministic boundary pairs catch infinite-vs-finite separations, e.g.
    # (uniform, point mass) under an erasure channel
    for p_arr, q_arr in _special_pairs(q):
        used += 1
        bad = _divergence_pair_violation(wm, vm, p_arr, q_arr, tol=1e-11)
        if bad is not None:
            return _fails(witness=bad, samples_used=used)

    rng = np.random.default_rng(seed)
    for _ in range(samples):
        used += 1
        p = sample_interior_pmf(rng, q)
        a, b = _loewner(wm, p), _loewner(vm, p)
        # range inclusion R(b) within R(a), via the orthogonal projector on R(a)
        eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (a + a.T))
        rank_mask = eigenvalues > 1e-12 * max(1.0, eigenvalues[-1])
        basis = eigenvectors[:, rank_mask]
        residual = b - basis @ (basis.T @ b)
        scale = max(1.0, float(np.abs(b).max()))
        if np.abs(residual).max() > 1e-8 * scale:
            # a direction of b outside a's range refutes the PSD comparison
            _, _, vt = np.linalg.svd(residual)
            direction = vt[0]
            lam = float(direction @ (a - b) @ direction)
            return _fails(
                witness=LoewnerWitness(eigenvalue=lam, direction=direction, pmf=p),
                samples_used=used,
            )
        ok, lam, vec = psd_check(a - b, psd_tol)
        if not ok:
            return _fails(
                witness=LoewnerWitness(eigenvalue=lam, direction=vec, pmf=p), samples_used=used
            )
        # sanity, not a decision criterion: with inclusion and the PSD order
        # holding, the pseudo-inverse product has spectral radius exactly 1
        pseudo = basis @ np.diag(1.0 / eigenvalues[rank_mask]) @ basis.T
        radius = float(np.abs(np.linalg.eigvals(pseudo @ b)).max())
        if radius > 1.0 + 1e-6:
            raise AssertionError(
                f"spectral radius {radius} exceeds 1 despite a passing PSD check"
            )
        q_arr = sample_interior_pmf(rng, q)
        bad = _divergence_pair_violation(wm, vm, p, q_arr, tol=1e-11)
        if bad is not None:
            return _fails(witness=bad, samples_used=used)
    return _undetermined(samples_used=used)


def loewner_gap(w, v, p) -> float:
    """Smallest eigenvalue of the PSD comparison at one interior input pmf.

    Nonnegative for every interior pmf iff W is less noisy than V; a negative
    value is a concrete refutation at this input.
    """
    wc, vc = as_channel(w), as_channel(v)
    pv = as_pmf(p).probs
    if wc.rows != vc.rows or pv.size != wc.rows:
        raise ValueError("dimension mismatch")
    if np.any(pv <= 0):
        raise ValueError("input pmf must be strictly interior")
    diff = _loewner(wc.matrix, pv) - _loewner(vc.matrix, pv)
    return float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])


def chi2_violation_pair(w, v, witness: LoewnerWitness) -> tuple[np.ndarray, np.ndarray, float]:
    """Turn a failed PSD check into an input pmf pair violating the chi-squared inequality.

    Returns (p, q, gap) with gap = chi2(pW||qW) - chi2(pV||qV) < 0.  The pair
    is exact because chi-squared with a fixed second argument is a quadratic
    form: starting from the witness pmf, mix toward uniform until the
    direct PSD comparison exhibits a negative direction g, then move from q
    along the sum-zero correction of g.
    """
    wm, vm = as_channel(w).matrix, as_channel(v).matrix
    if witness.pmf is None:
        raise ValueError("witness carries no input pmf")
    base = witness.pmf
    u = uniform_pmf(wm.shape[0]).probs
    for s in (1e-9, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 1e-3, 1e-4):
        q_arr = (1.0 - s) * base + s * u
        if np.any(q_arr <= 0):
            continue
        diff = _loewner(wm, q_arr) - _loewner(vm, q_arr)
        diff = 0.5 * (diff + diff.T)
        eigenvalues, eigenvectors = np.linalg.eigh(diff)
        if eigenvalues[0] >= -1e-13 * max(1.0, np.abs(diff).max()):
            continue
        g = eigenvectors[:, 0]
        j = g - g.sum() * q_arr  # sum-zero; diff annihilates q, so j.diff.j = g.diff.g < 0
        negative = j < 0
        step = 1.0 if not negative.any() else float(np.min(-q_arr[negative] / j[negative]))
        p_arr = q_arr + 0.5 * step * j
        p_arr = np.clip(p_arr, 0.0, None)
        p_arr = p_arr / p_arr.sum()
        gap = float(chi2(Pmf(p_arr @ wm), Pmf(q_arr @ wm))) - float(
            chi2(Pmf(p_arr @ vm), Pmf(q_arr @ vm))
        )
        if gap < 0:
            return p_arr, q_arr, gap
    raise RuntimeError("could not materialize a chi-squared violation from the witness")
