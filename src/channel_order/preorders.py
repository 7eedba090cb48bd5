"""Decision procedures for majorization, degradation, and the less-noisy order.

Every test returns a DominationVerdict: Dominates with a checkable
certificate, Fails with a concrete witness, or Undetermined when only sampled
evidence is available.  Both exact tests from a square invertible W go
through the single matrix A = W^{-1} V, for any channel V on the same input
alphabet.  V = W K pins the degrading kernel down to K = A, whose rows sum to
one because W's do, so V is degraded from W iff A >= 0; group majorization
with an invertible circulant is decided the same way.  Only a non-square or
singular W, and a singular group circulant, leave a linear feasibility
problem, solved by scipy's ``linprog``, which is imported on the first such
call.  The less-noisy order reduces to q positive-semidefiniteness checks on
A, one per simplex vertex:

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
may be singular or non-square.  The exact less-noisy test raises
SingularChannelError for a singular or non-square W; the sampled test covers
that case and can refute but never certify.

A symmetry of the pair cuts the q checks down.  Write M_x for the vertex
matrix at letter x and P_s for the permutation matrix of a permutation s of
the letters.  If P_s W P_s^T = W and P_s V P_s^T = V (V square), then
P_s A P_s^T = A as well, and

    M_{s(x)} = P_s M_x P_s^T,

so M_{s(x)} and M_x have one spectrum, and P_s fixes the all-ones vector.
A W of the form r I + c J commutes with every permutation, the symmetric
channel among them.  An additive V over a finite Abelian group is fixed by
every translation, and the translations carry letter 0 to every letter, so
then the check at letter 0 decides alone (``_orbit_letters``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .channels import DET_TOL, as_channel, as_pmf
# kl: not called here; bench/tracing.py wraps it
from .divergences import _kl_chi2_rows, chi2, kl
from .groups import FiniteAbelianGroup, circulant

LP_TOL = 1e-9
PSD_TOL = 1e-9
ENTRY_TOL = 1e-12  # majorization partial sums, constant-row and identity tests
DIVERGENCE_TOL = 1e-11  # slack of the KL and chi-squared pair inequalities
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

    At the strictly positive input pmf ``pmf``, ``direction`` is a unit
    eigenvector of W D_{pW}^{-1} W^T - V D_{pV}^{-1} V^T for its smallest
    eigenvalue, ``eigenvalue`` < 0.  Both the exact and the sampled test
    report this form, each from one ``eigh`` of that matrix, and
    ``chi2_violation_pair`` turns it into an input pmf pair in closed form.
    ``vertex`` is always None; it stays because ``bench/workloads.py``
    reads it, until the benchmark is brought up to date (ROADMAP item 1).
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


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    Importing scipy.optimize costs more than everything else a CLI call
    does, and only the LP fallbacks need it.  ``phase_one`` looks this name
    up at call time, so it can be wrapped as a module attribute.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def phase_one(a_eq: np.ndarray, b_eq: np.ndarray) -> tuple[bool, Optional[np.ndarray], float]:
    """Feasibility of ``a_eq x = b_eq`` with ``x >= 0``: (feasible, x or None, optimum).

    Feasibility is decided by the phase-one objective (the minimal total
    artificial slack); the problem is feasible iff that optimum is <= LP_TOL,
    and the phase-one point is the solution returned.  Solved with scipy's
    HiGHS backend, which is deterministic on these small dense instances.
    Only the cases without a unique candidate solution come here: degradation
    from a non-square or singular W, majorization by a group whose circulant
    is singular, and hull membership.
    """
    m, n = a_eq.shape
    sign = np.where(b_eq < 0.0, -1.0, 1.0)
    a1 = np.hstack([a_eq * sign[:, None], np.eye(m)])
    c = np.concatenate([np.zeros(n), np.ones(m)])
    res = linprog(c, A_eq=a1, b_eq=b_eq * sign, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"phase-one LP did not solve: {res.message}")
    optimum = float(res.fun)
    feasible = optimum <= LP_TOL
    return feasible, res.x[:n] if feasible else None, optimum


def convex_hull_membership(
    points: np.ndarray, target: np.ndarray
) -> tuple[bool, Optional[np.ndarray]]:
    """Is ``target`` in the convex hull of the rows of ``points``?  (member, weights or None)."""
    a_eq = np.vstack([points.T, np.ones(len(points))])
    feasible, weights, _ = phase_one(a_eq, np.append(target, 1.0))
    return feasible, weights


# ---------------------------------------------------------------------------
# majorization
# ---------------------------------------------------------------------------


def majorizes(x, y) -> bool:
    """True when x majorizes y: ascending partial sums of x never exceed y's.

    Equivalently, y lies in the convex hull of the permutations of x.  Inputs
    must have equal sums (within 1e-9; a NaN sum is rejected).
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.size != yv.size:
        raise ValueError(f"dimension mismatch: {xv.size} vs {yv.size}")
    if not abs(xv.sum() - yv.sum()) <= 1e-9:
        raise ValueError(f"sums differ: {xv.sum()} vs {yv.sum()}")
    return bool(majorized_rows(xv, yv[None, :])[0])


def majorized_rows(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``majorizes(x, y)`` for every row y of ``ys``, without the input checks."""
    xs = np.cumsum(np.sort(x))
    partial = np.cumsum(np.sort(ys, axis=1), axis=1)
    return np.all(xs[:-1] <= partial[:, :-1] + ENTRY_TOL, axis=1)


def group_majorizes(group: FiniteAbelianGroup, x, y) -> DominationVerdict:
    """Does x group-majorize y, i.e. is y a convex combination of x's group orbit?

    Decided as feasibility of y = x . circulant(lam) over pmfs lam; a
    Dominates verdict carries the convex weights lam.  When circulant(x) is
    invertible lam is unique and one solve finds it: x majorizes y iff lam's
    entries are >= -tol and its sum is 1 within tol, with
    tol = LP_TOL * max(1, |lam|_max).  A singular circulant goes to the LP.
    Non-finite entries are rejected (ValueError).
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    q = group.order
    if xv.size != q or yv.size != q:
        raise ValueError("vector lengths must match the group order")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise ValueError("x and y must be finite")
    # x . circ(lam) = lam . circ(x), so this is membership of y in the hull of
    # the orbit rows of circ(x), with lam the convex weights
    orbit = circulant(group, xv)
    if is_singular_channel_matrix(orbit):
        feasible, lam = convex_hull_membership(orbit, yv)
    else:
        lam = np.linalg.solve(orbit.T, yv)
        tol = LP_TOL * max(1.0, float(np.abs(lam).max()))
        feasible = lam.min() >= -tol and abs(lam.sum() - 1.0) <= tol
    if not feasible:
        return _fails(witness={"kind": "infeasible", "x": xv, "y": yv})
    return _dominates(certificate={"kind": "convex_weights", "weights": lam})


# ---------------------------------------------------------------------------
# degradation
# ---------------------------------------------------------------------------


def is_degraded(w, v) -> DominationVerdict:
    """Is V a degraded version of W, i.e. V = W A for some channel A?

    For a square invertible W, A = W^{-1} V is the only candidate and its
    rows sum to one, so V is degraded iff A >= -LP_TOL * max(1, |A|_max).  A
    Fails verdict then names A's most negative entry (kind
    "negative_kernel_entry"), which one solve re-checks.  A non-square or
    singular W leaves an LP in the entries of A (row sums one, nonnegative),
    whose Fails verdict carries the phase-one optimum.  A Dominates verdict
    carries the degrading kernel A and the residual max|W A - V|.
    """
    wc, vc = as_channel(w), as_channel(v)
    if wc.rows != vc.rows:
        raise ValueError(f"input alphabets differ: {wc.rows} vs {vc.rows}")
    wm, vm = wc.matrix, vc.matrix
    if wc.rows == wc.cols and not is_singular_channel_matrix(wm):
        kernel = np.linalg.solve(wm, vm)
        row, col = np.unravel_index(np.argmin(kernel), kernel.shape)
        value = float(kernel[row, col])
        if value < -LP_TOL * max(1.0, float(np.abs(kernel).max())):
            return _fails(
                witness={"kind": "negative_kernel_entry", "row": int(row), "col": int(col), "value": value}
            )
    else:
        r, s = wc.cols, vc.cols
        # unknowns A flattened row-major: W A = V row by row, then A's row sums
        a_eq = np.vstack([np.kron(wm, np.eye(s)), np.kron(np.eye(r), np.ones((1, s)))])
        b_eq = np.concatenate([vm.ravel(), np.ones(r)])
        feasible, x, optimum = phase_one(a_eq, b_eq)
        if not feasible:
            return _fails(witness={"kind": "infeasible", "phase_one_optimum": optimum})
        kernel = x.reshape(r, s)
    residual = float(np.abs(wm @ kernel - vm).max())
    return _dominates(certificate={"kind": "kernel", "matrix": kernel, "residual": residual})


def is_degraded_additive(group: FiniteAbelianGroup, w, v) -> DominationVerdict:
    """Degradation between the additive channels of noise pmfs w and v.

    For additive channels the degrading kernel can be taken additive as well,
    so this is exactly group majorization of the noise pmfs.
    """
    return group_majorizes(group, as_pmf(w).probs, as_pmf(v).probs)


# ---------------------------------------------------------------------------
# PSD kernel
# ---------------------------------------------------------------------------


def _psd_floor(m: np.ndarray):
    """The PSD band -PSD_TOL * max(1, |M|_max) per matrix of a stack; eigenvalues >= it pass."""
    return -PSD_TOL * np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))


def _passes_by_cholesky(m: np.ndarray) -> bool:
    """``psd_check``'s verdict on a symmetric M, without an eigenvalue.

    M passes when M - floor I has a Cholesky factor, which is the eigenvalue
    band up to rounding at its edge.  It decides every ``delta_star`` probe
    and every sample of ``less_noisy_sampled``, where no margin is printed.
    Cholesky reads the lower triangle.  Overwrites M's diagonal.
    """
    m.flat[:: len(m) + 1] -= _psd_floor(m)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def psd_check(m) -> tuple[bool, float, np.ndarray]:
    """Is the (symmetrized) matrix positive semidefinite?

    Returns (verdict, smallest eigenvalue, its eigenvector).  The tolerance is
    relative: eigenvalues at or above ``_psd_floor`` pass.
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
    return bool(lam >= _psd_floor(a)), lam, vec


# ---------------------------------------------------------------------------
# less-noisy order
# ---------------------------------------------------------------------------


def _rows_all_equal(m: np.ndarray):
    """Are all rows within ENTRY_TOL of the first?  One bool per matrix of a stack."""
    return np.abs(m - m[..., :1, :]).max(axis=(-2, -1)) <= ENTRY_TOL


def _is_identity(m: np.ndarray) -> bool:
    return m.shape[0] == m.shape[1] and bool(np.abs(m - np.eye(m.shape[0])).max() <= ENTRY_TOL)


def _shortcut(wm: np.ndarray, vm: np.ndarray) -> Optional[DominationVerdict]:
    """The sampled test's two instant certificates: a constant-row V is
    dominated by every channel, and the identity W dominates every channel.

    The exact test needs neither: its vertex checks pass on both inputs.
    """
    if _rows_all_equal(vm):
        return _dominates(certificate="constant-row channel is dominated by every channel")
    if _is_identity(wm):
        return _dominates(certificate="identity channel dominates every channel")
    return None


def is_singular_channel_matrix(m: np.ndarray) -> bool:
    """Singularity gate for square channels, by smallest singular value.

    Relative to row-norm scale; a determinant test would underflow at desk
    scale (63 eigenvalues of size 0.02 multiply to 1e-113) and misclassify
    well-conditioned matrices.
    """
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv[-1] <= DET_TOL * max(1.0, float(np.linalg.norm(m, axis=1).max())))


@lru_cache(maxsize=None)
def _ones_complement(s: int) -> np.ndarray:
    """Orthonormal basis (s x (s-1)) of the complement of the all-ones vector."""
    basis, _ = np.linalg.qr(np.hstack([np.ones((s, 1)), np.eye(s)[:, : s - 1]]))
    basis = basis[:, 1:]
    basis.flags.writeable = False
    return basis


def _loewner_difference(wm: np.ndarray, vm: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The symmetrized W D_{pW}^{-1} W^T - V D_{pV}^{-1} V^T, PSD iff the comparison holds at p."""
    diff = (wm / (p @ wm)) @ wm.T - (vm / (p @ vm)) @ vm.T
    return 0.5 * (diff + diff.T)


def _loewner_witness(wm: np.ndarray, vm: np.ndarray, p: np.ndarray) -> LoewnerWitness:
    """The smallest eigenpair of the PSD comparison at p, by one ``eigh``."""
    eigenvalues, eigenvectors = np.linalg.eigh(_loewner_difference(wm, vm, p))
    return LoewnerWitness(eigenvalue=float(eigenvalues[0]), direction=eigenvectors[:, 0], pmf=p)


def _support_witness(wm: np.ndarray, vm: np.ndarray) -> Optional[DivergencePairWitness]:
    """The input pair (uniform, e_x) when W[x] has full support and V[x] does not.

    Its KL divergence is finite under W and infinite under V.  Such a row
    always fails its vertex check, and the pair is a plainer refutation than
    a Loewner direction.
    """
    rows = np.flatnonzero((wm > 0).all(axis=1) & (vm == 0).any(axis=1))
    if rows.size == 0:
        return None
    uniform = np.full((1, len(wm)), 1.0 / len(wm))
    return _divergence_pair_violation(wm, vm, uniform, np.eye(len(wm))[rows[:1]])[1]


def _interior_witness(
    wm: np.ndarray, vm: np.ndarray, a: np.ndarray, x: int, m: np.ndarray
) -> LoewnerWitness:
    """Move the failed check at vertex x into the simplex and return the Loewner witness there.

    With M(p) = D_{pV} - A^T D_{pW} A linear in p and u the eigenvector of
    lam < 0, the smallest eigenvalue of m = M(e_x) (by ``eigh``, after the
    vertex test's ``eigvalsh``), mixing e_x with uniform no further than
    u^T M(p) u = lam / 2 keeps the form negative at an interior p.  Then
    d = W^{-T} D_{pW} A u satisfies d^T L d < 0 for L = W D_{pW}^{-1} W^T -
    V D_{pV}^{-1} V^T (Cauchy-Schwarz), so L's smallest eigenpair refutes at p.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    u, lam = _ones_complement(vm.shape[1]) @ eigenvectors[:, 0], float(eigenvalues[0])
    n = wm.shape[0]
    uniform = np.full(n, 1.0 / n)
    at_uniform = float(u @ (uniform @ vm * u) - (a @ u) @ (uniform @ wm * (a @ u)))
    # u^T M(p) u = (1 - s) lam + s at_uniform <= lam / 2 with p = (1 - s) e_x + s uniform
    s = 0.5 if at_uniform <= 0.0 else 0.5 * lam / (lam - at_uniform)
    p = s * uniform
    p[x] += 1.0 - s
    return _loewner_witness(wm, vm, p)


def _vertex_matrix(basis: np.ndarray, ab: np.ndarray, w_x: np.ndarray, v_x: np.ndarray) -> np.ndarray:
    """diag(V[x]) - A^T diag(W[x]) A on the complement of the all-ones vector.

    ``basis`` is ``_ones_complement(s)`` and ``ab`` is A @ basis.  ``ab`` and
    ``v_x`` may carry one leading axis, one entry per channel V.
    """
    return (basis.T * v_x[..., None, :]) @ basis - (np.swapaxes(ab, -2, -1) * w_x) @ ab


def _require_invertible(wm: np.ndarray) -> None:
    if wm.shape[1] != wm.shape[0]:
        raise SingularChannelError("W is not square; use less_noisy_sampled instead")
    if is_singular_channel_matrix(wm):
        raise SingularChannelError("W is singular within tolerance; use less_noisy_sampled instead")


def _commutes_with_permutations(wm: np.ndarray) -> bool:
    """Is W exactly r I + c J: square, one diagonal value and one off-diagonal value?

    Compared bitwise.  Such a W commutes with every permutation of the letters.
    """
    q = wm.shape[0]
    if wm.shape[1] != q:
        return False
    expected = np.full((q, q), wm[0, -1])
    np.fill_diagonal(expected, wm[0, 0])
    return bool((wm == expected).all())


def _orbit_letters(vm: np.ndarray) -> range:
    """The input letters whose vertex checks decide, for any W = r I + c J.

    A V that is itself exactly r' I + c' J commutes with every permutation,
    and only letter 0 is returned.  Otherwise reads a permutation s_x off each
    row x of a square V by V[x, s_x(b)] = V[0, b], which needs row 0's entries
    to be distinct.  When every s_x maps 0 to x and V[s_x][:, s_x] == V
    bitwise, the s_x carry the vertex matrix at letter 0 onto every other one
    (module docstring), and only letter 0 is returned.  Otherwise (a tie in
    row 0, a non-square V, a row that is not an exact rearrangement of row 0,
    or an inexact match) every letter is returned.  No tolerance is involved,
    so the reduction is never applied to a pair it does not hold for.
    """
    q = vm.shape[0]
    every = range(q)
    if vm.shape[1] != q:
        return every
    if _commutes_with_permutations(vm):
        return range(1)
    ranked = np.sort(vm, axis=1)
    if (ranked[0, 1:] <= ranked[0, :-1]).any() or (ranked != ranked[0]).any():
        return every
    order = np.argsort(vm, axis=1)
    sigma = np.empty_like(order)
    sigma[:, order[0]] = order  # sigma[x, b] = s_x(b)
    if not (sigma[:, 0] == np.arange(q)).all():
        return every
    if not (vm[sigma[:, :, None], sigma[:, None, :]] == vm).all():
        return every
    return range(1)


def _vertex_checks(wm: np.ndarray, vms: np.ndarray, letters):
    """The vertex checks at ``letters`` of W against every V of an (n, q, s) stack.

    Solves A = W^{-1} V for the stack once, then per input letter x runs one
    stacked ``eigvalsh`` of the symmetrized M = diag(V[x]) - A^T diag(W[x]) A;
    a check fails below ``_psd_floor``.  Stops once every V has
    failed.  Returns (A, vertex minima, first failing letter, the last M):
    minima has one column per entry of ``letters``, NaN where unchecked, and
    the letter is -1 where all pass; a single failing V's last M is its
    failing vertex.  The caller gates W (square, invertible): no SVD runs here.
    """
    a = np.linalg.solve(wm, vms)
    basis = _ones_complement(vms.shape[2])
    ab = a @ basis
    minima = np.full((len(vms), len(letters)), np.nan)
    failed = np.full(len(vms), -1)
    for i, x in enumerate(letters):
        m = _vertex_matrix(basis, ab, wm[x], vms[:, x])
        m = 0.5 * (m + np.swapaxes(m, 1, 2))
        minima[:, i] = np.linalg.eigvalsh(m).min(axis=1, initial=np.inf)
        bad = minima[:, i] < _psd_floor(m)
        failed[bad & (failed < 0)] = x
        if (failed >= 0).all():
            break
    return a, minima, failed, m


class _DeltaPencil:
    """The vertex checks of every W = r I + (1 - r) J / q against one V, precomputed.

    With t = 1 / r, B = ``_ones_complement(s)``, c = 1^T V B, G = V B - 1 c / q
    (rows g_x) and S = G^T G / q, the inverse is W^{-1} = t I - (t - 1) J / q,
    so A B = t G + 1 c / q and, because 1^T G = 0, the vertex matrix at letter x
    is the pencil

        M_x = K2_x - t g_x g_x^T + (t - t^2) S,
        K2_x = B^T diag(V[x]) B - (g_x c^T + c g_x^T) / q - c c^T / q^2
             = C^T diag(V[x]) C   with C = B - 1 c / q,

    the last form because V[x] sums to one.  One K2_x is stored per letter of
    ``letters``; S is shared.  A check needs neither A nor an eigenvalue: it
    is ``_passes_by_cholesky``.
    """

    def __init__(self, vm: np.ndarray, letters):
        q = len(vm)
        basis = _ones_complement(vm.shape[1])
        vb = vm @ basis
        mean = vb.mean(axis=0)  # c / q
        g = vb - mean
        self.gram = (g.T @ g) / q  # S
        self.g = g[list(letters)]
        self.k2 = np.empty((len(self.g),) + self.gram.shape)
        shifted = basis - mean  # C
        for k, x in zip(self.k2, letters):
            np.matmul(shifted.T * vm[x], shifted, out=k)
        self._order = list(range(len(self.g)))  # the last failing check first

    def matrices(self, t: float):
        """(i, M_x) at t = 1 / r for the i-th stored letter, in check order."""
        base = (t - t * t) * self.gram
        for i in tuple(self._order):
            m = self.k2[i] + base
            m -= np.outer(t * self.g[i], self.g[i])
            yield i, m

    def dominates(self, r: float) -> bool:
        """Do all the stored checks pass at W = r I + (1 - r) J / q (r nonzero)?"""
        for i, m in self.matrices(1.0 / r):
            if not _passes_by_cholesky(m):
                self._order.remove(i)
                self._order.insert(0, i)
                return False
        return True


def less_noisy_exact(w, v) -> DominationVerdict:
    """Exact less-noisy test for a square invertible W and any V on its input alphabet.

    With A = W^{-1} V, checks at each input letter x that
    diag(V[x]) - A^T diag(W[x]) A is PSD on the complement of the all-ones
    vector; W is less noisy than V iff all q checks pass.  These are
    ``_vertex_checks`` on a stack of one, behind the singular-value gate
    (``eigvalsh``, tolerance relative to the matrices, of order |A|^2).  No
    input is decided by a shortcut: the checks pass for the identity W and a
    constant-row V, and a constant-row W is singular (SingularChannelError).
    When W = r I + c J and V is fixed by permutations carrying letter 0 to
    every letter (an additive V with distinct noise entries, for one), the
    check at letter 0 alone decides (``_orbit_letters``).  Dominates verdicts
    list the q smallest eigenvalues as margins (kind "vertex_psd"; inf for
    the empty check of a V with one output column), or, when letter 0
    decided alone, name that letter and its margin (kind "vertex_psd_orbit").
    Fails verdicts carry an input pair with infinite divergence under V only,
    when one exists (``_divergence_pair_violation``), and otherwise a
    LoewnerWitness, the smallest eigenpair of the PSD comparison at an
    interior input pmf, from the first failing vertex.
    """
    wc, vc = as_channel(w), as_channel(v)
    if wc.rows != vc.rows:
        raise ValueError(f"input alphabets differ: {wc.rows} vs {vc.rows}")
    wm, vm = wc.matrix, vc.matrix
    _require_invertible(wm)
    letters = _orbit_letters(vm) if _commutes_with_permutations(wm) else range(wc.rows)
    a, minima, failed, m = _vertex_checks(wm, vm[None], letters)
    if failed[0] >= 0:
        x = failed[0]
        return _fails(witness=_support_witness(wm, vm) or _interior_witness(wm, vm, a[0], x, m[0]))
    if len(letters) < wc.rows:
        return _dominates(
            certificate={
                "kind": "vertex_psd_orbit",
                "description": (
                    f"vertex PSD check passed at letter 0; permutations fixing W and V "
                    f"carry it to all {wc.rows} letters"
                ),
                "letter": 0,
                "min_eigenvalue": float(minima[0, 0]),
            }
        )
    return _dominates(
        certificate={
            "kind": "vertex_psd",
            "description": f"all {wc.rows} vertex PSD checks passed",
            "min_eigenvalues": minima[0].tolist(),
        }
    )


def sample_interior_pmf(rng: np.random.Generator, q: int) -> np.ndarray:
    """Dirichlet(1) sample mixed with a sliver of uniform to stay interior."""
    p = rng.dirichlet(np.ones(q))
    return (1.0 - INTERIOR_MIX) * p + INTERIOR_MIX / q


def _divergence_pair_violation(
    wm: np.ndarray, vm: np.ndarray, ps: np.ndarray, qs: np.ndarray
) -> Optional[tuple[int, DivergencePairWitness]]:
    """(i, witness) for the first pair (ps[i], qs[i]) whose output divergences break the inequality.

    ``ps`` and ``qs`` are input pmf stacks that broadcast against each other.
    KL is checked before chi-squared within a pair.  None when all pass.
    """
    lhs = np.stack(_kl_chi2_rows(ps @ wm, qs @ wm), axis=1)
    rhs = np.stack(_kl_chi2_rows(ps @ vm, qs @ vm), axis=1)
    # infinity >= infinity is fine; a finite lhs below an infinite or larger
    # rhs refutes domination.  Raveled row-major, KL comes before chi-squared.
    bad = (rhs > lhs + DIVERGENCE_TOL).ravel()
    if not bad.any():
        return None
    i, j = divmod(int(bad.argmax()), 2)
    p, q = (stack[i].copy() for stack in np.broadcast_arrays(ps, qs))
    return i, DivergencePairWitness(p, q, ("kl", "chi2")[j], float(lhs[i, j]), float(rhs[i, j]))


def less_noisy_sampled(w, v, samples: int = 1000, seed: int = 0) -> DominationVerdict:
    """Sampled refutation search for the less-noisy order (never certifies).

    First checks the KL, then the chi-squared output divergence inequality
    on q^2 + q boundary input pairs, one array pass per family: (uniform,
    e_x), then (e_x, uniform), then (e_x, e_y) for x != y, row-major.  Each
    of ``samples`` draws then checks the PSD comparison at an interior pmf
    by one Cholesky (``_passes_by_cholesky``, band ``_psd_floor``), and the
    divergence inequalities on an interior pair.  A PSD comparison already
    puts the range of V's form inside W's, so no range test is made.  A
    violation yields Fails with a witness and ``samples_used`` the 1-based
    position of its pair or sample in that order; else Undetermined with
    q^2 + q + ``samples`` (nonnegative).  A failed PSD comparison reports
    the smallest eigenpair of the comparison, from one ``eigh`` at that
    sample alone, as a LoewnerWitness, and a divergence violation the pair
    from ``_divergence_pair_violation``.  A constant-row V or an identity W
    is certified at once (``_shortcut``).
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    wc, vc = as_channel(w), as_channel(v)
    if wc.rows != vc.rows:
        raise ValueError(f"input alphabets differ: {wc.rows} vs {vc.rows}")
    wm, vm = wc.matrix, vc.matrix
    shortcut = _shortcut(wm, vm)
    if shortcut is not None:
        return shortcut
    q = wc.rows
    used = 0
    # boundary pairs catch infinite-vs-finite separations, e.g. (uniform, point
    # mass) under an erasure channel; (e_x, e_y) is built once the others pass
    uniform, eye = np.full((1, q), 1.0 / q), np.eye(q)
    xs, ys = np.nonzero(~np.eye(q, dtype=bool))  # x != y, row-major
    for family in (lambda: (uniform, eye), lambda: (eye, uniform), lambda: (eye[xs], eye[ys])):
        ps, qs = family()
        bad = _divergence_pair_violation(wm, vm, ps, qs)
        if bad is not None:
            return _fails(witness=bad[1], samples_used=used + bad[0] + 1)
        used += max(len(ps), len(qs))

    rng = np.random.default_rng(seed)
    for _ in range(samples):
        used += 1
        p = sample_interior_pmf(rng, q)
        if not _passes_by_cholesky(_loewner_difference(wm, vm, p)):
            return _fails(witness=_loewner_witness(wm, vm, p), samples_used=used)
        bad = _divergence_pair_violation(wm, vm, p[None], sample_interior_pmf(rng, q)[None])
        if bad is not None:
            return _fails(witness=bad[1], samples_used=used)
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
    return float(np.linalg.eigvalsh(_loewner_difference(wc.matrix, vc.matrix, pv))[0])


def chi2_violation_pair(w, v, witness: LoewnerWitness) -> tuple[np.ndarray, np.ndarray, float]:
    """Turn a Loewner witness into an input pmf pair violating the chi-squared inequality.

    Returns (p, q, gap) with gap = chi2(pW||qW) - chi2(pV||qV) < 0, in closed
    form.  For an interior q, that difference is (p - q) L (p - q)^T with
    L = W D_{qW}^{-1} W^T - V D_{qV}^{-1} V^T, and L q = 0.  With q the
    witness pmf and d its unit direction (L d = lam d, lam < 0), j =
    d - (sum d) q sums to zero and j L j^T = lam.  So p = q + step j / 2,
    with step the largest that keeps q + step j nonnegative, is a pmf at
    gap lam step^2 / 4.  A witness whose eigenvalue is not below the PSD
    band at its pmf (``_psd_floor`` of the comparison) shows no violation
    and raises RuntimeError up front.  The gap returned is recomputed by
    ``chi2``, and a gap that rounding leaves nonnegative raises RuntimeError.
    """
    wm, vm = as_channel(w).matrix, as_channel(v).matrix
    if witness.pmf is None:
        raise ValueError("witness carries no input pmf")
    q_arr, d = witness.pmf, witness.direction
    band = float(_psd_floor(_loewner_difference(wm, vm, q_arr)))
    if not witness.eigenvalue < band:
        raise RuntimeError(f"the witness eigenvalue {witness.eigenvalue} lies in the PSD band {band}")
    j = d - d.sum() * q_arr
    negative = j < 0
    step = float(np.min(-q_arr[negative] / j[negative]))
    p_arr = q_arr + 0.5 * step * j
    gap = float(chi2(p_arr @ wm, q_arr @ wm)) - float(chi2(p_arr @ vm, q_arr @ vm))
    if not gap < 0:
        raise RuntimeError(f"the chi-squared gap {gap} of the witness pair is not negative")
    return p_arr, q_arr, gap
