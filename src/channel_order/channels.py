"""Probability vectors, stochastic matrices, and the symmetric-channel family.

A q-ary symmetric channel with total crossover probability delta has 1-delta
on the diagonal and delta/(q-1) everywhere else; it is the additive-noise
channel of the pmf ``(1-delta, delta/(q-1), ..., delta/(q-1))`` over any
Abelian group of order q.  The family is closed under multiplication and
inversion, with closed-form parameters implemented here.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteAbelianGroup, circulant

# Pmf rows must sum to 1 within SUM_TOL after construction; raw inputs off by
# at most RENORM_TOL are silently renormalized (text round-off), anything
# worse is rejected.
SUM_TOL = 1e-12
RENORM_TOL = 1e-9


def pmf_rows(m) -> np.ndarray:
    """Check a 2-d stack of pmfs (``Pmf``, ``Channel`` rows, region noise pmfs).

    Entries must be finite and nonnegative and rows must sum to 1 within
    RENORM_TOL; rows off by more than SUM_TOL are renormalized one by one.
    Returns a read-only float copy.
    """
    m = np.array(m, dtype=float, order="C")  # C order: each row sums like a 1-d pmf
    totals = m.sum(axis=1)
    drift = np.abs(totals - 1.0)
    worst = drift.max(initial=0.0)
    # min and max propagate NaN, which fails both comparisons, and an infinite
    # entry makes its row's sum infinite or NaN: non-finite entries fail here
    if not (m.min(initial=0.0) >= 0.0 and worst <= RENORM_TOL):
        i = np.flatnonzero(~((m >= 0.0).all(axis=1) & (drift <= RENORM_TOL)))[0]
        raise ValueError(f"every row must be a pmf; row {i} is {m[i]} with sum {totals[i]}")
    if worst > SUM_TOL:
        off = drift > SUM_TOL
        m[off] /= totals[off, None]
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class Pmf:
    """A probability row vector (finite, nonnegative entries summing to one)."""

    probs: np.ndarray = field(repr=False)

    def __init__(self, probs):
        # an empty pmf sums to 0 and is rejected
        object.__setattr__(self, "probs", pmf_rows(np.reshape(probs, (1, -1)))[0])

    def __len__(self) -> int:
        return self.probs.size

    def is_interior(self, tol: float = 0.0) -> bool:
        """True when every entry is strictly positive (margin ``tol``)."""
        return bool(np.all(self.probs > tol))


def as_pmf(p) -> Pmf:
    return p if isinstance(p, Pmf) else Pmf(p)


def uniform_pmf(n: int) -> Pmf:
    return Pmf(np.full(n, 1.0 / n))


def point_mass(n: int, x: int) -> Pmf:
    p = np.zeros(n)
    p[x] = 1.0
    return Pmf(p)


@dataclass(frozen=True, eq=False)
class Channel:
    """A row-stochastic q x r matrix with no all-zero output column."""

    matrix: np.ndarray = field(repr=False)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ValueError(f"channel matrix must be 2-d, got shape {m.shape}")
        m = pmf_rows(m)
        dead = np.flatnonzero(m.max(axis=0) <= 0.0)
        if dead.size:
            raise ValueError(f"output columns {dead.tolist()} carry no probability")
        object.__setattr__(self, "matrix", m)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def is_doubly_stochastic(self, tol: float = 1e-12) -> bool:
        if self.rows != self.cols:
            return False
        return bool(np.all(np.abs(self.matrix.sum(axis=0) - 1.0) <= tol))

    def row(self, x: int) -> np.ndarray:
        return self.matrix[x]


def as_channel(w) -> Channel:
    return w if isinstance(w, Channel) else Channel(w)


def push_forward(p, w) -> Pmf:
    """Output distribution p . W of input pmf p through channel W."""
    pv = as_pmf(p).probs
    m = as_channel(w).matrix
    if pv.size != m.shape[0]:
        raise ValueError(f"pmf length {pv.size} does not match channel input size {m.shape[0]}")
    return Pmf(pv @ m)


# ---------------------------------------------------------------------------
# symmetric channel family
# ---------------------------------------------------------------------------


def symmetric_noise_pmf(q: int, delta: float) -> Pmf:
    """Noise pmf (1-delta, delta/(q-1), ..., delta/(q-1)) of the symmetric channel."""
    _check_q(q)
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"total crossover probability must lie in [0, 1], got {delta}")
    p = np.full(q, delta / (q - 1))
    p[0] = 1.0 - delta
    return Pmf(p)


def symmetric_matrix(q: int, delta: float) -> np.ndarray:
    """Raw symmetric-family matrix for any real delta (rows/columns sum to 1).

    Not a channel for delta outside [0, 1]; this is the constructor to use for
    inverses, whose parameter is negative.
    """
    _check_q(q)
    m = np.full((q, q), delta / (q - 1))
    np.fill_diagonal(m, 1.0 - delta)
    return m


def symmetric_channel(q: int, delta: float) -> Channel:
    """The q-ary symmetric channel with total crossover probability delta."""
    _check_q(q)
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"total crossover probability must lie in [0, 1], got {delta}")
    return Channel(symmetric_matrix(q, delta))


def symmetric_eigenvalue(q: int, delta: float) -> float:
    """The (q-1)-fold eigenvalue 1 - delta - delta/(q-1); the remaining eigenvalue is 1."""
    _check_q(q)
    return 1.0 - delta - delta / (q - 1)


def symmetric_inverse_param(q: int, delta: float) -> float:
    """Parameter tau with W_tau = W_delta^{-1}.  Undefined at delta = (q-1)/q."""
    _check_q(q)
    lam = symmetric_eigenvalue(q, delta)
    if abs(lam) < 1e-12:
        raise ValueError(f"symmetric matrix at delta = {delta} is singular (delta = (q-1)/q)")
    return -delta / lam


def symmetric_compose_param(q: int, eps: float, delta: float) -> float:
    """Parameter of the product W_eps . W_delta within the symmetric family."""
    _check_q(q)
    return eps + delta - eps * delta - eps * delta / (q - 1)


@dataclass(frozen=True)
class SymmetricParam:
    """A (q, delta) pair naming one member of the symmetric matrix family."""

    q: int
    delta: float

    def __post_init__(self):
        _check_q(self.q)

    def matrix(self) -> np.ndarray:
        return symmetric_matrix(self.q, self.delta)

    def channel(self) -> Channel:
        return symmetric_channel(self.q, self.delta)

    def noise_pmf(self) -> Pmf:
        return symmetric_noise_pmf(self.q, self.delta)

    def eigenvalue(self) -> float:
        return symmetric_eigenvalue(self.q, self.delta)

    def inverse(self) -> "SymmetricParam":
        return SymmetricParam(self.q, symmetric_inverse_param(self.q, self.delta))

    def compose(self, other: "SymmetricParam") -> "SymmetricParam":
        if other.q != self.q:
            raise ValueError("alphabet sizes differ")
        return SymmetricParam(self.q, symmetric_compose_param(self.q, self.delta, other.delta))


def _check_q(q: int):
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")


# ---------------------------------------------------------------------------
# other channel constructors
# ---------------------------------------------------------------------------


def erasure_channel(q: int, eps: float) -> Channel:
    """Erasure channel: keeps the input with probability 1-eps, else emits the
    erasure symbol (last column).  All-zero output columns are dropped so the
    result satisfies the no-redundant-column invariant (eps = 0 yields the
    identity, eps = 1 a single erasure column)."""
    _check_q(q)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"erasure probability must lie in [0, 1], got {eps}")
    m = np.zeros((q, q + 1))
    np.fill_diagonal(m, 1.0 - eps)
    m[:, q] = eps
    keep = m.max(axis=0) > 0.0
    return Channel(m[:, keep])


def additive_channel(group: FiniteAbelianGroup, noise) -> Channel:
    """Channel of Y = X (+) Z over the group, i.e. the circulant of the noise pmf."""
    z = as_pmf(noise)
    if len(z) != group.order:
        raise ValueError(f"noise pmf length {len(z)} does not match group order {group.order}")
    return Channel(circulant(group, z.probs))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def channel_from_csv(text: str) -> Channel:
    """Parse a channel from CSV text, one row per input letter."""
    rows = []
    width = None
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        entries = [float(tok) for tok in line.split(",")]
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ValueError("CSV rows have inconsistent lengths")
        rows.append(entries)
    if not rows:
        raise ValueError("empty channel file")
    return Channel(np.asarray(rows))


def channel_to_csv(channel: Channel, digits: int = 17) -> str:
    buf = io.StringIO()
    for row in channel.matrix:
        buf.write(",".join(format(v, f".{digits}g") for v in row))
        buf.write("\n")
    return buf.getvalue()


def channel_from_json(text: str) -> Channel:
    data = json.loads(text)
    return Channel(np.asarray(data["matrix"], dtype=float))


def pmf_from_csv(text: str) -> Pmf:
    entries = [float(tok) for tok in text.strip().replace("\n", ",").split(",") if tok.strip()]
    return Pmf(entries)


def pmf_from_json(text: str) -> Pmf:
    data = json.loads(text)
    return Pmf(np.asarray(data["pmf"], dtype=float))
