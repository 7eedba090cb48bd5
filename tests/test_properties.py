"""Property tests of the exact less-noisy and degradation tests and of the batched classifier.

The less-noisy test is checked against the degradation test, the sampled
refuter, and a per-letter loop that runs ``psd_check`` (a full ``eigh``) at
every vertex, as the test once did.  W is drawn square and diagonally
dominant, hence invertible.  V is drawn square, singular (a repeated row),
non-square or erasure, and half the time is replaced by W V, which is
degraded from W by construction.

The degradation test by the sign of A = W^{-1} V is checked against the
degradation LP, and group majorization with an invertible circulant against
the hull LP, on degraded, Dirichlet and extremal inputs.

The classifier's labels are checked against a per-point reference built from
``majorizes``, the hull LP over the 2q generators and ``less_noisy_exact``
on the circulant.  Its single vertex check per circulant (letter 0) is
checked against the checks at every letter, on cyclic circulants of noise
pmfs 1e-12..1e-2 from uniform, with tied entries, and delta up to 1e-9
below (q-1)/q.

The orbit reduction (one vertex check for an additive V against W_delta) is
checked against the same per-letter loop, on additive V over cyclic and
product groups, relabelled or not, with a tied noise entry, with one entry
moved by one ulp, and against a W outside the family r I + c J.

``dirichlet_domination_check``, which decides every comparison by one
Cholesky in the PSD band, is checked against ``eigvalsh`` away from the
band's edge, on symmetric channels near delta = (q-1)/q and near-uniform
cyclic circulants.

``delta_star``'s probes, which evaluate precomputed vertex matrices and
factor them by Cholesky, are checked against the probe loop it once ran:
build W_delta, gate it by its singular values (``_require_invertible``),
solve for A and take ``eigvalsh`` at every letter (``_vertex_checks``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from channel_order.channels import (
    Channel,
    Pmf,
    _symmetric_is_singular,
    additive_channel,
    erasure_channel,
    symmetric_channel,
    symmetric_eigenvalue,
    symmetric_matrix,
    symmetric_noise_pmf,
)
from channel_order.dirichlet import dirichlet_domination_check
from channel_order.divergences import kl
from channel_order.groups import circulant, cyclic_group, direct_product
from channel_order.preorders import (
    DivergencePairWitness,
    LoewnerWitness,
    SingularChannelError,
    Status,
    chi2_violation_pair,
    convex_hull_membership,
    group_majorizes,
    is_degraded,
    is_singular_channel_matrix,
    _commutes_with_permutations,
    _loewner_difference,
    _orbit_letters,
    _psd_floor,
    _require_invertible,
    _vertex_checks,
    less_noisy_exact,
    less_noisy_sampled,
    loewner_gap,
    majorizes,
    phase_one,
    psd_check,
)
from channel_order.symdom import (
    circle_radius,
    classify_noise_pmfs,
    delta_star,
    extremal_degraded_tau,
    ln_gamma_bound,
    min_entry_delta_lower,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def _stochastic_rows(draw, rows: int, cols: int) -> np.ndarray:
    raw = draw(arrays(np.float64, (rows, cols), elements=st.floats(0.05, 1.0), unique=True))
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def channel_pairs(draw):
    q = draw(st.integers(2, 5))
    t = draw(st.floats(0.05, 0.45))
    w = (1.0 - t) * np.eye(q) + t * _stochastic_rows(draw, q, q)
    kind = draw(st.sampled_from(("square", "singular", "nonsquare", "erasure")))
    if kind == "square":
        v = _stochastic_rows(draw, q, q)
    elif kind == "singular":
        v = _stochastic_rows(draw, q, q)
        v[-1] = v[0]
    elif kind == "nonsquare":
        cols = draw(st.sampled_from([s for s in (q - 1, q + 1, q + 2) if s > 1]))
        v = _stochastic_rows(draw, q, cols)
    else:
        v = erasure_channel(q, draw(st.floats(0.05, 0.95))).matrix
    if draw(st.booleans()):
        v = w @ v
    return Channel(w), Channel(v)


@PROPERTY_SETTINGS
@given(channel_pairs())
def test_degraded_implies_exact_dominates(pair):
    w, v = pair
    if is_degraded(w, v).dominates:
        assert less_noisy_exact(w, v).dominates


@PROPERTY_SETTINGS
@given(channel_pairs())
def test_sampled_refutation_implies_exact_fails(pair):
    w, v = pair
    if less_noisy_sampled(w, v, samples=20).status is Status.FAILS:
        assert less_noisy_exact(w, v).status is Status.FAILS


@PROPERTY_SETTINGS
@given(channel_pairs())
def test_exact_refutations_reverify(pair):
    w, v = pair
    verdict = less_noisy_exact(w, v)
    if verdict.status is not Status.FAILS:
        return
    witness = verdict.witness
    if isinstance(witness, DivergencePairWitness):
        p, q = witness.p, witness.q
        under_w = kl(Pmf(p @ w.matrix), Pmf(q @ w.matrix))
        under_v = kl(Pmf(p @ v.matrix), Pmf(q @ v.matrix))
        assert under_v > under_w
        return
    assert isinstance(witness, LoewnerWitness)
    assert np.all(witness.pmf > 0)
    assert loewner_gap(w, v, witness.pmf) < 0
    _, _, gap = chi2_violation_pair(w, v, witness)
    assert gap < 0


@PROPERTY_SETTINGS
@given(channel_pairs())
def test_clear_loewner_witnesses_yield_a_chi2_pair(pair):
    # a vertex margin below -1e-6 leaves room for rounding: every Loewner
    # witness of either test then gives a chi-squared pair with a negative gap
    w, v = pair
    margin = np.nanmin(_vertex_checks(w.matrix, v.matrix[None], range(w.rows))[1])
    if margin >= -1e-6:
        return
    for verdict in (less_noisy_exact(w, v), less_noisy_sampled(w, v, samples=20)):
        if isinstance(verdict.witness, LoewnerWitness):
            assert verdict.witness.eigenvalue < 0
            _, _, gap = chi2_violation_pair(w, v, verdict.witness)
            assert gap < 0


@st.composite
def rank_deficient_pairs(draw):
    """A W the exact test refuses (a repeated or affinely dependent row, tall
    or wide) and V = (1 - eps) W K + eps N, near W's degraded channels for a
    small eps and a random channel at eps = 1."""
    q = draw(st.integers(3, 6))
    kind = draw(st.sampled_from(("repeated", "affine", "tall", "wide")))
    cols = {"tall": draw(st.integers(1, q - 1)), "wide": q + draw(st.integers(1, 2))}.get(kind, q)
    w = _stochastic_rows(draw, q, cols)
    if kind == "repeated":
        w[-1] = w[0]
    elif kind == "affine":
        t = draw(st.floats(0.1, 0.9))
        w[-1] = t * w[0] + (1.0 - t) * w[1]
    r = draw(st.integers(2, q + 1))
    eps = draw(st.sampled_from((1e-7, 1e-5, 1e-3, 0.1, 1.0)))
    v = (1.0 - eps) * (w @ _stochastic_rows(draw, cols, r)) + eps * _stochastic_rows(draw, q, r)
    return Channel(w), Channel(v)


@PROPERTY_SETTINGS
@given(rank_deficient_pairs())
def test_sampled_loewner_witnesses_lie_below_the_psd_band(pair):
    # the sampled search refutes by its PSD comparison alone, so every Loewner
    # witness it returns shows a violation that the band cannot absorb
    w, v = pair
    witness = less_noisy_sampled(w, v, samples=20).witness
    if not isinstance(witness, LoewnerWitness):
        return
    assert witness.eigenvalue < _psd_floor(_loewner_difference(w.matrix, v.matrix, witness.pmf))
    assert loewner_gap(w, v, witness.pmf) < 0
    _, _, gap = chi2_violation_pair(w, v, witness)
    assert gap < 0


def _per_letter_vertex_checks(wm: np.ndarray, vm: np.ndarray):
    """Status, vertex minima, first failing letter and the vertex matrices' scales,
    from ``psd_check`` at one input letter at a time."""
    s = vm.shape[1]
    basis = np.linalg.qr(np.hstack([np.ones((s, 1)), np.eye(s)[:, : s - 1]]))[0][:, 1:]
    ab = np.linalg.solve(wm, vm) @ basis
    minima, scales = [], []
    for x in range(wm.shape[0]):
        m = (basis.T * vm[x]) @ basis - (ab.T * wm[x]) @ ab
        ok, lam, _ = psd_check(m)
        minima.append(lam)
        scales.append(max(1.0, float(np.abs(m).max())))
        if not ok:
            return Status.FAILS, minima, x, scales
    return Status.DOMINATES, minima, -1, scales


@PROPERTY_SETTINGS
@given(channel_pairs())
def test_stacked_vertex_checks_match_the_per_letter_loop(pair):
    w, v = pair
    wm, vm = w.matrix, v.matrix
    status, minima, failed, scales = _per_letter_vertex_checks(wm, vm)
    _require_invertible(wm)
    _, stacked, stacked_failed, _ = _vertex_checks(wm, vm[None], range(len(wm)))
    assert int(stacked_failed[0]) == failed
    checked = len(minima)
    assert np.all(np.abs(stacked[0, :checked] - minima) <= 1e-12 * np.array(scales))
    assert np.all(np.isnan(stacked[0, checked:]))
    verdict = less_noisy_exact(w, v)
    assert verdict.status is status
    assert (stacked_failed[0] < 0) == verdict.dominates
    if status is Status.DOMINATES:
        if isinstance(verdict.certificate, str):
            return  # a constant-row V is decided by the shortcut, before any vertex
        margins = np.array(verdict.certificate["min_eigenvalues"])
        assert np.all(np.abs(margins - minima) <= 1e-12 * np.array(scales))
        return
    # a row of W with full support over a zero of V's row gives the divergence pair
    support = bool(((wm > 0).all(axis=1) & (vm == 0).any(axis=1)).any())
    assert verdict.witness.kind == ("divergence_pair" if support else "loewner")
    if not support:
        # the witness pmf mixes e_x with at most half of uniform
        assert int(np.argmax(verdict.witness.pmf)) == failed


@st.composite
def additive_pairs(draw):
    """(W, V, perturbation): V additive over Z_q or Z_a x Z_b with q <= 16,
    W = W_delta; the perturbation is none, a tied noise entry, one entry of V
    moved by one ulp, or a W with one off-diagonal entry changed."""
    if draw(st.booleans()):
        group = cyclic_group(draw(st.integers(2, 16)))
    else:
        a = draw(st.integers(2, 4))
        group = direct_product(cyclic_group(a), cyclic_group(draw(st.integers(2, 16 // a))))
    q = group.order
    noise = draw(arrays(np.float64, q, elements=st.floats(0.05, 1.0), unique=True))
    perturbation = draw(st.sampled_from(("none", "tie", "ulp", "w")))
    i, j = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
    if perturbation == "tie":
        noise[j] = noise[i]
    v = additive_channel(group, noise / noise.sum()).matrix
    if draw(st.booleans()):
        p = np.array(draw(st.permutations(range(q))))
        v = v[p][:, p]
    if perturbation == "ulp":
        v = v.copy()
        v[i, j] = np.nextafter(v[i, j], 1.0)
    delta = (q - 1) / q * draw(st.floats(0.01, 0.99))
    w = symmetric_channel(q, delta).matrix
    if perturbation == "w":
        # mass moved from W[i, i] to W[i, j]; a move small against W_delta's
        # smallest eigenvalue keeps W invertible
        eps = 0.25 * (1.0 - q * delta / (q - 1))
        w = w.copy()
        w[i, [i, j]] += [-eps, eps]
    return Channel(w), Channel(v), perturbation


@PROPERTY_SETTINGS
@given(additive_pairs())
def test_orbit_reduction_matches_the_per_letter_loop(case):
    w, v, perturbation = case
    wm, vm = w.matrix, v.matrix
    q = len(wm)
    letters = _orbit_letters(vm) if _commutes_with_permutations(wm) else range(q)
    # fires on every unperturbed V whose noise entries are distinct, and on a V
    # that is itself r I + c J (a tie at q = 3 can give one), and only there
    distinct = np.unique(vm[0]).size == q
    off_diagonal = vm[~np.eye(q, dtype=bool)]
    symmetric = np.unique(np.diag(vm)).size == 1 and np.unique(off_diagonal).size <= 1
    assert (len(letters) == 1) == (perturbation != "w" and (symmetric or (perturbation == "none" and distinct)))
    status, minima, failed, scales = _per_letter_vertex_checks(wm, vm)
    _, checked, checked_failed, _ = _vertex_checks(wm, vm[None], letters)
    assert int(checked_failed[0]) == failed
    n = min(len(letters), len(minima))
    assert np.all(np.abs(checked[0, :n] - minima[:n]) <= 1e-12 * np.array(scales[:n]))
    verdict = less_noisy_exact(w, v)
    assert verdict.status is status
    certificate = verdict.certificate
    if status is Status.DOMINATES and not isinstance(certificate, str):  # str: a shortcut
        if len(letters) == 1:
            assert certificate["kind"] == "vertex_psd_orbit" and certificate["letter"] == 0
            assert abs(certificate["min_eigenvalue"] - minima[0]) <= 1e-12 * scales[0]
        else:
            assert certificate["kind"] == "vertex_psd"
            assert len(certificate["min_eigenvalues"]) == q


def _degradation_lp_feasible(wm: np.ndarray, vm: np.ndarray) -> bool:
    """Feasibility of W A = V over channels A, as an LP in A's entries."""
    q, r, s = wm.shape[0], wm.shape[1], vm.shape[1]
    a_eq = np.zeros((q * s + r, r * s))
    b_eq = np.zeros(q * s + r)
    for i in range(q):
        for j in range(s):
            a_eq[i * s + j, j::s] = wm[i]
            b_eq[i * s + j] = vm[i, j]
    for k in range(r):
        a_eq[q * s + k, k * s : (k + 1) * s] = 1.0
        b_eq[q * s + k] = 1.0
    return phase_one(a_eq, b_eq)[0]


@st.composite
def invertible_degradation_pairs(draw):
    """(W, V): W square and invertible; V = W K, Dirichlet, or W's extremal degraded channel."""
    q = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("degraded", "dirichlet", "extremal")))
    if kind == "extremal":
        delta = (q - 1) / q * draw(st.floats(0.02, 0.98))
        return symmetric_channel(q, delta), symmetric_channel(q, extremal_degraded_tau(q, delta))
    t = draw(st.floats(0.05, 0.45))
    w = (1.0 - t) * np.eye(q) + t * _stochastic_rows(draw, q, q)
    cols = draw(st.sampled_from((q, q + 1)))
    alpha = draw(st.sampled_from((0.2, 1.0)))
    v = rng.dirichlet(np.full(cols, alpha), size=q)
    if kind == "degraded":
        # zero entries put the kernel on the boundary A >= 0; each column keeps its largest
        v[(v < 0.05) & (v < v.max(axis=0))] = 0.0
        v = w @ (v / v.sum(axis=1, keepdims=True))
    return Channel(w), Channel(v)


@PROPERTY_SETTINGS
@given(invertible_degradation_pairs())
def test_kernel_sign_matches_degradation_lp(pair):
    w, v = pair
    assert not is_singular_channel_matrix(w.matrix)
    verdict = is_degraded(w, v)
    assert verdict.dominates == _degradation_lp_feasible(w.matrix, v.matrix)
    if verdict.dominates:
        kernel = verdict.certificate["matrix"]
        assert np.abs(w.matrix @ kernel - v.matrix).max() <= 1e-9
        assert kernel.min() >= -1e-9
        assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-9
    else:
        witness = verdict.witness
        assert witness["kind"] == "negative_kernel_entry"
        assert np.linalg.solve(w.matrix, v.matrix)[witness["row"], witness["col"]] < 0


@st.composite
def majorization_pairs(draw):
    """(q, x, y): y in x's cyclic orbit hull, Dirichlet, or the extremal symmetric noise."""
    q = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("hull", "dirichlet", "extremal")))
    if kind == "extremal":
        delta = (q - 1) / q * draw(st.floats(0.02, 0.98))
        tau = extremal_degraded_tau(q, delta)
        return q, symmetric_noise_pmf(q, delta).probs, symmetric_noise_pmf(q, tau).probs
    x = rng.dirichlet(np.ones(q))
    y = rng.dirichlet(np.ones(q))
    if kind == "hull":
        y = y @ circulant(cyclic_group(q), x)
    return q, x, y


@PROPERTY_SETTINGS
@given(majorization_pairs())
def test_invertible_circulant_majorization_matches_hull_lp(case):
    q, x, y = case
    orbit = circulant(cyclic_group(q), x)
    assert not is_singular_channel_matrix(orbit)
    verdict = group_majorizes(cyclic_group(q), x, y)
    assert verdict.dominates == convex_hull_membership(orbit, y)[0]
    if verdict.dominates:
        weights = verdict.certificate["weights"]
        assert np.abs(weights @ orbit - y).max() <= 1e-9
        assert weights.min() >= -1e-9 and abs(weights.sum() - 1.0) <= 1e-9


@st.composite
def noise_stacks(draw):
    """(q, delta, an (n, q) stack of noise pmfs), delta at either end or inside."""
    q = draw(st.integers(2, 5))
    boundary = (q - 1) / q
    where = draw(st.sampled_from(("zero", "boundary", "interior")))
    if where == "zero":
        delta = 0.0
    elif where == "boundary":
        delta = boundary
    else:
        delta = boundary * draw(st.floats(0.01, 0.99))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    rows = draw(
        st.lists(
            st.lists(weight, min_size=q, max_size=q).filter(lambda w: sum(w) > 0),
            min_size=1,
            max_size=8,
        )
    )
    stack = np.array(rows)
    return q, delta, stack / stack.sum(axis=1, keepdims=True)


def _reference_label(q: int, delta: float, p: np.ndarray) -> str:
    generators = np.vstack(
        [
            np.roll(symmetric_noise_pmf(q, t).probs, k)
            for t in (delta, ln_gamma_bound(q, delta))
            for k in range(q)
        ]
    )
    if majorizes(symmetric_noise_pmf(q, delta).probs, p):
        return "DEGRADED"
    if convex_hull_membership(generators, p)[0]:
        return "LOWER_HULL"
    if np.linalg.norm(p - 1.0 / q) > circle_radius(q, delta) + 1e-12:
        return "OUTSIDE"
    circ = Channel(circulant(cyclic_group(q), p))
    if less_noisy_exact(symmetric_channel(q, delta), circ).dominates:
        return "LESS_NOISY"
    return "CIRCLE_ONLY"


@PROPERTY_SETTINGS
@given(noise_stacks())
def test_batched_classifier_matches_per_point_reference(case):
    q, delta, stack = case
    labels = classify_noise_pmfs(q, delta, stack)
    assert labels == [_reference_label(q, delta, p) for p in stack]


@st.composite
def near_uniform_circulants(draw):
    """(q, delta, an (n, q, q) stack of cyclic circulants) of noise pmfs 1e-12..1e-2
    from uniform, whose entries take at most ``levels`` values, so ties are common,
    and delta in [0, (q-1)/q - 1e-9], often close to its top."""
    q = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = (q - 1) / q - 1e-9
    if draw(st.booleans()):
        delta = top - 10.0 ** draw(st.floats(-12.0, -2.0))
    else:
        delta = top * draw(st.floats(0.0, 1.0))
    n, levels = draw(st.integers(1, 8)), draw(st.integers(1, q))
    d = rng.normal(size=(n, levels))[:, rng.integers(0, levels, size=q)]
    d -= d.mean(axis=1, keepdims=True)
    d /= np.maximum(np.abs(d).max(axis=1, keepdims=True), 1e-300)
    p = 1.0 / q + 10.0 ** rng.uniform(-12.0, -2.0, size=(n, 1)) * d
    shifts = (np.arange(q) - np.arange(q)[:, None]) % q
    return q, delta, p[:, shifts]


@PROPERTY_SETTINGS
@given(near_uniform_circulants())
def test_letter_zero_decides_for_a_cyclic_circulant(case):
    q, delta, circulants = case
    w = symmetric_channel(q, delta).matrix
    assert not _symmetric_is_singular(symmetric_eigenvalue(q, delta))
    _require_invertible(w)
    letter_zero = _vertex_checks(w, circulants, range(1))[2] < 0
    every_letter = _vertex_checks(w, circulants, range(q))[2] < 0
    assert letter_zero.tolist() == every_letter.tolist()


@st.composite
def delta_star_channels(draw):
    """(V, tol): square V at q <= 8, random with zero entries, additive, r I + c J,
    with a repeated row, or within 1e-11..1e-3 of the constant channel."""
    q = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "additive", "symmetric", "repeated", "near_constant")))
    if kind == "random":
        v = rng.dirichlet(np.ones(q), size=q) * (rng.random((q, q)) < 0.8)
        v[rng.permutation(q), np.arange(q)] += 0.05  # no dead column, no zero row
    elif kind == "additive":
        v = circulant(cyclic_group(q), rng.dirichlet(np.ones(q)))
    elif kind == "symmetric":
        v = symmetric_channel(q, draw(st.floats(0.0, 1.0))).matrix
    elif kind == "repeated":
        v = rng.dirichlet(np.ones(q), size=q)
        v[-1] = v[0]
    else:
        eps = 10.0 ** draw(st.floats(-11.0, -3.0))
        v = 1.0 / q + eps * (rng.dirichlet(np.ones(q), size=q) - 1.0 / q)
    v = v / v.sum(axis=1, keepdims=True)
    return Channel(v), draw(st.sampled_from((1e-2, 1e-4, 1e-7)))


def _old_delta_star(v: Channel, tol: float):
    """delta_star's bisection with its former probe: the full vertex test on W_delta."""
    q, vm = v.rows, v.matrix
    boundary = (q - 1) / q
    if np.abs(vm - vm[0]).max() <= 1e-12:
        return boundary, boundary, 0, ()
    probes = []

    def probe(delta):
        wm = symmetric_channel(q, delta).matrix
        try:
            _require_invertible(wm)
        except SingularChannelError:
            status = "undetermined"
        else:
            status = "dominates" if _vertex_checks(wm, vm[None], range(q))[2][0] < 0 else "fails"
        probes.append((delta, status))
        return status

    lower = min_entry_delta_lower(v)
    if lower > 0.0 and probe(lower) != "dominates":
        lower = 0.0
    upper, iterations = boundary, 0
    while upper - lower > tol and iterations < 200:
        iterations += 1
        mid = 0.5 * (lower + upper)
        status = probe(mid)
        if status == "dominates":
            lower = mid
        elif status == "fails":
            upper = mid
        else:
            break
    return lower, upper, iterations, tuple(probes)


@PROPERTY_SETTINGS
@given(delta_star_channels())
def test_delta_star_probes_match_the_old_probe_loop(case):
    v, tol = case
    result = delta_star(v, tol=tol)
    assert (result.lower, result.upper, result.iterations, result.probes) == _old_delta_star(v, tol)


@st.composite
def doubly_stochastic_pairs(draw):
    """(W, V) at q <= 6, each a symmetric channel W_delta, often within
    1e-12..1e-3 (relative) below delta = (q-1)/q, or a cyclic circulant of a
    noise pmf 1e-9..1 of the way from uniform to a Dirichlet(1) pmf."""
    q = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = (q - 1) / q

    def channel():
        if draw(st.booleans()):
            if draw(st.booleans()):
                return symmetric_matrix(q, top * (1.0 - 10.0 ** draw(st.floats(-12.0, -3.0))))
            return symmetric_matrix(q, top * draw(st.floats(0.0, 1.0)))
        noise = 1.0 / q + 10.0 ** draw(st.floats(-9.0, 0.0)) * (rng.dirichlet(np.ones(q)) - 1.0 / q)
        return circulant(cyclic_group(q), noise)

    return Channel(channel()), Channel(channel())


def _psd_verdict(m):
    """eigvalsh's verdict on the symmetrized m in the PSD band, or None within
    1e-3 of the band's width of its edge, where rounding may decide."""
    m = 0.5 * (m + m.T)
    lam, floor = np.linalg.eigvalsh(m)[0], float(_psd_floor(m))
    if abs(lam - floor) <= 1e-3 * abs(floor):
        return None
    return bool(lam >= floor)


@PROPERTY_SETTINGS
@given(doubly_stochastic_pairs())
def test_dirichlet_domination_check_matches_eigvalsh_off_the_band_edge(pair):
    w, v = pair
    wm, vm = w.matrix, v.matrix
    q = len(wm)
    expected = {"discrete": _psd_verdict(wm @ wm.T - vm @ vm.T)}
    w_psd = _psd_verdict(wm)
    if w_psd is not None:
        expected["continuous"] = _psd_verdict(wm - vm) if w_psd else ValueError
    delta = 1.0 - np.trace(wm) / q
    if np.abs(wm - symmetric_matrix(q, delta)).max() <= 1e-9 and delta <= (q - 1) / q + 1e-12:
        expected["standard"] = _psd_verdict(symmetric_matrix(q, delta) - vm)
    else:
        expected["standard"] = ValueError
    for kind, verdict in expected.items():
        if verdict is ValueError:
            with pytest.raises(ValueError):
                dirichlet_domination_check(w, v, kind)
        elif verdict is not None:
            assert dirichlet_domination_check(w, v, kind) is verdict
