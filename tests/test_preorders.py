"""Tests for majorization, degradation, and less-noisy decision procedures."""

import math

import numpy as np
import pytest

from channel_order.channels import (
    Channel,
    Pmf,
    _symmetric_is_singular,
    erasure_channel,
    point_mass,
    symmetric_channel,
    symmetric_eigenvalue,
    symmetric_inverse_param,
    symmetric_matrix,
    symmetric_noise_pmf,
    uniform_pmf,
)
from channel_order.dirichlet import lsi_functional
from channel_order.divergences import chi2, kl
from channel_order import preorders
from channel_order.groups import circulant, cyclic_group, direct_product
from channel_order.preorders import (
    DIVERGENCE_TOL,
    LP_TOL,
    PSD_TOL,
    DivergencePairWitness,
    DominationVerdict,
    LoewnerWitness,
    SingularChannelError,
    Status,
    _DeltaPencil,
    _loewner_difference,
    _ones_complement,
    _orbit_letters,
    _passes_by_cholesky,
    _psd_floor,
    _kernel,
    _vertex_checks,
    _vertex_matrix,
    chi2_violation_pair,
    group_majorizes,
    is_degraded,
    is_degraded_additive,
    is_singular_channel_matrix,
    less_noisy_exact,
    less_noisy_sampled,
    loewner_gap,
    majorizes,
    phase_one,
    psd_check,
)
from channel_order.symdom import extremal_degraded_tau, ln_gamma_bound


def klein_group():
    return direct_product(cyclic_group(2), cyclic_group(2))


def constant_channel(q):
    return Channel(np.full((q, q), 1.0 / q))


def random_channel(rng, q, r=None, positive=False):
    r = q if r is None else r
    alpha = np.ones(r) if not positive else np.full(r, 5.0)
    return Channel(rng.dirichlet(alpha, size=q))


# --- verdict type ------------------------------------------------------------


def test_verdict_invariants():
    with pytest.raises(ValueError):
        DominationVerdict(Status.DOMINATES)
    with pytest.raises(ValueError):
        DominationVerdict(Status.FAILS)
    with pytest.raises(ValueError):
        DominationVerdict(Status.UNDETERMINED, certificate="x")


# --- LP engine ---------------------------------------------------------------


def test_lp_phase_one_feasible_and_infeasible():
    # x1 + x2 = 1, x1 - x2 = 0 has the solution (1/2, 1/2)
    feasible, x, opt = phase_one(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.0]))
    assert feasible
    assert opt <= 1e-12
    assert np.allclose(x, [0.5, 0.5], atol=1e-9)
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    feasible, x, opt = phase_one(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
    assert not feasible
    assert x is None
    assert opt >= 0.5


# --- majorization ------------------------------------------------------------


def test_majorizes_examples():
    assert majorizes([0.6, 0.2, 0.2], [0.4, 0.3, 0.3])
    assert majorizes([0.4, 0.3, 0.3], [0.4, 0.3, 0.3])
    assert not majorizes([1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0])


def test_majorizes_requires_equal_sums():
    with pytest.raises(ValueError):
        majorizes([0.5, 0.5], [0.6, 0.6])


@pytest.mark.parametrize(
    "call",
    [
        lambda: majorizes([np.nan, 1.0], [0.5, 0.5]),
        lambda: lsi_functional([np.nan, 1.0]),
    ],
    ids=["majorizes_sum", "lsi_functional_norm"],
)
def test_nan_fails_the_tolerance_guards(call):
    # each guard was once written abs(...) > tol, which NaN passes: majorizes
    # returned False and lsi_functional 0.0
    with pytest.raises(ValueError):
        call()


def doubly_stochastic_feasible(x, y):
    """Independent oracle: y = x D for doubly stochastic D, as an LP."""
    q = len(x)
    rows = []
    rhs = []
    for j in range(q):  # columns of the product
        row = np.zeros(q * q)
        row[j::q] = x
        rows.append(row)
        rhs.append(y[j])
    for k in range(q):  # row sums of D
        row = np.zeros(q * q)
        row[k * q : (k + 1) * q] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for j in range(q):  # column sums of D
        row = np.zeros(q * q)
        row[j::q] = 1.0
        rows.append(row)
        rhs.append(1.0)
    feasible, _, _ = phase_one(np.array(rows), np.array(rhs))
    return feasible


def test_majorizes_matches_doubly_stochastic_lp():
    rng = np.random.default_rng(2)
    for _ in range(40):
        q = int(rng.integers(2, 5))
        x = rng.dirichlet(np.ones(q))
        if rng.random() < 0.5:
            # mix toward uniform: guaranteed majorized
            lam = rng.random()
            y = lam * x[rng.permutation(q)] + (1 - lam) / q
        else:
            y = rng.dirichlet(np.ones(q))
        assert majorizes(x, y) == doubly_stochastic_feasible(x, y)


# --- group majorization -------------------------------------------------------


def test_group_majorizes_orbit_point():
    # the target is one group shift of w (right rotation = acting by element
    # 3); the circulant is invertible, so the convex weights are uniquely a
    # point mass, sitting at the inverse element 1 since lam indexes rows of
    # circ(w), whose row x is w shifted by -x
    g = cyclic_group(4)
    w = symmetric_noise_pmf(4, 0.3).probs
    from channel_order.groups import permutation_matrix

    target = np.roll(w, 1)
    assert np.allclose(target, w @ permutation_matrix(g, 3))
    verdict = group_majorizes(g, w, target)
    assert verdict.dominates
    lam = verdict.certificate["weights"]
    assert np.allclose(lam @ circulant(g, w), target, atol=1e-8)
    assert np.allclose(lam, np.eye(4)[1], atol=1e-8)


def test_group_majorizes_to_uniform():
    g = klein_group()
    x = np.array([0.4, 0.3, 0.2, 0.1])
    verdict = group_majorizes(g, x, np.full(4, 0.25))
    assert verdict.dominates


def test_group_majorizes_solves_weights():
    g = cyclic_group(3)
    x = np.array([0.8, 0.1, 0.1])
    y = np.array([0.5, 0.3, 0.2])
    verdict = group_majorizes(g, x, y)
    assert verdict.dominates
    lam = verdict.certificate["weights"]
    # linear-solve oracle: lam = y . circ(x)^{-1}
    expected = y @ np.linalg.inv(circulant(g, x))
    assert np.allclose(lam, expected, atol=1e-8)
    assert np.allclose(expected, [4 / 7, 2 / 7, 1 / 7], atol=1e-12)


def test_group_majorizes_orbit_equivalence():
    # shifting by a group element is invertible, so both directions dominate
    from channel_order.groups import permutation_matrix

    for g in (cyclic_group(4), klein_group()):
        v = np.array([0.45, 0.3, 0.15, 0.1])
        for x in g.elements():
            shifted = v @ permutation_matrix(g, x)
            assert group_majorizes(g, v, shifted).dominates
            assert group_majorizes(g, shifted, v).dominates


# --- degradation ---------------------------------------------------------------


def test_is_degraded_identity():
    rng = np.random.default_rng(0)
    v = random_channel(rng, 3)
    verdict = is_degraded(Channel(np.eye(3)), v)
    assert verdict.dominates
    assert np.allclose(verdict.certificate["matrix"], v.matrix, atol=1e-9)


def test_is_degraded_constant_w_fails_on_unequal_rows():
    v = symmetric_channel(3, 0.2)
    assert is_degraded(constant_channel(3), v).status is Status.FAILS


def test_is_degraded_symmetric_extremal():
    w = symmetric_channel(3, 0.2)
    assert is_degraded(w, symmetric_channel(3, 0.9)).dominates
    assert is_degraded(w, symmetric_channel(3, 0.95)).status is Status.FAILS


def test_is_degraded_certificate_residual():
    w = symmetric_channel(4, 0.25)
    v = symmetric_channel(4, 0.6)
    verdict = is_degraded(w, v)
    assert verdict.dominates
    assert verdict.certificate["residual"] <= 1e-9


def test_is_degraded_input_alphabet_mismatch():
    with pytest.raises(ValueError):
        is_degraded(symmetric_channel(3, 0.1), symmetric_channel(4, 0.1))


def test_degradation_transitivity_composes():
    w = symmetric_channel(3, 0.1)
    v = symmetric_channel(3, 0.3)
    x = symmetric_channel(3, 0.6)
    first = is_degraded(w, v)
    second = is_degraded(v, x)
    assert first.dominates and second.dominates
    composed = first.certificate["matrix"] @ second.certificate["matrix"]
    assert np.abs(w.matrix @ composed - x.matrix).max() <= 1e-8
    assert is_degraded(w, x).dominates


def test_is_degraded_additive_matches_matrix_test():
    rng = np.random.default_rng(4)
    for group in (cyclic_group(4), klein_group()):
        for _ in range(10):
            w = rng.dirichlet(np.ones(4))
            v = rng.dirichlet(np.ones(4))
            additive = is_degraded_additive(group, Pmf(w), Pmf(v)).dominates
            matrix = is_degraded(
                Channel(circulant(group, w)), Channel(circulant(group, v))
            ).dominates
            assert additive == matrix


def test_is_degraded_additive_examples():
    g = cyclic_group(5)
    delta = 0.3
    tau = extremal_degraded_tau(5, delta)
    w = symmetric_noise_pmf(5, delta)
    verdict = is_degraded_additive(g, w, symmetric_noise_pmf(5, tau))
    assert verdict.dominates
    # uniform weights over the q-1 nontrivial shifts
    lam = verdict.certificate["weights"]
    assert lam[0] == pytest.approx(0.0, abs=1e-8)
    assert np.allclose(lam[1:], np.full(4, 0.25), atol=1e-8)

    assert is_degraded_additive(g, w, w).dominates
    bad = is_degraded_additive(cyclic_group(3), Pmf([0.8, 0.1, 0.1]), Pmf([0.85, 0.1, 0.05]))
    assert bad.status is Status.FAILS


def test_is_degraded_fails_names_a_negative_kernel_entry():
    # a square invertible W pins the kernel to A = W^{-1} V; the witness is
    # A's most negative entry, which one solve re-checks
    w, v = symmetric_channel(3, 0.2), symmetric_channel(3, 0.95)
    witness = is_degraded(w, v).witness
    assert set(witness) == {"kind", "row", "col", "value"}
    assert witness["kind"] == "negative_kernel_entry"
    a = np.linalg.solve(w.matrix, v.matrix)
    assert witness["value"] == a[witness["row"], witness["col"]] == a.min()
    assert witness["value"] == pytest.approx(-1 / 14)


def test_is_degraded_lp_decides_a_singular_w():
    rng = np.random.default_rng(8)
    # third row is the mean of the first two
    w = Channel(np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]]))
    k = random_channel(rng, w.cols, 4)
    verdict = is_degraded(w, Channel(w.matrix @ k.matrix))
    assert verdict.dominates
    kernel = verdict.certificate["matrix"]
    assert np.abs(w.matrix @ kernel - w.matrix @ k.matrix).max() <= 1e-8
    assert kernel.min() >= 0.0
    # the phase-one point is the kernel: its slack bounds the row sums' error
    assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-9
    failed = is_degraded(w, symmetric_channel(3, 0.1))
    assert failed.witness["kind"] == "infeasible"
    assert failed.witness["phase_one_optimum"] > 1e-9


def test_is_degraded_decides_a_tall_w_by_least_squares():
    # a tall W of full column rank pins the kernel to A = W^+ V: no LP runs,
    # and a V off W's range fails by its residual column, which one
    # least-squares solve re-checks
    rng = np.random.default_rng(8)
    w = Channel(np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]))
    k = random_channel(rng, w.cols, 4)
    verdict = is_degraded(w, Channel(w.matrix @ k.matrix))
    assert verdict.dominates
    kernel = verdict.certificate["matrix"]
    assert np.abs(kernel - k.matrix).max() <= 1e-12
    assert verdict.certificate["residual"] <= 1e-15
    v = symmetric_channel(3, 0.1)
    witness = is_degraded(w, v).witness
    assert set(witness) == {"kind", "col", "residual"} and witness["kind"] == "outside_range"
    residual = np.abs(v.matrix - w.matrix @ np.linalg.lstsq(w.matrix, v.matrix, rcond=None)[0])
    assert witness["residual"] == residual.max() == residual[:, witness["col"]].max() > 1e-9
    # inside the range, a kernel with a negative entry still fails
    witness = is_degraded(w, Channel(w.matrix @ np.array([[1.2, -0.2], [-0.1, 1.1]]))).witness
    assert witness["kind"] == "negative_kernel_entry" and witness["value"] == pytest.approx(-0.2)


def test_a_tall_w_off_its_range_is_never_degraded():
    # V = (1 - 1e-7) W K + 1e-7 N leaves a tall W's range by ~1e-8..1e-7, far
    # outside the band.  The degradation LP once certified most such pairs,
    # with a residual max|W A - V| inside HiGHS's own feasibility tolerance
    rng = np.random.default_rng(2)
    for _ in range(200):
        q = int(rng.integers(3, 9))
        s = int(rng.integers(2, q))
        w = rng.dirichlet(np.ones(s), size=q)
        v = (1 - 1e-7) * (w @ rng.dirichlet(np.ones(s), size=s)) + 1e-7 * rng.dirichlet(np.ones(s), size=q)
        verdict = is_degraded(Channel(w), Channel(v))
        if verdict.dominates:
            kernel = verdict.certificate["matrix"]
            assert verdict.certificate["residual"] <= LP_TOL * max(1.0, np.abs(kernel).max())
        else:
            assert verdict.witness["kind"] == "outside_range"
            assert verdict.witness["residual"] > LP_TOL


def test_a_tall_w_needs_neither_the_lp_nor_the_sampled_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a W of full column rank has an exact path")

    monkeypatch.setattr(preorders, "phase_one", refuse)
    monkeypatch.setattr(preorders, "less_noisy_sampled", refuse)
    rng = np.random.default_rng(5)
    seen = set()
    for q, s in ((2, 1), (3, 2), (5, 3), (8, 7)):
        w = Channel(rng.dirichlet(np.ones(s), size=q))
        for v in (w.matrix @ random_channel(rng, s, 3).matrix, random_channel(rng, q, 4).matrix):
            for verdict in (is_degraded(w, Channel(v)), less_noisy_exact(w, Channel(v))):
                assert verdict.status is not Status.UNDETERMINED
                seen.add(verdict.status)
    assert seen == {Status.DOMINATES, Status.FAILS}
    # the patch is in force: a singular W and a wide W still reach the LP,
    # and the exact less-noisy test refuses both
    for w in (constant_channel(3), erasure_channel(3, 0.3)):
        with pytest.raises(AssertionError, match="exact path"):
            is_degraded(w, symmetric_channel(3, 0.2))
        with pytest.raises(SingularChannelError):
            less_noisy_exact(w, symmetric_channel(3, 0.2))


def test_group_majorizes_singular_circulant_uses_the_lp():
    # circ(x) has a vanishing character, so the weights are not unique
    g = cyclic_group(4)
    x = np.array([0.35, 0.15, 0.35, 0.15])
    assert abs(np.linalg.det(circulant(g, x))) < 1e-12
    lam = np.array([0.1, 0.2, 0.3, 0.4])
    y = lam @ circulant(g, x)
    verdict = group_majorizes(g, x, y)
    assert verdict.dominates
    weights = verdict.certificate["weights"]
    assert weights.min() >= 0.0 and weights.sum() == pytest.approx(1.0)
    assert np.allclose(weights @ circulant(g, x), y, atol=1e-8)
    assert group_majorizes(g, x, np.array([0.7, 0.1, 0.1, 0.1])).status is Status.FAILS


@pytest.mark.parametrize(
    "call",
    [
        lambda: group_majorizes(cyclic_group(3), [np.nan, 0.5, 0.5], np.full(3, 1 / 3)),
        # circ(x) is invertible: the solve once returned Fails
        lambda: group_majorizes(cyclic_group(3), [0.6, 0.3, 0.1], [np.nan, 0.5, 0.5]),
        lambda: group_majorizes(cyclic_group(3), [0.6, 0.3, 0.1], [np.inf, 0.0, 0.0]),
        # circ(x) is singular: the LP once raised from inside scipy
        lambda: group_majorizes(cyclic_group(3), np.full(3, 1 / 3), [-np.inf, 0.5, 0.5]),
        lambda: symmetric_inverse_param(3, np.nan),
        lambda: symmetric_inverse_param(3, np.inf),
    ],
    ids=["x-nan", "y-nan", "y-inf", "y-neg-inf-singular", "delta-nan", "delta-inf"],
)
def test_non_finite_input_is_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()


# --- PSD kernel -----------------------------------------------------------------


def test_psd_check_examples():
    ok, lam, _ = psd_check(np.eye(3))
    assert ok and lam == pytest.approx(1.0)
    ok, lam, vec = psd_check(np.diag([1.0, -0.5]))
    assert not ok
    assert lam == pytest.approx(-0.5)
    assert abs(vec[1]) == pytest.approx(1.0)
    ok, lam, vec = psd_check(symmetric_channel(3, 0.2).matrix)
    assert ok and lam == pytest.approx(0.7, abs=1e-12)
    assert abs(vec @ np.ones(3)) <= 1e-9


def test_psd_check_rejects_asymmetric():
    with pytest.raises(ValueError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [0.25, 1.0, 1e3])
@pytest.mark.parametrize("depth, passes", [(0.5, True), (2.0, False)])
def test_psd_band_edge_is_shared_by_eigenvalue_and_cholesky(scale, depth, passes):
    # smallest eigenvalue at -depth times the band PSD_TOL * max(1, |M|max),
    # with |M|max = scale: both the eigenvalue test and the delta* probes'
    # Cholesky test must scale the band the same way
    m = np.diag([scale, 0.5 * scale, -depth * PSD_TOL * max(1.0, scale)])
    assert psd_check(m)[0] is passes
    assert _passes_by_cholesky(m.copy()) is passes


# --- less noisy: exact -----------------------------------------------------------


def test_less_noisy_exact_reflexive():
    w = symmetric_channel(4, 0.22)
    assert less_noisy_exact(w, w).dominates


def test_less_noisy_exact_gamma_bound():
    w = symmetric_channel(3, 0.2)
    assert less_noisy_exact(w, symmetric_channel(3, 16 / 17)).dominates


def test_less_noisy_exact_fails_toward_identity():
    w, v = symmetric_channel(3, 0.2), symmetric_channel(3, 0.1)
    verdict = less_noisy_exact(w, v)
    assert verdict.status is Status.FAILS
    witness = verdict.witness
    assert isinstance(witness, LoewnerWitness)
    assert witness.vertex is None
    assert np.all(witness.pmf > 0) and witness.pmf.sum() == pytest.approx(1.0)
    assert witness.eigenvalue < 0
    assert loewner_gap(w, v, witness.pmf) == pytest.approx(witness.eigenvalue)


def test_less_noisy_exact_singular_input():
    singular = Channel([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1]])
    with pytest.raises(SingularChannelError):
        less_noisy_exact(singular, symmetric_channel(3, 0.2))
    with pytest.raises(SingularChannelError):
        less_noisy_exact(erasure_channel(3, 0.3), symmetric_channel(3, 0.2))
    # only W is inverted: a singular V gets an exact verdict either way
    w = symmetric_channel(3, 0.2)
    assert less_noisy_exact(w, Channel(w.matrix @ singular.matrix)).dominates
    assert less_noisy_exact(w, singular).status is Status.FAILS


def test_less_noisy_exact_desk_scale_alphabet():
    # at q = 64 the determinant of a well-conditioned symmetric channel
    # underflows; the singularity gate must still accept it
    q = 64
    gamma = ln_gamma_bound(q, 0.3)
    assert less_noisy_exact(symmetric_channel(q, 0.3), symmetric_channel(q, gamma)).dominates
    verdict = less_noisy_exact(symmetric_channel(q, 0.3), symmetric_channel(q, 0.2))
    assert verdict.status is Status.FAILS


def test_less_noisy_exact_shortcuts():
    rng = np.random.default_rng(1)
    v = random_channel(rng, 3)
    assert less_noisy_exact(Channel(np.eye(3)), v).dominates
    assert less_noisy_exact(v, constant_channel(3)).dominates
    # a constant-row W is singular: the exact test refuses it, and the
    # sampled test refutes it through the divergence pair kernel
    with pytest.raises(SingularChannelError):
        less_noisy_exact(constant_channel(3), v)
    v = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    verdict = less_noisy_sampled(constant_channel(3), v, samples=0)
    witness = verdict.witness
    assert verdict.status is Status.FAILS and verdict.samples_used == 1
    assert witness.p.tolist() == [1 / 3, 1 / 3, 1 / 3] and witness.q.tolist() == [1.0, 0.0, 0.0]
    assert witness.lhs == 0.0 and witness.rhs > witness.lhs + DIVERGENCE_TOL


def test_a_constant_row_w_is_never_refuted_by_a_zero_gap():
    # V within 1e-9 of W = J/3: the constant-row W shortcut once returned
    # Fails with lhs = rhs = 0.0, a witness that shows no violation
    w = constant_channel(3)
    v = Channel(np.full((3, 3), 1 / 3) + 1e-9 * np.array([[1.0, -1.0, 0.0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(SingularChannelError):
        less_noisy_exact(w, v)
    assert less_noisy_sampled(w, v, samples=200).status is Status.UNDETERMINED


@pytest.mark.parametrize(
    "w, v, margins",
    [
        # a V with one output column is constant: its vertex checks are empty
        ([[0.9, 0.1], [0.2, 0.8]], [[1.0], [1.0]], [math.inf, math.inf]),
        # one input letter: every divergence is 0
        ([[1.0]], [[1.0]], [math.inf]),
        ([[1.0]], [[0.5, 0.5]], [0.5]),
    ],
)
def test_less_noisy_exact_one_output_v_and_one_letter_alphabet(w, v, margins):
    # both once raised IndexError: W[0, 1] and the eigenvalue column of an
    # empty vertex matrix do not exist
    verdict = less_noisy_exact(Channel(w), Channel(v))
    assert verdict.dominates
    assert verdict.certificate["kind"] == "vertex_psd"
    assert verdict.certificate["min_eigenvalues"] == margins


def test_vertex_checks_match_exact_without_shortcuts():
    # the vertex checks take no identity or constant-row V shortcut; at every
    # letter they must reach the verdicts that less_noisy_exact's shortcuts give
    rng = np.random.default_rng(4)
    stack = [random_channel(rng, 3).matrix for _ in range(4)]
    stack += [np.eye(3), np.eye(3)[[1, 2, 0]], constant_channel(3).matrix]
    stack += [np.array([[0.6, 0.3, 0.1]] * 3)]
    for w in [np.eye(3), *stack[:4], symmetric_channel(3, 0.2).matrix]:
        expected = [less_noisy_exact(w, v).dominates for v in stack]
        a = _kernel(w, np.array(stack))
        assert (_vertex_checks(w, np.array(stack), a, range(3))[1] < 0).tolist() == expected


def test_stacked_vertex_checks_keep_each_first_failing_letter():
    # the letter loop runs until every V has failed; each V keeps the letter
    # and the minima it gets on a stack of its own
    rng = np.random.default_rng(6)
    w = symmetric_channel(3, 0.2).matrix
    stack = np.array([random_channel(rng, 3).matrix for _ in range(8)])
    stack = np.vstack([stack, symmetric_channel(3, 0.3).matrix[None]])
    minima, failed, _ = _vertex_checks(w, stack, _kernel(w, stack), range(3))
    assert (failed == 0).any() and failed[-1] == -1
    for v, row, letter in zip(stack, minima, failed):
        alone, alone_failed, _ = _vertex_checks(w, v[None], _kernel(w, v[None]), range(3))
        assert letter == alone_failed[0]
        checked = ~np.isnan(alone[0])
        assert np.abs(row[checked] - alone[0, checked]).max() <= 1e-12



def test_orbit_reduction_needs_a_symmetry_of_v_not_just_rearranged_rows():
    # every row of V rearranges row 0 and V[x, x] = V[0, 0], but the Latin
    # square is no group table: letter 0 passes and letter 4 fails, so no
    # symmetry of V carries 0 to 4, and checking letter 0 alone would be wrong
    square = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    v = Channel(np.array([0.3, 0.25, 0.2, 0.15, 0.1])[square])
    w = symmetric_channel(5, 0.557)
    assert _orbit_letters(v.matrix) == range(5)
    minima, failed, _ = _vertex_checks(w.matrix, v.matrix[None], _kernel(w.matrix, v.matrix[None]), range(5))
    assert minima[0, 0] > 0 and failed[0] == 4
    assert less_noisy_exact(w, v).status is Status.FAILS


def test_orbit_reduction_takes_a_v_that_is_r_i_plus_c_j():
    # r I + c J commutes with every permutation, ties in row 0 or not; a
    # cyclic V at q = 3 with a tie is of that form only when p[1] == p[2]
    assert _orbit_letters(symmetric_matrix(3, 0.5)) == range(1)
    assert _orbit_letters(symmetric_matrix(64, 0.3)) == range(1)
    assert _orbit_letters(circulant(cyclic_group(3), np.array([0.5, 0.25, 0.25]))) == range(1)
    assert _orbit_letters(circulant(cyclic_group(3), np.array([0.375, 0.375, 0.25]))) == range(3)
    w, v = symmetric_channel(3, 0.2), symmetric_channel(3, 0.5)
    certificate = less_noisy_exact(w, v).certificate
    assert certificate["kind"] == "vertex_psd_orbit"
    minima, _, _ = _vertex_checks(w.matrix, v.matrix[None], _kernel(w.matrix, v.matrix[None]), range(3))
    assert abs(certificate["min_eigenvalue"] - minima[0].min()) <= 1e-12


# --- delta pencil ------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 8, 64])
def test_delta_pencil_matches_the_vertex_matrix(q):
    # M_x(r) from the precomputed coefficients against diag(V[x]) - A^T diag(W[x]) A.
    # A comes from a solve for r near 1 and mid-range; near the singularity gate
    # (r = 1e-10) every float A, the solve's included, is off by ~eps / r (about
    # 1e-8 relative at r = 1e-9), more than this comparison allows, so there A
    # uses the inverse W^{-1} = t I - (t - 1) J / q, t = 1 / r, that the pencil expands
    rng = np.random.default_rng(q)
    v = rng.dirichlet(np.ones(q), size=q)
    if q > 2:
        v[-1] = v[0]  # V may be singular (at q = 2 this V would be constant)
    basis = _ones_complement(q)
    pencil = _DeltaPencil(v, range(q))
    for r_target, solve in ((1 - 1e-9, True), (0.5, True), (1e-3, True), (1e-9, False)):
        delta = (1.0 - r_target) * (q - 1) / q
        w = symmetric_matrix(q, delta)
        r = symmetric_eigenvalue(q, delta)
        t = 1.0 / r
        a = np.linalg.solve(w, v) if solve else (t * np.eye(q) - (t - 1.0) / q) @ v
        matrices = dict(pencil.matrices(t))
        assert sorted(matrices) == list(range(q))
        for x in range(q):
            expected = _vertex_matrix(basis, a @ basis, w[x], v[x])
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.abs(matrices[x] - expected).max() <= 1e-12 * scale, (r_target, x)


def test_delta_pencil_tries_the_last_failing_letter_first():
    # at W_0.1 only letter 4 fails this V; once it has failed it is checked first
    v = np.random.default_rng(3).dirichlet(np.ones(5), size=5)
    w = symmetric_matrix(5, 0.1)
    minima, failed, _ = _vertex_checks(w, v[None], _kernel(w, v[None]), range(5))
    assert failed[0] == 4 and (minima[0, :4] > 0).all()
    pencil = _DeltaPencil(v, range(5))
    r = symmetric_eigenvalue(5, 0.1)
    assert [i for i, _ in pencil.matrices(1.0 / r)] == [0, 1, 2, 3, 4]
    assert not pencil.dominates(r)
    assert [i for i, _ in pencil.matrices(1.0 / r)] == [4, 0, 1, 2, 3]
    assert not pencil.dominates(r)
    assert pencil.dominates(symmetric_eigenvalue(5, 0.0))


@pytest.mark.parametrize("q", [2, 3, 8, 64])
def test_symmetric_gate_matches_the_svd_gate(q):
    # min(1, |r|) <= DET_TOL against the smallest singular value of W_delta,
    # for delta within 1e-8 of the boundary (q-1)/q on either side
    boundary = (q - 1) / q
    offsets = [0.0] + [sign * 10.0**k for k in np.linspace(-16, -8, 33) for sign in (1, -1)]
    singular = []
    for offset in offsets:
        delta = boundary + offset
        closed = _symmetric_is_singular(symmetric_eigenvalue(q, delta))
        assert closed == is_singular_channel_matrix(symmetric_matrix(q, delta)), offset
        singular.append(closed)
    assert any(singular) and not all(singular)


# --- less noisy: sampled -----------------------------------------------------------


@pytest.mark.parametrize("delta", [0.1, 0.5])
@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_less_noisy_sampled_erasure_witness(delta, eps):
    # a symmetric channel never dominates an erasure channel: the uniform /
    # point-mass pair exhibits an infinite output divergence on the erasure
    # side against a finite one on the symmetric side
    verdict = less_noisy_sampled(
        symmetric_channel(3, delta), erasure_channel(3, eps), samples=10, seed=0
    )
    assert verdict.status is Status.FAILS
    witness = verdict.witness
    assert isinstance(witness, DivergencePairWitness)
    assert np.allclose(witness.p, np.full(3, 1 / 3))
    assert np.allclose(witness.q, [1, 0, 0])
    assert math.isinf(witness.rhs) and math.isfinite(witness.lhs)


@pytest.mark.parametrize(
    "w, v, used, p, q, divergence",
    [
        # second family (e_x, uniform), pairs 4-6
        (
            [[0.5, 0.2, 0.3], [0.3, 0.2, 0.5], [0.3, 0.2, 0.5]],
            [[0.5, 0.2, 0.3], [0.4, 0.3, 0.3], [0.4, 0.2, 0.4]],
            5, [0, 1, 0], [1 / 3, 1 / 3, 1 / 3], "kl",
        ),
        # third family (e_x, e_y), x != y row-major, pairs 7-12: W cannot
        # tell letters 1 and 2 apart and V can
        (
            [[0.1, 0.3, 0.6], [0.5, 0.3, 0.2], [0.5, 0.3, 0.2]],
            [[0.3, 0.2, 0.5], [0.4, 0.2, 0.4], [0.3, 0.4, 0.3]],
            10, [0, 1, 0], [0, 0, 1], "kl",
        ),
        # KL holds and chi-squared fails at pair 9, (e_1, e_0)
        (
            [[0.2, 0.2, 0.6], [0.2, 0.7, 0.1], [0.2, 0.7, 0.1]],
            [[0.1, 0.4, 0.5], [0.5, 0.3, 0.2], [0.4, 0.4, 0.2]],
            9, [0, 1, 0], [1, 0, 0], "chi2",
        ),
    ],
)
def test_less_noisy_sampled_boundary_order(w, v, used, p, q, divergence):
    # boundary pairs run (uniform, e_x), (e_x, uniform), then (e_x, e_y), and
    # samples_used is the 1-based position of the refuting pair
    verdict = less_noisy_sampled(Channel(w), Channel(v), samples=0)
    assert verdict.status is Status.FAILS and verdict.samples_used == used
    assert verdict.witness.divergence == divergence
    assert np.array_equal(verdict.witness.p, p) and np.array_equal(verdict.witness.q, q)


def _first_boundary_violation(wm, vm):
    """(1-based position, p, q, divergence, lhs, rhs) of the first refuting boundary pair, pair by pair."""
    q = len(wm)
    uniform, eye = np.full(q, 1.0 / q), np.eye(q)
    pairs = [(uniform, eye[x]) for x in range(q)] + [(eye[x], uniform) for x in range(q)]
    pairs += [(eye[x], eye[y]) for x in range(q) for y in range(q) if x != y]
    for position, (p, r) in enumerate(pairs, start=1):
        for name, divergence in (("kl", kl), ("chi2", chi2)):
            lhs = float(divergence(Pmf(p @ wm), Pmf(r @ wm)))
            rhs = float(divergence(Pmf(p @ vm), Pmf(r @ vm)))
            if rhs > lhs + DIVERGENCE_TOL * max(1.0, lhs):
                return position, p, r, name, lhs, rhs
    return None


def test_less_noisy_sampled_boundary_pass_matches_the_pair_by_pair_reference():
    # one array pass over all q^2 + q boundary pairs reports the same pair,
    # position and divergence values as trying them one at a time
    rng = np.random.default_rng(8)
    refuted = 0
    for _ in range(150):
        q, s = (int(n) for n in rng.integers(2, 7, size=2))
        wm = 0.98 * rng.dirichlet(np.full(s, 0.5), size=q) + 0.02 / s
        kind = rng.integers(4)
        if kind == 0:
            vm = wm @ rng.dirichlet(np.ones(s), size=s)
        elif kind == 1:
            vm = 0.98 * rng.dirichlet(np.full(s, 0.5), size=q) + 0.02 / s
        elif kind == 2:
            vm = wm[:, rng.permutation(s)]
        else:
            vm = erasure_channel(q, float(rng.uniform(0.1, 0.9))).matrix
        verdict = less_noisy_sampled(Channel(wm), Channel(vm), samples=0)
        expected = _first_boundary_violation(Channel(wm).matrix, Channel(vm).matrix)
        if expected is None:
            assert verdict.status is Status.UNDETERMINED and verdict.samples_used == q * q + q
            continue
        refuted += 1
        witness = verdict.witness
        assert verdict.status is Status.FAILS and verdict.samples_used == expected[0]
        assert np.array_equal(witness.p, expected[1]) and np.array_equal(witness.q, expected[2])
        assert (witness.divergence, witness.lhs, witness.rhs) == expected[3:]
    assert refuted >= 30


def test_less_noisy_sampled_rejects_a_negative_budget():
    # a negative budget once ran the boundary pairs and reported Undetermined
    w = Channel(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    v = Channel(w.matrix @ symmetric_channel(3, 0.2).matrix)
    with pytest.raises(ValueError, match="samples"):
        less_noisy_sampled(w, v, samples=-3)
    assert less_noisy_sampled(w, v, samples=0).status is Status.UNDETERMINED


def test_a_range_violation_inside_the_psd_band_is_not_refuted():
    # a tall W and V = (1 - eps) W K + eps N: V's form leaves W's range by
    # ~eps, but its smallest PSD eigenvalue is ~eps^2, inside the band.  A
    # range test once refuted this pair at the first sample with eigenvalue
    # -6e-15 against a band of -1e-9, a witness that shows no violation
    w = np.array([[0.8, 0.2], [0.4, 0.6], [0.2, 0.8], [0.5, 0.5]])
    k = np.array([[0.5, 0.3, 0.2], [0.4, 0.1, 0.5]])
    n = np.array([[0.3, 0.3, 0.4], [0.3, 0.5, 0.2], [0.3, 0.2, 0.5], [0.3, 0.3, 0.4]])
    eps = 1e-7
    verdict = less_noisy_sampled(w, (1 - eps) * (w @ k) + eps * n, samples=200)
    assert verdict.status is Status.UNDETERMINED and verdict.samples_used == 4**2 + 4 + 200


def test_less_noisy_sampled_identity_shortcut():
    rng = np.random.default_rng(3)
    assert less_noisy_sampled(Channel(np.eye(3)), random_channel(rng, 3)).dominates


def test_less_noisy_sampled_no_violation_when_degraded():
    verdict = less_noisy_sampled(
        symmetric_channel(3, 0.1), symmetric_channel(3, 0.2), samples=500, seed=7
    )
    assert verdict.status is Status.UNDETERMINED
    assert verdict.samples_used >= 500


def test_less_noisy_consistency_with_degradation():
    # degraded implies less noisy: neither test may refute it
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = int(rng.integers(2, 5))
        w = random_channel(rng, q)
        a = random_channel(rng, q)
        v = Channel(w.matrix @ a.matrix)
        assert is_degraded(w, v).dominates
        sampled = less_noisy_sampled(w, v, samples=60, seed=int(rng.integers(1 << 30)))
        assert sampled.status is not Status.FAILS
        try:
            exact = less_noisy_exact(w, v)
            assert exact.status is not Status.FAILS
        except SingularChannelError:
            pass


def test_exact_vs_sampled_agreement():
    # sampled witness search agrees with the exact verdict on failing pairs
    rng = np.random.default_rng(99)
    fails = 0
    found = 0
    dominates_checked = 0
    while fails < 25 or dominates_checked < 10:
        q = int(rng.integers(2, 7))
        w = random_channel(rng, q)
        v = random_channel(rng, q)
        try:
            exact = less_noisy_exact(w, v)
        except SingularChannelError:
            continue
        if exact.status is Status.FAILS and fails < 25:
            fails += 1
            sampled = less_noisy_sampled(w, v, samples=10_000, seed=fails)
            if sampled.status is Status.FAILS:
                found += 1
        elif exact.dominates and dominates_checked < 10:
            dominates_checked += 1
            sampled = less_noisy_sampled(w, v, samples=200, seed=dominates_checked)
            assert sampled.status is not Status.FAILS
    assert found >= 0.95 * fails


def test_loewner_gap():
    w = symmetric_channel(3, 0.2)
    u = uniform_pmf(3)
    assert loewner_gap(w, w, u) == pytest.approx(0.0, abs=1e-12)
    assert loewner_gap(w, symmetric_channel(3, 16 / 17), u) >= -1e-9
    assert loewner_gap(w, symmetric_channel(3, 0.1), u) < 0
    with pytest.raises(ValueError):
        loewner_gap(w, w, point_mass(3, 1))


def test_chi2_violation_pair_from_witness():
    w = symmetric_channel(3, 0.2)
    v = symmetric_channel(3, 0.1)
    verdict = less_noisy_exact(w, v)
    p, q, gap = chi2_violation_pair(w, v, verdict.witness)
    assert gap < 0
    direct = float(chi2(Pmf(p @ w.matrix), Pmf(q @ w.matrix))) - float(
        chi2(Pmf(p @ v.matrix), Pmf(q @ v.matrix))
    )
    assert direct == pytest.approx(gap, rel=1e-9)


def test_chi2_violation_pair_refuses_an_in_band_witness():
    # V is W with its outputs relabelled, an equivalent channel, so the PSD
    # comparison is 0 up to rounding.  This eigenpair of it has a
    # rounding-level eigenvalue; the closed form once turned it into a pair
    # at gap -7e-18
    w = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
    v = w[:, [1, 2, 0]]
    witness = LoewnerWitness(
        eigenvalue=-1.1102230246251565e-16,
        direction=np.array([-0.7071067811865475, 0.0, 0.7071067811865475]),
        pmf=np.array([0.34, 0.42, 0.24]),
    )
    assert witness.eigenvalue >= _psd_floor(_loewner_difference(w, v, witness.pmf))
    with pytest.raises(RuntimeError, match="band"):
        chi2_violation_pair(w, v, witness)


def test_chi2_violation_pair_near_delta_star():
    # W_delta 1e-7 above delta*(V) (bracket upper end 0.025663541605686287 at
    # tol 1e-10).  The witness pmf lies within 1e-6 of a vertex, and a search
    # over nine mixing weights toward uniform once raised RuntimeError here
    v = Channel(
        [
            [0.19325978676430752, 0.025015077994917246, 0.7817251352407752],
            [0.04132098961137428, 0.9251117848488215, 0.033567225539804166],
            [0.8759855277560956, 0.011568004578100881, 0.1124464676658035],
        ]
    )
    w = symmetric_channel(3, 0.025663641605686287)
    witness = less_noisy_exact(w, v).witness
    assert isinstance(witness, LoewnerWitness) and witness.pmf.max() > 1 - 1e-6
    p, q, gap = chi2_violation_pair(w, v, witness)
    assert np.array_equal(q, witness.pmf)
    assert p.min() > 0 and abs(p.sum() - 1.0) <= 1e-12
    assert gap < 0
    # p - q = step j / 2 with j = d - (sum d) q, and the gap is eigenvalue step^2 / 4
    d = witness.direction
    step = 2.0 * np.abs(p - q).max() / np.abs(d - d.sum() * q).max()
    assert gap == pytest.approx(witness.eigenvalue * step**2 / 4, rel=1e-6)
