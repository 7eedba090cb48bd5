"""Channel and symmetric-family tests."""

import numpy as np
import pytest

from channel_order.channels import (
    Channel,
    Pmf,
    SymmetricParam,
    additive_channel,
    channel_from_csv,
    channel_from_json,
    channel_to_csv,
    erasure_channel,
    pmf_from_csv,
    pmf_from_json,
    point_mass,
    push_forward,
    symmetric_channel,
    symmetric_compose_param,
    symmetric_eigenvalue,
    symmetric_inverse_param,
    symmetric_matrix,
    symmetric_noise_pmf,
    uniform_pmf,
)
from channel_order.groups import cyclic_group, direct_product


def klein_group():
    return direct_product(cyclic_group(2), cyclic_group(2))


# --- Pmf / Channel types ---------------------------------------------------


def test_pmf_renormalizes_small_drift():
    p = Pmf([0.5, 0.5 + 5e-10])
    assert abs(p.probs.sum() - 1.0) <= 1e-12


def test_pmf_rejects_large_drift_and_negatives():
    with pytest.raises(ValueError):
        Pmf([0.5, 0.5 + 1e-6])
    with pytest.raises(ValueError):
        Pmf([1.1, -0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pmf_and_channel_reject_non_finite_entries(bad):
    with pytest.raises(ValueError, match="must be a pmf"):
        Pmf([bad, 0.5, 0.5])
    with pytest.raises(ValueError, match="must be a pmf"):
        Channel([[0.8, 0.1, 0.1], [bad, 0.5, 0.5], [0.1, 0.1, 0.8]])


def test_rows_are_renormalized_one_by_one():
    # row sums off by 0 and 1e-13 (within SUM_TOL) are kept verbatim, rows off
    # by 5e-12 and 3e-10 (within RENORM_TOL) are divided by their own sums
    m = np.array([[0.25, 0.25, 0.5], [0.3, 0.2, 0.5 + 1e-13],
                  [0.1, 0.4, 0.5 + 5e-12], [0.6, 0.3 + 3e-10, 0.1]])
    got = Channel(m).matrix
    assert np.array_equal(got[:2], m[:2])
    assert np.array_equal(got[2:], m[2:] / m[2:].sum(axis=1, keepdims=True))
    assert np.all(np.abs(got.sum(axis=1) - 1.0) <= 1e-12)
    for i, row in enumerate(m):
        assert Pmf(row).probs.tobytes() == got[i].tobytes()
    with pytest.raises(ValueError, match="row 1 is"):
        Channel(np.vstack([m[0], [0.6, 0.3 + 2e-9, 0.1]]))
    with pytest.raises(ValueError, match="must be a pmf"):
        Pmf([0.6, 0.3 + 2e-9, 0.1])


def test_pmf_interior_predicate():
    assert uniform_pmf(3).is_interior()
    assert not point_mass(3, 0).is_interior()


def test_channel_rejects_zero_column():
    with pytest.raises(ValueError):
        Channel([[1.0, 0.0], [1.0, 0.0]])


def test_channel_rejects_bad_rows():
    with pytest.raises(ValueError):
        Channel([[0.6, 0.3], [0.5, 0.5]])


def test_doubly_stochastic_predicate():
    assert symmetric_channel(3, 0.2).is_doubly_stochastic()
    assert not erasure_channel(3, 0.5).is_doubly_stochastic()


# --- symmetric family ------------------------------------------------------


def test_symmetric_channel_bsc():
    got = symmetric_channel(2, 0.11).matrix
    assert np.allclose(got, [[0.89, 0.11], [0.11, 0.89]], atol=1e-15)


def test_symmetric_channel_q3_rows():
    got = symmetric_channel(3, 0.2).matrix
    expected = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    assert np.allclose(got, expected, atol=1e-15)


def test_symmetric_channel_rank_one_at_boundary():
    got = symmetric_channel(3, 2 / 3).matrix
    assert np.allclose(got, np.full((3, 3), 1 / 3), atol=1e-15)


def test_symmetric_channel_rejects_bad_delta():
    with pytest.raises(ValueError):
        symmetric_channel(3, 1.2)
    with pytest.raises(ValueError):
        symmetric_channel(1, 0.1)


def test_symmetric_matrix_any_real_delta():
    m = symmetric_matrix(3, -0.5)
    assert np.allclose(m.sum(axis=1), 1.0)
    assert np.allclose(m.sum(axis=0), 1.0)


def test_symmetric_channel_is_group_circulant_for_any_group():
    for group in (cyclic_group(4), klein_group()):
        got = additive_channel(group, symmetric_noise_pmf(4, 0.3)).matrix
        assert np.allclose(got, symmetric_channel(4, 0.3).matrix, atol=1e-15)


def test_generic_noise_depends_on_group_choice():
    noise = Pmf([0.55, 0.25, 0.15, 0.05])
    rows_cyclic = {tuple(np.round(r, 12)) for r in additive_channel(cyclic_group(4), noise).matrix}
    rows_klein = {tuple(np.round(r, 12)) for r in additive_channel(klein_group(), noise).matrix}
    assert rows_cyclic != rows_klein


def test_symmetric_eigenvalue_examples():
    assert symmetric_eigenvalue(3, 0.2) == pytest.approx(0.7, abs=1e-15)
    assert symmetric_eigenvalue(5, 0.0) == 1.0
    assert symmetric_eigenvalue(3, 2 / 3) == pytest.approx(0.0, abs=1e-15)


def test_symmetric_eigenvalue_matches_numerics():
    for q in (2, 3, 5):
        for delta in np.linspace(0.0, 1.0, 11):
            eig = np.sort(np.linalg.eigvalsh(symmetric_matrix(q, delta)))
            expected = np.sort(
                np.concatenate([[1.0], np.full(q - 1, symmetric_eigenvalue(q, delta))])
            )
            assert np.allclose(eig, expected, atol=1e-10)


def test_symmetric_inverse_param():
    tau = symmetric_inverse_param(3, 0.2)
    assert tau == pytest.approx(-2 / 7, abs=1e-12)
    assert np.allclose(
        symmetric_matrix(3, tau) @ symmetric_matrix(3, 0.2), np.eye(3), atol=1e-12
    )
    assert symmetric_inverse_param(4, 0.0) == 0.0
    assert symmetric_inverse_param(2, 0.11) == pytest.approx(-0.11 / 0.78, abs=1e-12)
    with pytest.raises(ValueError):
        symmetric_inverse_param(3, 2 / 3)


def test_symmetric_compose_param():
    # oracle: multiply the matrices and read the diagonal
    got = symmetric_compose_param(3, 0.2, 0.2)
    prod = symmetric_matrix(3, 0.2) @ symmetric_matrix(3, 0.2)
    assert got == pytest.approx(0.34, abs=1e-15)
    assert 1.0 - prod[0, 0] == pytest.approx(got, abs=1e-12)
    assert symmetric_compose_param(5, 0.0, 0.37) == pytest.approx(0.37, abs=1e-15)
    q = 4
    assert symmetric_compose_param(q, 0.3, (q - 1) / q) == pytest.approx(
        (q - 1) / q, abs=1e-12
    )


def test_symmetric_family_is_abelian_group():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = int(rng.integers(2, 6))
        eps, delta = rng.uniform(0, 1, size=2)
        tau = symmetric_compose_param(q, eps, delta)
        prod = symmetric_matrix(q, eps) @ symmetric_matrix(q, delta)
        assert np.allclose(prod, symmetric_matrix(q, tau), atol=1e-12)
        assert np.allclose(prod, symmetric_matrix(q, delta) @ symmetric_matrix(q, eps))


def test_symmetric_param_wrapper():
    p = SymmetricParam(3, 0.2)
    assert p.eigenvalue() == pytest.approx(0.7)
    assert p.compose(SymmetricParam(3, 0.2)).delta == pytest.approx(0.34)
    assert np.allclose(p.inverse().matrix() @ p.matrix(), np.eye(3), atol=1e-12)
    assert np.allclose(p.noise_pmf().probs, [0.8, 0.1, 0.1])


# --- other constructors -----------------------------------------------------


def test_erasure_channel_values():
    got = erasure_channel(2, 0.3).matrix
    assert np.allclose(got, [[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]], atol=1e-15)


def test_erasure_channel_drops_dead_columns():
    assert np.array_equal(erasure_channel(3, 0.0).matrix, np.eye(3))
    full = erasure_channel(3, 1.0).matrix
    assert full.shape == (3, 1)
    assert np.array_equal(full, np.ones((3, 1)))


def test_erasure_channel_rejects_bad_eps():
    with pytest.raises(ValueError):
        erasure_channel(3, 1.5)


def test_additive_channel_values():
    got = additive_channel(cyclic_group(3), Pmf([0.5, 0.3, 0.2])).matrix
    expected = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    assert np.allclose(got, expected, atol=1e-15)
    assert np.array_equal(
        additive_channel(cyclic_group(3), point_mass(3, 0)).matrix, np.eye(3)
    )


def test_push_forward():
    w = symmetric_channel(4, 0.37)
    assert np.allclose(push_forward(uniform_pmf(4), w).probs, np.full(4, 0.25))
    assert np.allclose(push_forward(point_mass(4, 2), w).probs, w.matrix[2])
    bsc = symmetric_channel(2, 0.11)
    assert np.allclose(push_forward(Pmf([0.5, 0.5]), bsc).probs, [0.5, 0.5])
    with pytest.raises(ValueError):
        push_forward(uniform_pmf(3), bsc)


# --- file I/O ----------------------------------------------------------------


def test_channel_csv_roundtrip():
    w = symmetric_channel(3, 0.2)
    again = channel_from_csv(channel_to_csv(w))
    assert np.allclose(again.matrix, w.matrix, atol=1e-15)


def test_channel_csv_rejects_ragged_rows():
    with pytest.raises(ValueError):
        channel_from_csv("0.5,0.5\n0.2,0.3,0.5\n")


def test_channel_json():
    w = channel_from_json('{"matrix": [[0.9, 0.1], [0.2, 0.8]]}')
    assert w.matrix.shape == (2, 2)


def test_pmf_files():
    assert np.allclose(pmf_from_csv("0.2, 0.3, 0.5\n").probs, [0.2, 0.3, 0.5])
    assert np.allclose(pmf_from_json('{"pmf": [0.25, 0.75]}').probs, [0.25, 0.75])
