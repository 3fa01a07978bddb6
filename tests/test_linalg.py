import numpy as np
import pytest

from helpers import cofactor_det
from spintransfer.linalg import (
    TridiagonalSymmetric,
    compound_matrix,
    dets,
    eig_tridiag,
    minor,
)


def test_two_site_closed_form():
    m = TridiagonalSymmetric(diag=[0.0, 0.0], offdiag=[0.5])
    dec = eig_tridiag(m)
    assert np.allclose(dec.eigenvalues, [-0.5, 0.5], atol=1e-14)


def test_diagonal_matrix_has_identity_eigenvectors():
    m = TridiagonalSymmetric(diag=[1.5] * 4, offdiag=[0.0] * 3)
    dec = eig_tridiag(m)
    assert np.allclose(dec.eigenvalues, 1.5)
    assert np.allclose(dec.eigenvectors, np.eye(4), atol=1e-14)


def test_uniform_five_site_band():
    # Open uniform chain: eigenvalues J cos(k pi / (N+1)), ascending.
    m = TridiagonalSymmetric(diag=np.zeros(5), offdiag=np.full(4, 0.5))
    dec = eig_tridiag(m)
    expected = np.sort(np.cos(np.arange(1, 6) * np.pi / 6.0))
    assert np.allclose(dec.eigenvalues, expected, atol=1e-12)
    brute = np.linalg.eigvalsh(m.dense())
    assert np.allclose(dec.eigenvalues, brute, atol=1e-12)


def test_single_site():
    dec = eig_tridiag(TridiagonalSymmetric(diag=[2.0], offdiag=[]))
    assert dec.eigenvalues.tolist() == [2.0]
    assert dec.eigenvectors.tolist() == [[1.0]]


@pytest.mark.parametrize("n", [2, 7, 33, 64])
def test_reconstruction_orthonormality_trace(n):
    rng = np.random.default_rng(1000 + n)
    m = TridiagonalSymmetric(diag=rng.normal(size=n), offdiag=rng.normal(size=n - 1))
    dec = eig_tridiag(m)
    a = m.dense()
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    for k in range(n):
        res = a @ dec.eigenvectors[:, k] - dec.eigenvalues[k] * dec.eigenvectors[:, k]
        assert np.max(np.abs(res)) <= 1e-10
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
    assert abs(dec.eigenvalues.sum() - m.diag.sum()) <= 1e-10


def test_sign_convention_and_determinism():
    rng = np.random.default_rng(7)
    m = TridiagonalSymmetric(diag=rng.normal(size=12), offdiag=rng.normal(size=11))
    a = eig_tridiag(m)
    b = eig_tridiag(m)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    for k in range(12):
        col = a.eigenvectors[:, k]
        first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert first > 0


def test_band_validation():
    with pytest.raises(ValueError):
        TridiagonalSymmetric(diag=[1.0, 2.0], offdiag=[0.1, 0.2])
    with pytest.raises(ValueError):
        TridiagonalSymmetric(diag=[], offdiag=[])
    with pytest.raises(ValueError):
        TridiagonalSymmetric(diag=[np.inf], offdiag=[])


def test_det_rejects_nonsquare():
    for shape in [(2, 3), (3, 1), (4, 2, 1), (3,)]:
        with pytest.raises(ValueError):
            dets(np.ones(shape))


def test_minor_single_entry_and_full_set():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert minor(a, [1], [2]) == pytest.approx(a[1, 2])
    assert minor(a, range(4), range(4)) == pytest.approx(np.linalg.det(a))


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_minor_matches_cofactor_expansion(size):
    rng = np.random.default_rng(40 + size)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for _ in range(10):
        rows = np.sort(rng.choice(6, size=size, replace=False))
        cols = np.sort(rng.choice(6, size=size, replace=False))
        got = minor(a, rows, cols)
        want = cofactor_det(a[np.ix_(rows, cols)])
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_minor_rejects_bad_indices():
    a = np.eye(4)
    with pytest.raises(ValueError):
        minor(a, [0, 1], [2])
    with pytest.raises(ValueError):
        minor(a, [0, 5], [1, 2])
    with pytest.raises(ValueError):
        minor(a, [2, 1], [0, 1])  # unsorted input is an error, not reordered
    with pytest.raises(ValueError):
        minor(a, [], [])
    with pytest.raises(ValueError):
        minor(np.ones((2, 3)), [0], [0])  # the matrix itself must be square


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_dets_of_a_stack_match_one_matrix_at_a_time(k):
    rng = np.random.default_rng(60 + k)
    stack = rng.standard_normal((2, 3, k, k)) + 1j * rng.standard_normal((2, 3, k, k))
    got = dets(stack)
    assert got.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            want = stack[i, j, 0, 0] if k == 1 else np.linalg.det(stack[i, j])
            assert got[i, j] == want
    assert dets(stack[:0]).shape == (0, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_compound_matrix_one_excitation_block_is_the_matrix(n):
    """The 1 x 1 minors are the entries themselves, not LU's rounding of them."""
    rng = np.random.default_rng(70 + n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.array_equal(compound_matrix(x)[1 : n + 1, 1 : n + 1], x)
