import numpy as np
import pytest
import scipy.linalg

from helpers import cofactor_det
from spintransfer.amplitudes import total_transfer_amplitude, transfer_block_series
from spintransfer.basis import excitation_sector, sector_positions, subsets_by_excitation
from spintransfer.chain import ChainSpec, spectral
from spintransfer.linalg import compound_matrix, dets, eig_tridiag, minor


def _dense(diag, offdiag) -> np.ndarray:
    """The symmetric tridiagonal matrix with the given bands."""
    return np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)


def test_two_site_closed_form():
    dec = eig_tridiag(np.zeros(2), np.array([0.5]))
    assert np.allclose(dec.eigenvalues, [-0.5, 0.5], atol=1e-14)


def test_diagonal_matrix_has_identity_eigenvectors():
    dec = eig_tridiag(np.full(4, 1.5), np.zeros(3))
    assert np.allclose(dec.eigenvalues, 1.5)
    assert np.allclose(dec.eigenvectors, np.eye(4), atol=1e-14)


def test_uniform_five_site_band():
    # Open uniform chain: eigenvalues J cos(k pi / (N+1)), ascending.
    diag, offdiag = np.zeros(5), np.full(4, 0.5)
    dec = eig_tridiag(diag, offdiag)
    expected = np.sort(np.cos(np.arange(1, 6) * np.pi / 6.0))
    assert np.allclose(dec.eigenvalues, expected, atol=1e-12)
    brute = np.linalg.eigvalsh(_dense(diag, offdiag))
    assert np.allclose(dec.eigenvalues, brute, atol=1e-12)


def test_single_site():
    dec = eig_tridiag(np.array([2.0]), np.empty(0))
    assert dec.eigenvalues.tolist() == [2.0]
    assert dec.eigenvectors.tolist() == [[1.0]]


@pytest.mark.parametrize("n", [2, 7, 33, 64])
def test_reconstruction_orthonormality_trace(n):
    rng = np.random.default_rng(1000 + n)
    diag, offdiag = rng.normal(size=n), rng.normal(size=n - 1)
    dec = eig_tridiag(diag, offdiag)
    a = _dense(diag, offdiag)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    for k in range(n):
        res = a @ dec.eigenvectors[:, k] - dec.eigenvalues[k] * dec.eigenvectors[:, k]
        assert np.max(np.abs(res)) <= 1e-10
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
    assert abs(dec.eigenvalues.sum() - diag.sum()) <= 1e-10


def test_sign_convention_and_determinism():
    rng = np.random.default_rng(7)
    diag, offdiag = rng.normal(size=12), rng.normal(size=11)
    a = eig_tridiag(diag, offdiag)
    b = eig_tridiag(diag, offdiag)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    for k in range(12):
        col = a.eigenvectors[:, k]
        first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert first > 0


def test_band_validation():
    with pytest.raises(ValueError):
        eig_tridiag(np.array([1.0, 2.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        eig_tridiag(np.empty(0), np.empty(0))
    with pytest.raises(ValueError):
        eig_tridiag(np.array([np.inf]), np.empty(0))
    with pytest.raises(ValueError):
        eig_tridiag(np.eye(2), np.array([0.3]))
    with pytest.raises(ValueError):
        eig_tridiag(np.array(1.0), np.empty(0))  # a 0-d band
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            eig_tridiag(np.zeros(3), np.array([0.5, bad]))
    with pytest.raises(TypeError):
        eig_tridiag(np.zeros(2, dtype=complex), np.array([0.5]))
    with pytest.raises(TypeError):
        eig_tridiag(np.zeros(2), np.array([0.5j]))


@pytest.mark.parametrize("fields", [False, True])
def test_matches_scipy_banded_solver(fields):
    """The spectrum and, after the same sign fix, the eigenvectors of scipy's banded solver."""
    rng = np.random.default_rng(11 + fields)
    for n in range(1, 81):
        diag = rng.normal(size=n) if fields else np.zeros(n)
        offdiag = rng.uniform(0.01, 1.0, size=n - 1)
        w, v = scipy.linalg.eigh_tridiagonal(diag, offdiag)
        pivots = np.argmax(np.abs(v) > 1e-12, axis=0)
        v *= np.where(v[pivots, np.arange(n)] < 0, -1.0, 1.0)
        dec = eig_tridiag(diag, offdiag)
        assert np.max(np.abs(dec.eigenvalues - w)) <= 1e-13, n
        assert np.max(np.abs(dec.eigenvectors - v)) <= 1e-13, n


def test_det_rejects_nonsquare():
    # (300, 3, 3) is a time-first stack of 3 x 3 matrices: the matrix axes must lead
    for shape in [(2, 3), (3, 1), (4, 2, 1), (3,), (300, 3, 3)]:
        with pytest.raises(ValueError):
            dets(np.ones(shape))


@pytest.mark.parametrize("batch", [(), (5,), (2, 0)])
def test_dets_of_empty_matrices_are_one(batch):
    got = dets(np.ones((0, 0, *batch), dtype=complex))
    assert got.shape == batch
    assert np.all(got == 1.0)


@pytest.mark.parametrize("batch", [0, 1, 7, 1 << 14])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_dets_match_lu_on_both_sides_of_the_expansion_limit(k, batch):
    """Expansion (k <= 6) and LU (k >= 7) against numpy's LU, relative to the Hadamard bound."""
    rng = np.random.default_rng(10 * k + batch % 97)
    stack = rng.standard_normal((k, k, batch)) + 1j * rng.standard_normal((k, k, batch))
    got = dets(stack)
    assert got.shape == (batch,)
    want = np.linalg.det(np.moveaxis(stack, (0, 1), (-2, -1)))
    hadamard = np.prod(np.linalg.norm(stack, axis=1), axis=0)
    assert np.all(np.abs(got - want) <= 1e-14 * hadamard)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_minor_rejects_a_non_finite_matrix(bad):
    a = np.eye(3)
    a[2, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        minor(a, [0], [1])  # even where the kept entries are finite


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_exactly_singular_one_plus_block_has_zero_determinant(n):
    """det(I + B) for B = -I, and for B = -P with P a random rank-r projector, so I + B has rank n - r."""
    rng = np.random.default_rng(80 + n)
    blocks = [-np.eye(n, dtype=complex)]
    for r in range(1, n + 1):
        for _ in range(8):
            z = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            q = np.linalg.qr(z)[0]
            blocks.append(-(q @ q.conj().T))
    got = total_transfer_amplitude(np.stack(blocks, axis=-1))
    assert np.max(np.abs(got)) <= 1e-15


def _shifted_copy(stack: np.ndarray, shift: float) -> np.ndarray:
    out = stack.copy()
    for r in range(stack.shape[0]):
        out[r, r] += shift
    return out


@pytest.mark.parametrize("k", range(9))
def test_dets_shift_is_a_shifted_copy_bit_for_bit(k):
    """dets(x, shift) is dets(x + shift I) to the bit on both sides of the expansion limit, x untouched."""
    rng = np.random.default_rng(90 + k)
    stacks = [rng.standard_normal((k, k, 257)) + 1j * rng.standard_normal((k, k, 257))]
    if k:  # the sender -> receiver blocks of a scan, the stacks det(I + B) sees
        spec = ChainSpec.weak_coupling(3, k, 0.1)
        stacks.append(transfer_block_series(spectral(spec), k, np.linspace(0.0, 40.0, 301)))
    for x in stacks:
        before = x.copy()
        for shift in (1.0, -0.75):
            assert dets(x, shift=shift).tobytes() == dets(_shifted_copy(x, shift)).tobytes()
        assert total_transfer_amplitude(x).tobytes() == dets(_shifted_copy(x, 1.0)).tobytes()
        assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("k", range(1, 7))
def test_unshifted_expansion_reads_the_stack_as_it_is(k):
    """Without a shift the expansion takes every entry unchanged.

    A diagonal with real parts in [1, 2] survives x - I + I exactly, so
    shifting that stack back by 1 reproduces dets(x) to the bit; and a
    negative zero stays negative, which adding 0.0 would not keep.
    """
    rng = np.random.default_rng(70 + k)
    x = rng.standard_normal((k, k, 257)) + 1j * rng.standard_normal((k, k, 257))
    diag = np.arange(k)
    x[diag, diag] = rng.uniform(1.0, 2.0, (k, 257)) + 1j * x[diag, diag].imag
    assert dets(x).tobytes() == dets(_shifted_copy(x, -1.0), shift=1.0).tobytes()
    assert dets(x).tobytes() == dets(x, shift=0.0).tobytes()
    if k == 1:
        assert np.signbit(dets(np.full((1, 1, 3), -0.0)).real).all()


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_dets_of_a_stack_match_one_matrix_at_a_time(k):
    rng = np.random.default_rng(60 + k)
    stack = rng.standard_normal((k, k, 2, 3)) + 1j * rng.standard_normal((k, k, 2, 3))
    got = dets(stack)
    assert got.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert got[i, j] == dets(stack[:, :, i, j])
            if k == 1:
                assert got[i, j] == stack[0, 0, i, j]
    assert dets(stack[:, :, :0]).shape == (0, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_compound_matrix_one_excitation_block_is_the_matrix(n):
    """The 1 x 1 minors are the entries themselves, not LU's rounding of them."""
    rng = np.random.default_rng(70 + n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.array_equal(compound_matrix(x)[1 : n + 1, 1 : n + 1], x)


@pytest.mark.parametrize("r, c", [(2, 5), (3, 6)])
def test_compound_matrix_of_a_rectangular_matrix(r, c):
    """Entry (A, C) is det x[A, C] where |A| = |C| and 0 elsewhere, for r x c matrices."""
    rng = np.random.default_rng(10 * r + c)
    x = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
    got = compound_matrix(x)
    assert got.shape == (2**r, 2**c)
    for a, rows in enumerate(subsets_by_excitation(r)):
        for b, cols in enumerate(subsets_by_excitation(c)):
            if len(rows) != len(cols):
                assert got[a, b] == 0.0
            elif rows:
                sub = x[np.ix_(np.array(rows) - 1, np.array(cols) - 1)]
                assert abs(got[a, b] - np.linalg.det(sub)) <= 1e-14
            else:
                assert got[a, b] == 1.0


@pytest.mark.parametrize("r, c", [(1, 1), (2, 5), (3, 6), (4, 8)])
def test_compound_matrix_is_bit_identical_with_cached_positions(r, c):
    """Minors gathered through the cached sector positions equal those of per-call index arrays."""
    rng = np.random.default_rng(20 * r + c)
    x = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
    want = np.zeros((2**r, 2**c), dtype=complex)
    want[0, 0] = 1.0
    row = col = 1
    for k in range(1, r + 1):
        rows = np.array(excitation_sector(r, k)) - 1
        cols = np.array(excitation_sector(c, k)) - 1
        stack = x[rows.T[:, None, :, None], cols.T[None, :, None, :]]
        want[row : row + len(rows), col : col + len(cols)] = dets(stack)
        row, col = row + len(rows), col + len(cols)
    for _ in range(2):  # a first and a repeated (cached) call
        assert compound_matrix(x).tobytes() == want.tobytes()


def test_sector_positions_are_cached_and_read_only():
    positions = sector_positions(6, 3)
    assert positions is sector_positions(6, 3)
    assert np.array_equal(positions, np.array(excitation_sector(6, 3)) - 1)
    assert not positions.flags.writeable
    with pytest.raises(ValueError):
        positions[0, 0] = 5
    with pytest.raises(ValueError):
        sector_positions(2, 3)
