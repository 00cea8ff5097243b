import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from mss.qcore import DensityMatrix, PureState

# Property tests draw the same examples on every run and keep no example database.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not listed in ``keep`` (indices kept in order).

    The independent oracle for single-party marginals: it works on the full
    density matrix, not on amplitudes."""
    n = rho.n_qubits
    keep_sorted = sorted(set(int(q) for q in keep))
    if not keep_sorted:
        raise ValueError("keep set must be nonempty")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError("keep set contains an out-of-range qubit")
    t = rho.mat.reshape((2,) * (2 * n))
    cur = n
    for q in sorted(set(range(n)) - set(keep_sorted), reverse=True):
        t = np.trace(t, axis1=q, axis2=q + cur)
        cur -= 1
    dim = 2 ** cur
    return DensityMatrix(t.reshape(dim, dim))


def random_pure_state(n: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state via normalised complex Gaussian amplitudes."""
    a = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return PureState(a / np.linalg.norm(a))


def random_density(n: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random mixed state: normalised Wishart-style G G^dagger."""
    dim = 2 ** n
    r = rank or dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    dim = 2 ** n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


@st.composite
def bloch_vectors(draw):
    """Bloch vectors built on a 1/2048 grid: inside the octahedron, on its
    surface (|b|_1 = 1 exactly), outside it (scaled onto the ball when longer
    than 1), and with one or two zero coordinates."""
    kind = draw(st.sampled_from(["interior", "surface", "outside", "zeros"]))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3)))
    if kind == "surface":
        a = draw(st.integers(0, 2048))
        b = draw(st.integers(0, 2048 - a))
        return signs * np.array([a, b, 2048 - a - b]) / 2048.0
    coords = np.array(draw(st.lists(st.integers(0, 2048), min_size=3, max_size=3))) / 2048.0
    if kind == "zeros":
        coords[draw(st.integers(0, 2))] = 0.0
        if draw(st.booleans()):
            coords[draw(st.integers(0, 2))] = 0.0
    v = signs * coords
    v = v / max(1.0, float(np.linalg.norm(v)))
    l1 = np.abs(v).sum()
    if kind == "interior" and l1 >= 1.0:
        v = v * (draw(st.integers(1, 1023)) / 1024.0) / l1
    if kind == "outside" and l1 <= 1.0 + 1e-6:
        v = np.array([1.0, 1.0, 1.0]) * signs / np.sqrt(3.0)
    return v
