import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import mss.magic
from mss.magic import c_closed_form, octahedron_distance
from mss.qcore import (ATOL_CONSTRUCT, ATOL_PSD, GATE_ATOL, I2, DensityMatrix, PureState, X, Y, Z,
                       _frozen, bloch, phase_gate, phase_plus, require_unitary, tensor,
                       trace_distance)
from mss.stabilizer import enumerate_stabilizer_states
from mss.tomo import CorrectedCounts
from mss.wigner import wigner_of

# Property tests draw the same examples on every run and keep no example database.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Clifford gates that only the tests' oracles apply.
H = _frozen(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
S = _frozen([[1, 0], [0, 1j]])

# The 1-qubit phase-point operators A_qp = (I + (-1)^p X + (-1)^(q+p) Y + (-1)^q Z)/2,
# written out from the formula: the oracle for mss.wigner's Pauli-coordinate table.
_A1 = {(q, p): _frozen(0.5 * (I2 + (-1) ** p * X + (-1) ** (q + p) * Y + (-1) ** q * Z))
       for q in (0, 1) for p in (0, 1)}


def phase_points(n_qubits: int) -> list:
    """All 4**n phase-space points, tuples of (q, p) pairs, in flat-index order."""
    return list(product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=n_qubits))


def phase_point_operator(point) -> np.ndarray:
    """Hermitian trace-1 operator A_point, the Kronecker product of the
    1-qubit ones (not PSD: 1-qubit eigenvalues (1 +- sqrt(3))/2); read-only
    for one qubit, a fresh array for more."""
    point = tuple((int(q), int(p)) for q, p in point)
    if not point or any(q not in (0, 1) or p not in (0, 1) for q, p in point):
        raise ValueError(f"invalid phase point {point!r}")
    out = _A1[point[0]]
    for qp in point[1:]:  # the Kronecker product out (x) A_qp as one broadcast multiply
        d = 2 * len(out)
        out = (out[:, None, :, None] * _A1[qp][:, None, :]).reshape(d, d)
    return out


@lru_cache(maxsize=None)
def operator_stack(n_qubits: int) -> np.ndarray:
    """All 4**n phase-point operators in flat-index order, built once per n, read-only."""
    ops = np.stack([phase_point_operator(pt) for pt in phase_points(n_qubits)])
    ops.setflags(write=False)
    return ops


def exact_corrected_counts(phi: float, basis: str, n_eff: float) -> CorrectedCounts:
    """The recipient's noise-free expectations in ``basis`` as pseudo-counts
    (the infinite-shot limit)."""
    e = {"X": math.cos(phi), "Y": math.sin(phi), "Z": 0.0}[basis]
    return CorrectedCounts(basis_label=basis, n0=(1 + e) / 2 * n_eff, n1=(1 - e) / 2 * n_eff)


def closed_form_eta(p1: float, p2: float, readout_error: float) -> float:
    """Length of the recipient's post-selected, corrected Bloch vector under
    NoiseModel.symmetric: three readouts, the five 1-qubit gates on its path
    (H, P(phi), the dealer's rotation, the middle party's H and the
    recipient's basis rotation) and two CX, each shrinking it by its
    channel's factor."""
    return (1 - 2 * readout_error) ** 3 * (1 - 4 * p1 / 3) ** 5 * (1 - 16 * p2 / 15) ** 2


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits: the statevector oracle for
    the protocol's Pauli-coefficient register."""
    if n < 1:
        raise ValueError("n must be positive")
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(amps)


def apply_1q(state: PureState, gate: np.ndarray, target: int) -> PureState:
    """Apply a single-qubit unitary to ``target`` of a pure register.

    The gate contracts with the target axis as one ``np.dot`` with the
    amplitudes viewed as (2, rest), the target axis first: the call, and the
    operand layout, that ``np.tensordot(gate, psi, ([1], [target]))`` makes
    internally, so the result is bit-identical to it without its axis
    bookkeeping.
    """
    n = state.n_qubits
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for {n} qubits")
    lead = state.amps.reshape(2 ** target, 2, -1).swapaxes(0, 1)
    out = np.dot(require_unitary(gate), lead.reshape(2, -1)).reshape(lead.shape)
    return PureState(out.swapaxes(0, 1).reshape(-1))


def fidelity(rho: DensityMatrix, psi: PureState) -> float:
    """<psi| rho |psi> for a mixed state against a pure reference: the matrix
    formula, the oracle for the Bloch-vector closed forms."""
    if rho.n_qubits != psi.n_qubits:
        raise ValueError("qubit counts differ")
    val = complex(psi.amps.conj() @ rho.mat @ psi.amps)
    if abs(val.imag) > ATOL_CONSTRUCT:
        raise ValueError("fidelity has imaginary part above 1e-12")
    return float(val.real)


def reference_density_error(mat) -> str | None:
    """The message DensityMatrix raises for a square power-of-two matrix, or
    None: its checks in order through numpy's general path (eigvalsh and
    np.trace), the oracle for the closed-form 2x2 path."""
    m = np.asarray(mat, dtype=complex)
    if not np.all(np.isfinite(m.view(float))):
        return "entries contain NaN/Inf"
    if np.max(np.abs(m - m.conj().T)) > ATOL_CONSTRUCT:
        return "matrix is not Hermitian within 1e-12"
    if abs(np.trace(m).real - 1.0) > ATOL_CONSTRUCT or abs(np.trace(m).imag) > ATOL_CONSTRUCT:
        return "trace is not 1 within 1e-12"
    if np.linalg.eigvalsh(m).min() < -ATOL_PSD:
        return "matrix has an eigenvalue below -1e-10"
    return None


def reference_unitary_error(gate) -> str | None:
    """The message require_unitary raises for a 2x2 gate, or None, through the
    matrix product g^dagger g - I at GATE_ATOL; an entry that overflows to
    NaN fails."""
    g = np.asarray(gate, dtype=complex)
    if not np.all(np.isfinite(g.view(float))):
        return "gate contains non-finite entries"
    if not np.all(np.abs(g.conj().T @ g - I2) <= GATE_ATOL):
        return "gate is not unitary within tolerance"
    return None


def reference_bloch(rho: DensityMatrix) -> np.ndarray:
    """(tr(rho X), tr(rho Y), tr(rho Z)) by matrix products and traces."""
    vals = np.array([np.trace(rho.mat @ P) for P in (X, Y, Z)])
    assert np.max(np.abs(vals.imag)) <= ATOL_CONSTRUCT
    return vals.real


def reference_history(t: np.ndarray, bits) -> np.ndarray:
    """The Bloch history read one step at a time from the statevector branch
    tensor ``t`` (:func:`reference_branch_tensor`): the register after step j
    is the slice ``t[bits[:j]]``, and every axis of it is read with its own
    Gram matrix, mapped back from the H frame for all but the recipient."""
    n = t.ndim
    history = np.zeros((n, n, 3))
    for step in range(n):
        s = t[tuple(bits[:step])]
        for axis in range(n - step):
            pair = np.moveaxis(s, axis, 0).reshape(2, -1)
            g = pair @ pair.conj().T
            x, y, z = 2 * g[0, 1].real, -2 * g[0, 1].imag, (g[0, 0] - g[1, 1]).real
            b = np.array([x, y, z] if axis == n - step - 1 else [z, -y, x])
            history[step, step + axis] = b / np.trace(g).real
    return history


def dyadic_register(n: int, rng: np.random.Generator) -> np.ndarray:
    """A (4,)*n Pauli tensor with no GHZ structure: multiples of 1/8 in
    [-1, 1] and the identity term 2^(n+1).  It need not be a state, but
    every run of broadcasts keeps a positive identity term and every Bloch
    vector within 1/sqrt(3) of the origin, and every float step on it is
    exact up to the final divisions."""
    r = rng.integers(-8, 9, size=(4,) * n) / 8
    r.flat[0] = 2 ** (n + 1)
    return r


def reference_exact_branches(r: np.ndarray) -> dict:
    """{bits: (Bloch history, branch probability, Z-corrected final Bloch
    vector)} for every branch (bits 1 for "-") of the Pauli tensor ``r``, in
    exact fractions, one broadcast at a time: the party in front leaves
    (r[I, ...] + s r[X, ...]) / 2 with s = +-1, and a party's Bloch vector is
    its weight-1 terms over the identity term, each rounded once to a float."""
    n = r.ndim

    def walk(terms, bits, history):
        step, m = len(bits), n - len(bits)
        history = history.copy()
        for axis in range(m):
            for p in (1, 2, 3):
                key = tuple(p if a == axis else 0 for a in range(m))
                history[step, step + axis, p - 1] = float(terms[key] / terms[(0,) * m])
        if m == 1:
            flip = -1 if sum(bits) % 2 else 1
            return {bits: (history, float(terms[(0,)]), history[-1, -1] * (flip, flip, 1))}
        branches = {}
        for bit, s in ((0, 1), (1, -1)):
            after = {key[1:]: (v + s * terms[(1,) + key[1:]]) / 2
                     for key, v in terms.items() if key[0] == 0}
            branches.update(walk(after, bits + (bit,), history))
        return branches

    return walk({key: Fraction(float(v)) for key, v in np.ndenumerate(r)}, (), np.zeros((n, n, 3)))


def reference_pauli_tensor(state: PureState) -> np.ndarray:
    """tr(rho P_{a_0} x ... x P_{a_{n-1}}) for every Pauli string, from the
    density matrix one qubit at a time: each qubit's (row, column) axis pair
    is traced against the four Paulis into a new trailing axis."""
    n = state.n_qubits
    t = np.outer(state.amps, state.amps.conj()).reshape((2,) * (2 * n))
    paulis = np.stack([I2, X, Y, Z])  # [a, j, i]: tr(rho P_a) = sum rho[i, j] P_a[j, i]
    for k in range(n):
        t = np.tensordot(t, paulis, axes=([0, n - k], [2, 1]))
    assert np.max(np.abs(t.imag)) <= ATOL_CONSTRUCT
    return t.real


def reference_security_report(transcript) -> dict:
    """{party: (step, Bloch vector, C, trace distance to I/2)}, one party at a
    time: the first step of largest |b| among those it held its qubit."""
    report = {}
    for party in range(transcript.n_parties - 1):
        held = transcript.bloch_history[:party + 1, party]
        step = int(np.argmax(np.linalg.norm(held, axis=1)))
        b = held[step]
        report[party] = (step, b, octahedron_distance(b), float(np.linalg.norm(b)) / 2)
    return report


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


# +1 / -1 eigenvectors of each measurement basis; outcome 0 is the +1 branch.
_BASIS_VECTORS = {
    "Z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "X": (np.array([1, 1], dtype=complex) / np.sqrt(2),
          np.array([1, -1], dtype=complex) / np.sqrt(2)),
    "Y": (np.array([1, 1j], dtype=complex) / np.sqrt(2),
          np.array([1, -1j], dtype=complex) / np.sqrt(2)),
}


class ImpossibleBranchError(ValueError):
    """Requested a measurement outcome whose probability is below 1e-14."""


def project_measure(state: PureState, target: int, basis: str, outcome: int):
    """Projectively measure ``target`` in a Pauli basis and drop the qubit.

    The stepwise oracle for every read of a measurement branch: ``outcome`` 0
    is the +1 eigenvalue branch, 1 the -1 branch.  Returns ``(probability,
    post_state)`` where the post state is renormalised and the measured qubit
    is removed from the register (the register shrinks by one qubit,
    preserving the order of the others).
    """
    n = state.n_qubits
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for {n} qubits")
    if n < 2:
        raise ValueError("cannot remove the last qubit of a register")
    if basis not in _BASIS_VECTORS:
        raise ValueError(f"basis must be one of X, Y, Z, got {basis!r}")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    v = _BASIS_VECTORS[basis][outcome]
    psi = state.amps.reshape((2,) * n)
    proj = np.tensordot(v.conj(), psi, axes=([0], [target]))
    prob = float(np.vdot(proj, proj).real)
    if prob < 1e-14:
        raise ImpossibleBranchError(
            f"outcome {outcome} in basis {basis} has probability {prob:.3e}")
    return prob, PureState(proj.reshape(-1) / np.sqrt(prob))


def overlap2(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, the global-phase-insensitive pure-state fidelity."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit counts differ")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def reference_deliver_with_gate(gate) -> tuple[DensityMatrix, DensityMatrix]:
    """(2,3) run with ``gate`` on the dealer, measured one party at a time:
    (recipient's state after the dealer's and the middle party's "+",
    middle party's marginal right after the dealer's "+")."""
    _, after_dealer = project_measure(apply_1q(ghz(3), gate, 0), 0, "X", 0)
    _, delivered = project_measure(after_dealer, 0, "X", 0)
    return delivered.density(), partial_trace(after_dealer.density(), keep={0})


def reference_build_assemblage(phi: float) -> dict:
    """{(setting, outcome): (p, sigma)} for the dealer's X, Y and Z settings,
    measured one party at a time: the middle party's "+" first, checked
    against its Z-corrected "-", then the dealer.  Y outcome 0 is the -1
    eigenstate."""
    state = apply_1q(ghz(3), phase_gate(phi), 0)
    _, plus_branch = project_measure(state, 1, "X", 0)
    _, minus_branch = project_measure(state, 1, "X", 1)
    corrected = apply_1q(minus_branch, Z, 1)
    assert trace_distance(plus_branch.density(), corrected.density()) <= 1e-10
    members = {}
    for setting in ("X", "Y", "Z"):
        for outcome in (0, 1):
            prob, cond = project_measure(plus_branch, 0, setting,
                                         1 - outcome if setting == "Y" else outcome)
            members[(setting, outcome)] = (prob, cond.density())
    return members


def reference_branch_tensor(phi: float, n: int) -> np.ndarray:
    """The deferred-measurement branch tensor built one party at a time: H
    contracted with each of the axes of parties 0..n-2 of P(phi)_0 |GHZ_n> in
    turn, shape (2,)*n."""
    state = apply_1q(ghz(n), phase_gate(phi), 0)
    for axis in range(n - 1):
        state = apply_1q(state, H, axis)
    return state.amps.reshape((2,) * n)


def reference_magic_scan(phi_grid, n: int) -> list[tuple[float, float, float]]:
    """magic_scan point by point: the all-plus slice of a freshly built branch
    tensor, normalised into a density matrix whose Bloch vector gives C."""
    rows = []
    for phi in phi_grid:
        delivered = reference_branch_tensor(float(phi), n)[(0,) * (n - 1)]
        rho = DensityMatrix(np.outer(delivered, delivered.conj()) / np.vdot(delivered, delivered).real)
        rows.append((float(phi), c_closed_form(float(phi)), octahedron_distance(bloch(rho))))
    return rows


def reference_apply_on_axis(t: np.ndarray, axis: int, op: np.ndarray) -> np.ndarray:
    """A 2x2 operator on one axis of a (2,)*m tensor through ``np.tensordot``
    and ``np.moveaxis``: the form ``apply_1q``'s one-``dot`` kernel replaced,
    kept as its bit-for-bit oracle."""
    return np.moveaxis(np.tensordot(op, t, axes=([1], [axis])), 0, axis)


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


def oracle_states(n, rng, per_class):
    """Haar, Ginibre, P(a)|+> products (the T state or T x T first) and
    stabilizer mixtures, ``per_class`` of each."""
    stab = [s.density().mat for s in enumerate_stabilizer_states(n).states]
    for i in range(per_class):
        yield random_pure_state(n, rng).density()
        yield random_density(n, rng)
        angles = [np.pi / 4] * n if i == 0 else rng.uniform(0, 2 * np.pi, n)
        psi = phase_plus(angles[0])
        for a in angles[1:]:
            psi = tensor(psi, phase_plus(a))
        yield psi.density()
        chosen = rng.choice(len(stab), size=int(rng.integers(2, 5)), replace=False)
        yield DensityMatrix(sum(p * stab[j] for p, j in zip(rng.dirichlet(np.ones(len(chosen))),
                                                             chosen)))


def nearest_vertex(F, w):
    """The column of F nearest to w in L1, where the L1 fit starts."""
    return int(np.abs(w[:, None] - F).sum(axis=0).argmin())


def wigner_lp(rho):
    """The Wigner-distance LP of a 1- or 2-qubit state on mss.magic's tables,
    started at the nearest vertex: (A, w, vertex), the call wigner_distance
    makes for two qubits.  One qubit has a closed form, and its LP is kept
    here as that form's oracle."""
    w = wigner_of(rho)
    F, A = mss.magic._lp_constants(rho.n_qubits)
    return A, w, nearest_vertex(F, w)


def reference_witness_matrix(yvec, n: int) -> np.ndarray:
    """sum_alpha y_alpha A_alpha / 2**n through ``np.tensordot`` over the
    phase-point operators, made Hermitian: the oracle for the witness that
    mss.magic builds from its Pauli terms."""
    witness = np.tensordot(yvec, operator_stack(n), 1) / 2 ** n
    return (witness + witness.conj().T) / 2


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
