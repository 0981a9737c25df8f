"""Shared helpers for the test suite: small operators and random instances."""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_string(label: str) -> np.ndarray:
    return kron_all(*(PAULI[c] for c in label))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


def random_diagonal(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    return np.diag(rng.normal(size=dim).astype(complex)) * scale


def random_decomposition_terms(
    rng: np.random.Generator, n: int, terms: int, scale: float = 1.0
) -> list[np.ndarray]:
    """Term 0 diagonal, the rest dense Hermitian; generic spectra."""
    dim = 2**n
    out = [random_diagonal(rng, dim, scale)]
    for _ in range(terms - 1):
        out.append(random_hermitian(rng, dim, scale))
    return out


# Spectrally tilted pair whose eigenbases reproduce the standard two-qubit
# worked example (computational basis vs Z-basis-on-qubit-0 / X-basis-on-
# qubit-1) with eigenvalues already ascending in tensor order, so the
# deterministic sorted gauge enumerates states exactly as that example does.
def tilted_example_pair() -> list[np.ndarray]:
    h0 = np.diag(np.array([0.0, 1.0, 2.0, 3.0], dtype=complex))
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    basis = [
        np.kron(e0, plus),
        np.kron(e0, minus),
        np.kron(e1, plus),
        np.kron(e1, minus),
    ]
    h1 = sum(float(k) * np.outer(v, v.conj()) for k, v in enumerate(basis))
    return [h0, np.asarray(h1)]


def random_smooth_system(rng, dim=3, terms=3, grid=64, max_freq=3):
    """Well-gapped diagonal base plus small smooth sinusoidal drives.

    Base gaps sit in [1.8, 2.6] and the total drive stays below 0.4, so
    eigenvalue curves never approach each other.  The derivative callback
    is analytic by construction.
    """
    from pathint.long_time import TimeDependentHamiltonian

    base = np.diag(np.cumsum(np.concatenate([[0.0], rng.uniform(1.8, 2.6, size=dim - 1)])))
    gens = []
    for _ in range(terms):
        g = random_hermitian(rng, dim)
        g = g * (0.12 / max(1.0, np.linalg.norm(g, 2)))
        freq = int(rng.integers(1, max_freq + 1))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        gens.append((g, freq, phase))

    def h(s):
        out = base.astype(complex).copy()
        for g, f, p in gens:
            out = out + np.sin(np.pi * f * s + p) * g
        return out

    def dh(s):
        out = np.zeros((dim, dim), dtype=complex)
        for g, f, p in gens:
            out = out + np.pi * f * np.cos(np.pi * f * s + p) * g
        return out

    return TimeDependentHamiltonian(dim=dim, h=h, dh=dh, grid=grid)


def class_edges(cells, k: int) -> set[tuple[int, int]]:
    """Edges (j, q) of select cell k: the side-0 columns it routes to q < N."""
    dim = cells.perm.shape[1] // 2
    return {(j, int(q)) for j, q in enumerate(cells.perm[k, :dim]) if q < dim}
