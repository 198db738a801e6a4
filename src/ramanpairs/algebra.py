"""Flattening of the sixteen four-level transition operators and their product rules.

The atom has levels a, b, c, d.  Every operator |x><y| is addressed by a single
1-based index in row-major order (aa, ab, ac, ad, ba, ..., dd), so index 14 is
|d><b| and index 9 is |c><a|.  All other modules build on the operations here:
index lookup, Hermitian conjugation, the delta-contraction of operator products,
and the Kronecker lift of 4x4 matrices to 16x16 generators on that basis
(`lift` for a Hamiltonian, `dissipator` for a Lindblad channel).  Internal numpy
code uses the 0-based tables at the bottom; anything user-facing (CSV headers,
logs) sticks to the 1-based convention.
"""

from __future__ import annotations

import numpy as np

LEVELS = ("a", "b", "c", "d")
_RANK = {name: i for i, name in enumerate(LEVELS)}

N_LEVELS = 4
N_OPS = 16
_EYE = np.eye(N_LEVELS)

# Source rows of the field-operator solutions (1-based).
ROW_AC = 3    # feeds the anti-Stokes creation operator
ROW_BD = 8    # feeds the Stokes annihilation operator
ROW_CA = 9    # feeds the anti-Stokes annihilation operator
ROW_DB = 14   # feeds the Stokes creation operator
SOURCE_ROWS = (ROW_AC, ROW_BD, ROW_CA, ROW_DB)


def idx(x: str, y: str) -> int:
    """Return the 1-based index of |x><y|."""
    try:
        return 4 * _RANK[x] + _RANK[y] + 1
    except KeyError:
        bad = x if x not in _RANK else y
        raise ValueError(f"invalid level label {bad!r}, expected one of {LEVELS}") from None


def levels(m: int) -> tuple[str, str]:
    """Inverse of :func:`idx`."""
    _check_index(m)
    q, r = divmod(m - 1, 4)
    return LEVELS[q], LEVELS[r]


def dagger(m: int) -> int:
    """Index of the Hermitian conjugate: idx(x, y) -> idx(y, x)."""
    x, y = levels(m)
    return idx(y, x)


def contract(m: int, n: int) -> int | None:
    """Index of the operator product |x><y| |u><v|, or None when it vanishes.

    The product is |x><v| when y == u and zero otherwise.
    """
    x, y = levels(m)
    u, v = levels(n)
    if y != u:
        return None
    return idx(x, v)


def op(x: str, y: str) -> np.ndarray:
    """The 4x4 matrix |x><y|: row idx(x, y) - 1 of the 16x16 identity, read row-major."""
    return np.eye(N_OPS, dtype=complex)[idx(x, y) - 1].reshape(N_LEVELS, N_LEVELS)


def lift(h: np.ndarray) -> np.ndarray:
    """Generator of d<sigma_m>/dt = i<[h, sigma_m]>: i (h^T (x) 1 - 1 (x) h).

    Entry [m, n] is the coefficient of sigma_n in i [h, sigma_m] (row-major m).
    """
    h = np.asarray(h, dtype=complex)
    return 1j * (np.kron(h.T, _EYE) - np.kron(_EYE, h))


def dissipator(rate: float, jump: np.ndarray) -> np.ndarray:
    """Adjoint Lindblad generator rate (L* (x) L - (N^T (x) 1 + 1 (x) N) / 2), N = L^dag L.

    Entry [m, n] is the coefficient of sigma_n in rate (L^dag sigma_m L - {N, sigma_m} / 2).
    """
    jump = np.asarray(jump, dtype=complex)
    n = jump.conj().T @ jump
    return rate * (np.kron(jump.conj(), jump) - 0.5 * (np.kron(n.T, _EYE) + np.kron(_EYE, n)))


def _check_index(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= 16:
        raise ValueError(f"operator index must be an integer in 1..16, got {m!r}")


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    dag = np.empty(N_OPS, dtype=np.intp)
    con = np.full((N_OPS, N_OPS), -1, dtype=np.intp)
    for m in range(1, 17):
        dag[m - 1] = dagger(m) - 1
        for n in range(1, 17):
            p = contract(m, n)
            if p is not None:
                con[m - 1, n - 1] = p - 1
    return dag, con


# 0-based lookup tables for vectorized code: DAGGER0[i] is the conjugate index,
# CONTRACT0[i, j] is the product index with -1 marking a vanishing product.
DAGGER0, CONTRACT0 = _build_tables()

# 0-based positions of the four population operators |x><x|.
POPULATION0 = np.array([idx(x, x) - 1 for x in LEVELS], dtype=np.intp)
