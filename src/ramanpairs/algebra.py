"""Flattening of the sixteen four-level transition operators and their product rules.

The atom has levels a, b, c, d.  Every operator |x><y| is addressed by a single
1-based index in row-major order (aa, ab, ac, ad, ba, ..., dd), so index 14 is
|d><b| and index 9 is |c><a|.  All other modules build on the operations here:
index lookup, Hermitian conjugation, the delta-contraction of operator products,
the Kronecker lift of 4x4 matrices to 16x16 generators on that basis (`lift`
for a Hamiltonian, `dissipator` for a Lindblad channel), the eight-operator
sector SECTOR0 that the drift never couples to the rest, and the Hermitian
coordinates in which every such generator is a real matrix (`real_form`).
Internal numpy code uses the 0-based table at the bottom; anything
user-facing (CSV headers, logs) sticks to the 1-based convention.
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two 4x4 matrices: entry [4i + k, 4j + l] = a[i, j] b[k, l].

    One broadcast product, the same single multiplications np.kron makes,
    without its reshaping machinery.
    """
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(N_OPS, N_OPS)


def lift(h: np.ndarray) -> np.ndarray:
    """Generator of d<sigma_m>/dt = i<[h, sigma_m]>: i (h^T (x) 1 - 1 (x) h).

    Entry [m, n] is the coefficient of sigma_n in i [h, sigma_m] (row-major m).
    """
    h = np.asarray(h, dtype=complex)
    return 1j * (_kron(h.T, _EYE) - _kron(_EYE, h))


def dissipator(rate: float, jump: np.ndarray) -> np.ndarray:
    """Adjoint Lindblad generator rate (L* (x) L - (N^T (x) 1 + 1 (x) N) / 2), N = L^dag L.

    Entry [m, n] is the coefficient of sigma_n in rate (L^dag sigma_m L - {N, sigma_m} / 2).
    """
    jump = np.asarray(jump, dtype=complex)
    n = jump.conj().T @ jump
    return rate * (_kron(jump.conj(), jump) - 0.5 * (_kron(n.T, _EYE) + _kron(_EYE, n)))


def _check_index(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= 16:
        raise ValueError(f"operator index must be an integer in 1..16, got {m!r}")


def _build_tables() -> np.ndarray:
    con = np.full((N_OPS, N_OPS), -1, dtype=np.intp)
    for m in range(1, 17):
        for n in range(1, 17):
            p = contract(m, n)
            if p is not None:
                con[m - 1, n - 1] = p - 1
    return con


# 0-based lookup table for vectorized code: CONTRACT0[i, j] is the product
# index, with -1 marking a vanishing product.
CONTRACT0 = _build_tables()
_VANISHING = CONTRACT0 < 0
_GATHER = np.where(_VANISHING, 0, CONTRACT0)


def pair_table(x: np.ndarray) -> np.ndarray:
    """<X_m X_n> of x (..., 16): x at CONTRACT0[m, n], 0 where the product vanishes."""
    table = np.asarray(x)[..., _GATHER]
    table[..., _VANISHING] = 0.0
    return table


SECTOR0 = np.array([m - 1 for m in range(1, 17)
                    if (levels(m)[0] in "ab") != (levels(m)[1] in "ab")], dtype=np.intp)
"""0-based indices of the eight coherences between {a, b} and {c, d}.

In 1-based order these are ac, ad, bc, bd, ca, cb, da, db (3, 4, 7, 8, 9, 10, 13, 14).

Give each operator |x><y| the charge 1 when x and y lie in different groups
{a, b} and {c, d}, else 0.  The drift matrix conserves it for every drive,
chirp, detuning, rate and rho0: the pump couples c<->d and the control a<->b,
so a commutator with h keeps both groups; a jump L = |g><e| sends |x><y| to
L^dag |x><y| L, non-zero only for the population x = y = g, which lands on the
population |e><e|; the anticommutator with the diagonal L^dag L and the
diagonal dephasing keep every operator in place.  M(t) is therefore block
diagonal over this sector and its complement, and so are U(t, s) and its
inverse.  The four SOURCE_ROWS lie in the sector, so the field solutions read
only the sector block of the flow.
"""

SECTOR_HALF0 = np.array([m for m in SECTOR0 if levels(m + 1)[0] in "ab"], dtype=np.intp)
SECTOR_CONJ0 = np.array([dagger(m + 1) - 1 for m in SECTOR_HALF0], dtype=np.intp)
"""The sector split into ac, ad, bc, bd (SECTOR_HALF0) and their conjugates ca, da, cb, db.

The argument of SECTOR0, refined: every piece of the drift keeps the ket x of
|x><y| in its group, {a, b} or {c, d}, and the bra y in its own, so the
drift never couples the two halves.  The drift also maps the
conjugate of an expectation to the conjugate of its derivative (the master
equation preserves Hermiticity), so on the sector M(t) is block diagonal:
A(t) on SECTOR_HALF0 and conj(A(t)) on SECTOR_CONJ0, in this pairing.
"""


COMPLEMENT0 = np.array([m for m in range(N_OPS) if m not in SECTOR0], dtype=np.intp)
"""0-based indices of the eight operators outside SECTOR0: the populations, ab, ba, cd, dc."""


def _hermitian_frame() -> np.ndarray:
    """The columns of HERMITIAN, one block at a time: see its docstring."""
    eye = np.eye(N_OPS)
    columns = []
    for block in (SECTOR0, COMPLEMENT0):
        pairs = [(m, dagger(m + 1) - 1) for m in block if levels(m + 1)[0] < levels(m + 1)[1]]
        columns += [eye[m] for m in block if dagger(m + 1) == m + 1]
        columns += [eye[m] + eye[n] for m, n in pairs]
        columns += [1j * (eye[m] - eye[n]) for m, n in pairs]
    return np.stack(columns, axis=1)


HERMITIAN = _hermitian_frame()
"""X = HERMITIAN @ y: the sixteen expectations from sixteen real coordinates y.

Each pair X_m, X_m^dag of conjugate operators, m = |x><y| with x before y,
enters as y = Re X_m and y' = Im X_m (X_m = y + i y', X_m^dag = y - i y'),
each population as itself; for a Hermitian rho every y is real.  The sector
comes first, y[:8] = (Re, then Im, of SECTOR_HALF0), then the complement,
y[8:] = (aa, bb, cc, dd, Re ab, Re cd, Im ab, Im cd).
"""
HERMITIAN_INV = HERMITIAN.conj().T / np.sum(np.abs(HERMITIAN) ** 2, axis=0)[:, None]


def real_form(g: np.ndarray) -> np.ndarray:
    """Generators g (..., 16, 16) that preserve Hermiticity, in the coordinates of HERMITIAN.

    Real, and block diagonal over y[:8] and y[8:]; the sector block of a drift
    with halves A and conj(A) (see SECTOR_HALF0) is [[Re A, -Im A], [Im A, Re A]].
    """
    return (HERMITIAN_INV @ g @ HERMITIAN).real
