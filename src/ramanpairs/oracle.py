"""Brute-force verifier: full master equation with quantized field modes.

The atom is joined to one truncated Stokes mode and one truncated anti-Stokes
mode and the joint density matrix is integrated under the rotating-frame
Hamiltonian

    H = -Delta_c |a><a| - Delta_p |d><d|
        - [Omega_p(t)|d><c| + Omega_c(t)|a><b| + g_k a_k |d><b| + g_q a_q |a><c| + h.c.]

plus the same radiative Lindblad channels as the drift matrix.  Moments come
out by direct trace, with no kernel machinery or noise tables anywhere in
this code path, so agreement with the moments pipeline certifies the whole
kernel construction.  The Hamiltonian and dissipators are assembled from raw
level projectors on purpose; the drift matrix lift is not reused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .atom import AtomConfig
from .errors import ConfigError, CutoffError, IntegrationError, check_tolerances
from .pulses import PulseSpec, rabi

_RANK = {"a": 0, "b": 1, "c": 2, "d": 3}


@dataclass(frozen=True)
class OracleConfig:
    """Truncation and coupling knobs of the verification run."""

    cutoff_k: int = 3
    cutoff_q: int = 3
    g_k: float = 0.01
    g_q: float = 0.01
    dim_cap: int = 256
    rtol: float = 1e-8
    atol: float = 1e-11
    leak_tol: float = 1e-4

    def __post_init__(self):
        if self.cutoff_k < 1 or self.cutoff_q < 1:
            raise ConfigError("Fock cutoffs must be >= 1")
        dim = 4 * (self.cutoff_k + 1) * (self.cutoff_q + 1)
        if dim > self.dim_cap:
            raise ConfigError(f"joint dimension {dim} exceeds cap {self.dim_cap}")
        check_tolerances(self.rtol, self.atol)
        # a NaN leak_tol would switch the truncation guard off (every comparison is False)
        if not np.isfinite(self.leak_tol) or self.leak_tol <= 0:
            raise ConfigError(f"leak_tol: must be finite and > 0, got {self.leak_tol}")
        for key in ("g_k", "g_q"):
            value = getattr(self, key)
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"{key}: must be finite and >= 0, got {value}")


@dataclass
class OracleMoments:
    """Trace moments of the joint run (totals only, no boundary/noise split)."""

    times: np.ndarray
    pair: np.ndarray
    cross: np.ndarray
    n_k: np.ndarray
    n_q: np.ndarray
    square_k: np.ndarray
    square_q: np.ndarray
    mean_k: np.ndarray
    mean_q: np.ndarray
    atom_traj: np.ndarray      # <sigma_xy> marginals, shape (n_times, 16)
    top_layer_k: np.ndarray
    top_layer_q: np.ndarray


def _destroy(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a


def _thermal(dim: int, n_th: float) -> np.ndarray:
    if n_th <= 0:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    ratio = n_th / (1.0 + n_th)
    weights = ratio ** np.arange(dim)
    weights /= weights.sum()
    return np.diag(weights).astype(complex)


def _level_op(x: str, y: str) -> np.ndarray:
    op = np.zeros((4, 4), dtype=complex)
    op[_RANK[x], _RANK[y]] = 1.0
    return op


def _decay_ops(atom: AtomConfig) -> list[tuple[float, np.ndarray]]:
    ops = []
    for (e, g, rate) in (("a", "b", atom.gamma_ab), ("a", "c", atom.gamma_ac),
                         ("d", "b", atom.gamma_db), ("d", "c", atom.gamma_dc)):
        if rate > 0:
            ops.append((rate, _level_op(g, e)))
    if atom.gamma_bc > 0:
        ops.append((0.5 * atom.gamma_bc, _level_op("b", "b") - _level_op("c", "c")))
    return ops


def oracle_moments(atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                   times: np.ndarray, cfg: OracleConfig | None = None) -> OracleMoments:
    """Integrate the joint master equation and trace out the listed moments.

    The couplings g_k, g_q come from cfg (the verifier chooses its own small
    values); everything else is shared with the kernel pipeline inputs.
    Raises CutoffError when the top Fock layer of either mode accumulates
    more than leak_tol of that mode's peak photon number.
    """
    cfg = cfg or OracleConfig()
    times = np.asarray(times, dtype=float)
    dim_k = cfg.cutoff_k + 1
    dim_q = cfg.cutoff_q + 1
    dim = 4 * dim_k * dim_q

    def embed(op4):
        return np.kron(np.kron(op4, np.eye(dim_k)), np.eye(dim_q))

    a_k = np.kron(np.kron(np.eye(4), _destroy(dim_k)), np.eye(dim_q))
    a_q = np.kron(np.kron(np.eye(4), np.eye(dim_k)), _destroy(dim_q))

    sig = {(x, y): embed(_level_op(x, y)) for x in _RANK for y in _RANK}

    h_static = (-control.detuning) * sig["a", "a"] + (-pump.detuning) * sig["d", "d"] \
        - cfg.g_k * (a_k @ sig["d", "b"] + a_k.conj().T @ sig["b", "d"]) \
        - cfg.g_q * (a_q @ sig["a", "c"] + a_q.conj().T @ sig["c", "a"])
    h_pump = -sig["d", "c"]
    h_ctrl = -sig["a", "b"]

    jumps = [(rate, embed(op), embed(op).conj().T @ embed(op))
             for rate, op in _decay_ops(atom)]

    rho0 = np.kron(np.kron(atom.rho0, _thermal(dim_k, atom.n_th_k)),
                   _thermal(dim_q, atom.n_th_q))

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        om_p = rabi(pump, t)
        om_c = rabi(control, t)
        h = h_static + om_p * h_pump + np.conj(om_p) * h_pump.conj().T \
            + om_c * h_ctrl + np.conj(om_c) * h_ctrl.conj().T
        drho = -1j * (h @ rho - rho @ h)
        for rate, op, opdag_op in jumps:
            drho += rate * (op @ rho @ op.conj().T
                            - 0.5 * (opdag_op @ rho + rho @ opdag_op))
        return drho.reshape(-1)

    sol = solve_ivp(rhs, (times[0], times[-1]), rho0.reshape(-1), method="RK45",
                    t_eval=times, rtol=cfg.rtol, atol=cfg.atol)
    if not sol.success:
        t_fail = float(sol.t[-1]) if sol.t.size else float(times[0])
        raise IntegrationError(f"oracle integration failed near t = {t_fail:.6g}: {sol.message}",
                               time=t_fail)
    rhos = sol.y.T.reshape(len(times), dim, dim)

    def expect(op):
        return np.einsum("tij,ji->t", rhos, op)

    n_k = expect(a_k.conj().T @ a_k).real
    n_q = expect(a_q.conj().T @ a_q).real

    proj_top_k = np.kron(np.kron(np.eye(4), np.diag(np.eye(dim_k)[-1])), np.eye(dim_q))
    proj_top_q = np.kron(np.kron(np.eye(4), np.eye(dim_k)), np.diag(np.eye(dim_q)[-1]))
    top_k = expect(proj_top_k).real
    top_q = expect(proj_top_q).real

    for label, top, n in (("Stokes", top_k, n_k), ("anti-Stokes", top_q, n_q)):
        scale = max(float(np.max(n)), 1e-300)
        worst = float(np.max(top))
        if worst > cfg.leak_tol * scale:
            raise CutoffError(
                f"{label} top Fock layer holds {worst:.3e}, more than "
                f"{cfg.leak_tol:.0e} of the peak photon number {scale:.3e}; "
                f"increase the cutoff")

    atom_traj = np.empty((len(times), 16), dtype=complex)
    for m, (x, y) in enumerate((x, y) for x in "abcd" for y in "abcd"):
        atom_traj[:, m] = expect(sig[x, y])

    return OracleMoments(
        times=times,
        pair=expect(a_q @ a_k),
        cross=expect(a_q @ a_k.conj().T),
        n_k=n_k.astype(complex),
        n_q=n_q.astype(complex),
        square_k=expect(a_k @ a_k),
        square_q=expect(a_q @ a_q),
        mean_k=expect(a_k),
        mean_q=expect(a_q),
        atom_traj=atom_traj,
        top_layer_k=top_k,
        top_layer_q=top_q,
    )


def atomic_liouvillian(atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                       t: float) -> np.ndarray:
    """Independent rebuild of the generator of d<sigma_xy>/dt at time t, g = 0.

    Applies the adjoint master equation to every basis operator |u><v| and
    reads off the expansion coefficients, so it shares no code with the
    drift-matrix lift.  Used to cross-check the drift assembly.
    """
    h4 = np.zeros((4, 4), dtype=complex)
    h4[_RANK["a"], _RANK["a"]] = -control.detuning
    h4[_RANK["d"], _RANK["d"]] = -pump.detuning
    om_p = rabi(pump, t)
    om_c = rabi(control, t)
    h4 += -om_p * _level_op("d", "c") - np.conj(om_p) * _level_op("c", "d")
    h4 += -om_c * _level_op("a", "b") - np.conj(om_c) * _level_op("b", "a")

    ops = _decay_ops(atom)
    gen_t = np.zeros((16, 16), dtype=complex)
    for col in range(16):
        u, v = divmod(col, 4)
        basis = np.zeros((4, 4), dtype=complex)
        basis[u, v] = 1.0  # sigma_uv = |u><v|
        out = 1j * (h4 @ basis - basis @ h4)
        for rate, op in ops:
            out += rate * (op.conj().T @ basis @ op
                           - 0.5 * (op.conj().T @ op @ basis + basis @ op.conj().T @ op))
        # out[x, y] is the sigma_xy coefficient of d sigma_uv / dt
        gen_t[:, col] = out.reshape(16)
    return gen_t.T.copy()
