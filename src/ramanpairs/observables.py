"""Nonclassicality diagnostics derived from the moment series.

Two families of second moments feed the diagnostics and the distinction
matters for a single emitter:

* The Cauchy-Schwarz correlation comes from the Gaussian decorrelation of
  the fourth-order coincidence products,

      g_cs = (|<a_q a_k>|^2 + |<a_q^dag a_k>|^2 + n_k n_q)
             / sqrt[(|<a_k^2>|^2 + 2 n_k^2)(|<a_q^2>|^2 + 2 n_q^2)],

  which is justified by the linearity of the operator solutions in their
  Gaussian inputs.  That premise covers exactly the linear (boundary +
  noise + initial) content of each moment, so g_cs, the normalized
  correlation g2 and the phase relation below consume the `linear` family.

* The entanglement witness D is a statement about actual quadrature
  variances and is sufficient for any state, so it consumes the full
  moments including the initial-field backaction.  For the joint
  quadratures u = x_k + x_q, v = p_k - p_q (x = (a + a^dag)/sqrt2,
  p = (a - a^dag)/(i sqrt2)) the squeezing terms cancel between u and v,
  leaving, with centered moments,

      D = 2 + 2 n~_k + 2 n~_q + 4 Re<a_q a_k>_c,     entangled when D < 2,

  and the phase-optimized variant replaces the last term by -4 |<a_q a_k>_c|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import MomentSeries

CS_FLOOR = 1e-24
FRACTION_FLOOR = 1e-18


@dataclass
class ObservableSeries:
    times: np.ndarray
    n_k: np.ndarray
    n_q: np.ndarray
    g_cs: np.ndarray
    cs_defined: np.ndarray
    duan_d: np.ndarray
    duan_d_optimized: np.ndarray
    g2: np.ndarray
    phi_kq: np.ndarray
    relate_residual: np.ndarray
    relate_certified: np.ndarray
    noise_fraction_k: np.ndarray
    noise_fraction_q: np.ndarray


def _linear_family(ms: MomentSeries):
    n_k = ms.n_k.linear.real
    n_q = ms.n_q.linear.real
    return n_k, n_q, ms.pair.linear, ms.cross.linear, ms.square_k.linear, ms.square_q.linear


def _centered_total(ms: MomentSeries):
    """Centered full moments; the means are zero for any diagonal rho0."""
    mk, mq = ms.mean_k, ms.mean_q
    n_k = ms.n_k.total.real - np.abs(mk) ** 2
    n_q = ms.n_q.total.real - np.abs(mq) ** 2
    pair = ms.pair.total - mq * mk
    return n_k, n_q, pair


def cauchy_schwarz(ms: MomentSeries):
    """g_cs series plus the defined-flags where the denominator is above CS_FLOOR."""
    n_k, n_q, pair, cross, sq_k, sq_q = _linear_family(ms)
    num = np.abs(pair) ** 2 + np.abs(cross) ** 2 + n_k * n_q
    den = np.sqrt((np.abs(sq_k) ** 2 + 2.0 * n_k**2)
                  * (np.abs(sq_q) ** 2 + 2.0 * n_q**2))
    defined = den > CS_FLOOR
    g = np.full_like(den, np.nan)
    np.divide(num, den, out=g, where=defined)
    return g, defined


def duan(ms: MomentSeries):
    """Fixed-quadrature Duan parameter and its phase-optimized lower envelope."""
    n_k, n_q, pair = _centered_total(ms)
    base = 2.0 + 2.0 * n_k + 2.0 * n_q
    return base + 4.0 * pair.real, base - 4.0 * np.abs(pair)


def relate_check(ms: MomentSeries):
    """Residual of the D <-> g2 phase relation, with its certification mask.

    The relation reconstructs the Gaussian-family D from the normalized
    correlation and the pair phase; it closes exactly only where the
    phase-insensitive cross moment <a_q^dag a_k> vanishes, so the residual
    is certified small on that set and merely reported elsewhere.  The whole
    identity lives inside the linear family.  g2 and the certificate are
    decided only where n_k n_q > CS_FLOOR; below it g2 reads NaN and the
    flag False, so a product at rounding level, which may come out of either
    sign, decides neither.
    """
    n_k, n_q, pair, cross, _, _ = _linear_family(ms)
    prod = n_k * n_q
    defined = prod > CS_FLOOR
    g2 = np.full_like(prod, np.nan)
    np.divide(np.abs(pair) ** 2 + np.abs(cross) ** 2 + prod, prod, out=g2, where=defined)
    phi = np.angle(pair)
    excess = np.sqrt(np.abs(pair) ** 2 + np.abs(cross) ** 2)
    d_formula = 2.0 * (1.0 + n_k + n_q + 2.0 * excess * np.cos(phi))
    d_linear = 2.0 + 2.0 * n_k + 2.0 * n_q + 4.0 * pair.real
    residual = np.abs(d_formula - d_linear)
    certified = defined & (np.abs(cross) < 1e-10 * np.sqrt(np.abs(prod)))
    return residual, certified, g2, phi


def noise_fractions(ms: MomentSeries):
    """Noise share of the emitted photon numbers, NaN below FRACTION_FLOOR."""

    def fraction(split):
        boundary = split.boundary.real
        noise = split.noise.real
        total = boundary + noise
        out = np.full_like(total, np.nan)
        ok = total > FRACTION_FLOOR
        np.divide(noise, total, out=out, where=ok)
        return np.clip(out, 0.0, 1.0, out=out)

    return fraction(ms.n_k), fraction(ms.n_q)


def assemble_observables(ms: MomentSeries) -> ObservableSeries:
    g_cs, cs_defined = cauchy_schwarz(ms)
    duan_d, duan_opt = duan(ms)
    residual, certified, g2, phi = relate_check(ms)
    frac_k, frac_q = noise_fractions(ms)
    return ObservableSeries(
        times=ms.times,
        n_k=ms.n_k.total.real,
        n_q=ms.n_q.total.real,
        g_cs=g_cs,
        cs_defined=cs_defined,
        duan_d=duan_d,
        duan_d_optimized=duan_opt,
        g2=g2,
        phi_kq=phi,
        relate_residual=residual,
        relate_certified=certified,
        noise_fraction_k=frac_k,
        noise_fraction_q=frac_q,
    )
