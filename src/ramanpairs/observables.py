"""Nonclassicality diagnostics derived from the moment series.

Two families of second moments feed the diagnostics and the distinction
matters for a single emitter:

* The Cauchy-Schwarz correlation comes from the Gaussian decorrelation of
  the fourth-order coincidence products,

      g_cs = (|<a_q a_k>|^2 + n_k n_q) / sqrt[(2 n_k^2)(2 n_q^2)],

  which is justified by the linearity of the operator solutions in their
  Gaussian inputs.  That premise covers exactly the linear (boundary +
  noise + initial) content of each moment, so g_cs, the normalized
  correlation g2 and the pair phase consume the `linear` family.  The
  decorrelation's other terms, |<a_q a_k^dag>|^2 in the numerator and
  |<a_k^2>|^2, |<a_q^2>|^2 in the denominator, are zero by the selection
  rules of the moments module.

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
    noise_fraction_k: np.ndarray
    noise_fraction_q: np.ndarray


def _linear_family(ms: MomentSeries):
    n_k = ms.n_k.linear.real
    n_q = ms.n_q.linear.real
    return n_k, n_q, ms.pair.linear


def _centered_total(ms: MomentSeries):
    """Centered full moments; the means are zero for any diagonal rho0."""
    mk, mq = ms.mean_k, ms.mean_q
    n_k = ms.n_k.total.real - np.abs(mk) ** 2
    n_q = ms.n_q.total.real - np.abs(mq) ** 2
    pair = ms.pair.total - mq * mk
    return n_k, n_q, pair


def cauchy_schwarz(ms: MomentSeries):
    """g_cs series plus the defined-flags where the denominator is above CS_FLOOR."""
    n_k, n_q, pair = _linear_family(ms)
    num = np.abs(pair) ** 2 + n_k * n_q
    den = np.sqrt((2.0 * n_k**2) * (2.0 * n_q**2))
    defined = den > CS_FLOOR
    g = np.full_like(den, np.nan)
    np.divide(num, den, out=g, where=defined)
    return g, defined


def duan(ms: MomentSeries):
    """Fixed-quadrature Duan parameter and its phase-optimized lower envelope."""
    n_k, n_q, pair = _centered_total(ms)
    base = 2.0 + 2.0 * n_k + 2.0 * n_q
    return base + 4.0 * pair.real, base - 4.0 * np.abs(pair)


def g2_phase(ms: MomentSeries):
    """Normalized correlation g2 = 1 + |<a_q a_k>|^2 / (n_k n_q) and the pair phase phi_kq.

    With them the linear-family D reads
    2 (1 + n_k + n_q) + 4 sqrt(n_k n_q (g2 - 1)) cos phi_kq.
    g2 is decided only where n_k n_q > CS_FLOOR; below it g2 reads NaN, so a
    product at rounding level, which may come out of either sign, decides nothing.
    """
    n_k, n_q, pair = _linear_family(ms)
    prod = n_k * n_q
    g2 = np.full_like(prod, np.nan)
    np.divide(np.abs(pair) ** 2 + prod, prod, out=g2, where=prod > CS_FLOOR)
    return g2, np.angle(pair)


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
    g2, phi = g2_phase(ms)
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
        noise_fraction_k=frac_k,
        noise_fraction_q=frac_q,
    )
