"""DOP853, the explicit Runge-Kutta 8(5,3) pair of Dormand and Prince, in NumPy alone.

The tableau, step-size control and dense output of Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, 2nd ed., Sec. II.10, taken step
by step as scipy.integrate.solve_ivp(method="DOP853") takes them: the same
initial step, the same error norm and step factors, and the same seventh-degree
interpolant at the output times.  On the verifier's preset points the two make
the same number of right-hand-side evaluations and agree to rounding.  Only
the order of the floating-point sums differs: a stage sum is one product
(h A[s, :s]) @ K[:s], both error estimates come from one stacked product, and
a complex K enters every product through its float view.

Importing this module costs NumPy alone, where scipy.integrate brings
scipy.sparse, scipy.linalg, scipy.special and scipy.optimize with it.  The
Fock oracle (`oracle`) and the reference solve `atom.evolve_state` bind
`solve_ivp` from here, and `propagator` binds it too, so that each module's
solve can be wrapped on its own (perfbench/tracing.py does).
"""

from __future__ import annotations

import numpy as np

# The tableau: nodes C, stage weights A (rows 12 and 13-15: the order-8 solution, whose
# derivative is the next step's first stage, and the three extra stages of the dense output),
# the order-5 and order-3 error weights E5 and E3, and the interpolant's coefficients D.
C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((16, 16))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


# E3: B, the weights of the order-8 solution (row 12 of A), less those of the order-3 one
E3 = np.zeros(13)
E3[:12] = A[12, :12]
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(13)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

D = np.zeros((4, 16))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

_ERRORS = np.stack([E5, E3])  # both error estimates in one product
SAFETY = 0.9  # an accepted step's next size is SAFETY err^(-1/8) times its own...
MIN_FACTOR = 0.2  # ...cut by at most 5x after a rejection...
MAX_FACTOR = 10  # ...and grown by at most 10x after an acceptance
_EXPONENT = -1 / 8  # the controlled error estimate is of order 7
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
FINISHED = "The solver successfully reached the end of the integration interval."


class OdeResult:
    """A solve_ivp run: y[:, i] is the state at t[i]; status 0 reached t_span[1], -1 failed."""

    def __init__(self, t: np.ndarray, y: np.ndarray, nfev: int, status: int, message: str):
        self.t, self.y, self.nfev, self.status, self.message = t, y, nfev, status, message
        self.success = status >= 0


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(f, t0: float, y0: np.ndarray, f0: np.ndarray, span: float,
                  rtol: float, atol: float) -> float:
    """The first step size: one Euler probe sized from |y0|, |f0| and the change of f over it."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((f(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


def _dense(f, K_re: np.ndarray, ha: np.ndarray, tc: np.ndarray, h: float, y: np.ndarray,
           y_new: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The state at t + offsets, within a step [t, t + h], from its interpolant, (len(offsets), n).

    Evaluates the three extra stages into K[13:16], through K_re, the float
    view of the stages; K[:13] holds the step's stages and the derivative at
    its end, and ha, tc are h A and t + C h.
    """
    K = K_re.view(y.dtype)
    for s in range(13, 16):
        K[s] = f(tc[s], y + (ha[s, :s] @ K_re[:s]).view(y.dtype))
    dy = y_new - y
    F = np.empty((7, len(y)), dtype=y.dtype)
    F[0] = dy
    F[1] = h * K[0] - dy
    F[2] = 2 * dy - h * (K[12] + K[0])
    F[3:] = h * (D @ K_re).view(y.dtype)
    x = (offsets / h)[:, None]
    out = np.zeros((len(offsets), len(y)), dtype=y.dtype)
    for i, row in enumerate(F[::-1]):  # Horner form in x and 1 - x, alternately
        out += row
        out *= x if i % 2 == 0 else 1 - x
    return out + y


def solve_ivp(fun, t_span, y0, method: str = "DOP853", *, t_eval, rtol: float = 1e-3,
              atol: float = 1e-6) -> OdeResult:
    """Integrate dy/dt = fun(t, y) over t_span, forward, and give y at the times t_eval.

    y0 is a real or complex vector and the state keeps its kind.  t_eval
    must increase strictly within t_span; a point at t_span[0] is taken from
    the first step's interpolant, which reproduces y0 exactly.  rtol is used
    as given (SciPy raises one below 100 eps to that floor).  The run fails,
    with status -1 and the outputs reached so far, once a step would fall
    below 10 ulp of t, as it does when fun turns non-finite.
    """
    if method != "DOP853":
        raise ValueError(f"method: only 'DOP853' is implemented, got {method!r}")
    t, t_end = map(float, t_span)
    y = np.asarray(y0)
    dtype = complex if np.iscomplexobj(y) else float
    y = y.astype(dtype)
    t_eval = np.asarray(t_eval, dtype=float)
    if not t < t_end:
        raise ValueError(f"t_span must increase, got {t_span}")
    if y.ndim != 1 or y.size == 0 or not np.isfinite(y).all():
        raise ValueError("y0 must be a non-empty 1-d vector of finite numbers")
    if (t_eval.ndim != 1 or np.any(t_eval < t) or np.any(t_eval > t_end)
            or np.any(np.diff(t_eval) <= 0)):
        raise ValueError("t_eval must increase strictly within t_span")

    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=dtype)

    K = np.empty((16, y.size), dtype=dtype)  # the stages; K[12] is f at the step's end
    # the real tableau weighs the real and imaginary parts of a complex stage alike, so
    # every product runs on the float view of K, at half the work of a complex product
    K_re = K.view(float)
    K[0] = f(t, y)
    h_abs = _initial_step(f, t, y, K[0], t_end - t, rtol, atol)
    ts, ys, done = [], [], 0

    def result(status, message):
        return OdeResult(np.concatenate(ts) if ts else np.empty(0),
                         np.concatenate(ys).T if ys else np.empty((y.size, 0), dtype=dtype),
                         nfev, status, message)

    while t < t_end:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs = max(min_step, h_abs)  # min_step, too, if the initial step came out NaN
        rejected = False
        while True:
            if h_abs < min_step:
                return result(-1, TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            ha, tc = h * A, t + C * h
            for s in range(1, 13):
                dy = (ha[s, :s] @ K_re[:s]).view(dtype)
                K[s] = f(tc[s], y + dy)
            y_new = y + dy  # row 12 of A holds the order-8 weights B, and C[12] = 1
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            # divided as real numbers: a NaN stage then raises no invalid-value warning
            err = (_ERRORS @ K_re[:13]).reshape(2, y.size, -1) / scale[:, None]
            err5, err3 = np.linalg.norm(err.reshape(2, -1), axis=1) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h * err5 / np.sqrt((err5 + 0.01 * err3) * y.size)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            # a NaN error norm lands here too: max(0.2, nan) is 0.2
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _EXPONENT)
            rejected = True
        stop = np.searchsorted(t_eval, t_new, side="right")
        if stop > done:
            ts.append(t_eval[done:stop])
            ys.append(_dense(f, K_re, ha, tc, h, y, y_new, t_eval[done:stop] - t))
            done = stop
        t, y, K[0] = t_new, y_new, K[12]
    return result(0, FINISHED)
