"""Compact adaptive Runge-Kutta (Dormand-Prince 5(4)) with event stopping."""

from __future__ import annotations

import numpy as np

_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
# quartic continuous extension (Shampine 1986): x(s + sigma h) =
# x + h * sum_i k_i * (P[i] @ [sigma, sigma^2, sigma^3, sigma^4])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


# step attempts, accepted or rejected, before rk45 gives up
MAX_ITER = 100000


def rk45(f, x0, s_end, atol=1e-9, rtol=1e-9, stop=None, max_step=np.inf,
         record=None):
    """Integrate dx/ds = f(x) from s=0 to s_end (s_end > 0).

    stop(x) > 0 means keep going; the first sign change is localized by
    bisection on the continuous extension of the step that crosses it, and
    integration halts there. A field that raises ValueError (such as a
    DomainError) or ArithmeticError at a trial point halves the step; any
    other exception propagates. Returns (s, x, stopped).
    """
    x = np.array(x0, dtype=float)
    s = 0.0
    h = min(max_step, s_end / 8 if s_end > 0 else 1e-3, 0.1)
    h = max(h, 1e-12)
    g0 = stop(x) if stop is not None else 1.0
    for _ in range(MAX_ITER):
        if s >= s_end:
            return s, x, False
        h = min(h, s_end - s)
        ks = []
        ok = True
        for i in range(7):
            xi = x.copy()
            for j, a in enumerate(_A[i]):
                xi += h * a * ks[j]
            try:
                ks.append(np.asarray(f(xi), dtype=float))
            except (ValueError, ArithmeticError):
                ok = False
                break
        if not ok:
            h *= 0.5
            if h < 1e-14:
                return s, x, False
            continue
        x5 = x + h * sum(b * k for b, k in zip(_B5, ks))
        x4 = x + h * sum(b * k for b, k in zip(_B4, ks))
        err = np.max(np.abs(x5 - x4))
        scale = atol + rtol * max(1.0, float(np.max(np.abs(x5))))
        if err > scale and h > 1e-13:
            h *= max(0.2, 0.9 * (scale / (err + 1e-300)) ** 0.2)
            continue
        if stop is not None:
            g1 = stop(x5)
            if g0 > 0 >= g1:
                # bisect the crossing on the step's dense output, then
                # integrate once from the step start to the located point
                Q = np.array(ks).T @ _P
                lo, hi = 0.0, h
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    sig = mid / h
                    xm = x + h * (Q @ (sig * sig ** np.arange(4)))
                    if stop(xm) > 0:
                        lo = mid
                    else:
                        hi = mid
                    if hi - lo < 1e-13 * max(1.0, abs(h)):
                        break
                sh, xh, _ = rk45(f, x, hi, atol, rtol, None)
                if record is not None:
                    record(s + hi, xh)
                return s + hi, xh, True
            g0 = g1
        s += h
        x = x5
        if record is not None:
            record(s, x)
        if err > 0:
            h *= min(5.0, 0.9 * (scale / (err + 1e-300)) ** 0.2)
        else:
            h *= 2.0
    return s, x, False
