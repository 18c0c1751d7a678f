"""Compact adaptive Runge-Kutta (Dormand-Prince 5(4)) with event stopping."""

from __future__ import annotations

import numpy as np

_A = np.array([
    [0.0] * 7,
    [1 / 5] + [0.0] * 6,
    [3 / 40, 9 / 40] + [0.0] * 5,
    [44 / 45, -56 / 15, 32 / 9] + [0.0] * 4,
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729] + [0.0] * 3,
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
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
_POWERS = np.arange(4)


# step attempts, accepted or rejected, before rk45 gives up
MAX_ITER = 100000


def rk45(f, x0, s_end, atol=1e-9, rtol=1e-9, stop=None, max_step=np.inf,
         record=None):
    """Integrate dx/ds = f(x) from s=0 to s_end (s_end > 0).

    x0 is one state (d,) or a batch (N, d) that shares the steps. stop(x) > 0
    means keep going; the first sign change is localized by bisection on the
    continuous extension of the step that crosses it, and integration halts
    there. A field that raises ValueError (such as a DomainError) or
    ArithmeticError at a trial point halves the step; any other exception,
    and a field value of the wrong shape, propagates. Returns (s, x, stopped).

    The stage slopes go into one buffer K. Each stage point is the sum, in
    row order, of x and the products (h a_ij) k_j, and x5 and x4 the sums of
    0 and the products b_j k_j, as one `np.add.reduce` over a work buffer.
    For a state of two or more elements that reduce adds its rows in order;
    for a one-element state numpy sums the rows after the first on their own,
    which can round differently in the last bit.
    """
    x = np.array(x0, dtype=float)
    s = 0.0
    h = min(max_step, s_end / 8 if s_end > 0 else 1e-3, 0.1)
    h = max(h, 1e-12)
    g0 = stop(x) if stop is not None else 1.0
    ones = (1,) * x.ndim     # the coefficients broadcast over the state
    A = _A.reshape((7, 7) + ones)
    B5, B4 = _B5.reshape((7,) + ones), _B4.reshape((7,) + ones)
    K = np.empty((7,) + x.shape)
    W = np.empty((8,) + x.shape)     # x, then the stage products
    WB = np.zeros((8,) + x.shape)    # 0, then the weighted slopes
    for _ in range(MAX_ITER):
        if s >= s_end:
            return s, x, False
        h = min(h, s_end - s)
        hA = h * A
        W[0] = x
        ok = True
        for i in range(7):
            np.multiply(hA[i, :i], K[:i], out=W[1:i + 1])
            xi = np.add.reduce(W[:i + 1], axis=0)
            try:
                k = np.asarray(f(xi), dtype=float)
            except (ValueError, ArithmeticError):
                ok = False
                break
            if k.shape != x.shape:
                raise ValueError(f"field returned shape {k.shape} "
                                f"for a state of shape {x.shape}")
            K[i] = k
        if not ok:
            h *= 0.5
            if h < 1e-14:
                return s, x, False
            continue
        np.multiply(B5, K, out=WB[1:])
        x5 = x + h * np.add.reduce(WB, axis=0)
        np.multiply(B4, K, out=WB[1:])
        x4 = x + h * np.add.reduce(WB, axis=0)
        err = np.abs(x5 - x4).max()
        scale = atol + rtol * max(1.0, float(np.abs(x5).max()))
        if err > scale and h > 1e-13:
            h *= max(0.2, 0.9 * (scale / (err + 1e-300)) ** 0.2)
            continue
        if stop is not None:
            g1 = stop(x5)
            if g0 > 0 >= g1:
                # bisect the crossing on the step's dense output, then
                # integrate once from the step start to the located point
                Q = K.T @ _P
                lo, hi = 0.0, h
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    sig = mid / h
                    xm = x + h * (Q @ (sig * sig ** _POWERS))
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
