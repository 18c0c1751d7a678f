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
_A_ROWS = [_A[i, :i].tolist() for i in range(7)]
_B5_ROW, _B4_ROW = _B5.tolist(), _B4.tolist()


# step attempts, accepted or rejected, before rk45 gives up
MAX_ITER = 100000


def _max(v: list) -> float:
    """The largest of the floats v, or nan if one is nan, as numpy's max."""
    m = v[0]
    for w in v:
        if w > m or w != w:
            m = w
    return m


def rk45(f, x0, s_end, atol=1e-9, rtol=1e-9, stop=None, max_step=np.inf,
         record=None):
    """Integrate dx/ds = f(x) from s=0 to s_end (s_end > 0).

    x0 is one state (d,) or a batch (N, d) that shares the steps. stop(x) > 0
    means keep going; the first sign change is localized by bisection on the
    continuous extension of the step that crosses it, and integration halts
    there. A field that raises ValueError (such as a DomainError) or
    ArithmeticError at a trial point halves the step; any other exception,
    and a field value of the wrong shape, propagates. record(s, x), if given,
    gets each accepted point, x a new array each time. Returns (s, x,
    stopped).

    A step works on the state and the stage slopes as flat lists of Python
    floats, since numpy's per-call overhead dominates on the program's small
    states. Every sum adds in row order: a stage point is
    x + (h a_i0) k_0 + (h a_i1) k_1 + ..., and x5 and x4 are
    x + h (0 + b_0 k_0 + b_1 k_1 + ...), so the steps equal those of a loop
    of numpy additions bit for bit, for every state size. A one-element
    state's stage points round differently from the array sums that rk45
    used before, which added them in another order; no flow of the program
    has a one-element state. The error norm is the largest |x5 - x4|, nan if
    one is nan, as numpy's max. The dense output of a step that crosses the
    stop event is the array product K @ _P over the stage axis of K.
    """
    x = np.array(x0, dtype=float)
    s_end = float(s_end)   # numpy scalars would slow the float sums
    shape = x.shape
    xs = x.ravel().tolist()
    flat = x.ndim == 1     # an array of a list needs no reshape
    s = 0.0
    h = min(max_step, s_end / 8 if s_end > 0 else 1e-3, 0.1)
    h = max(h, 1e-12)
    g0 = stop(x) if stop is not None else 1.0
    for _ in range(MAX_ITER):
        if s >= s_end:
            return s, x, False
        h = min(h, s_end - s)
        ks = []      # the stage slopes, flattened
        for row in _A_ROWS:
            xi = []
            for e, v in enumerate(xs):
                for a, k in zip(row, ks):
                    v += h * a * k[e]
                xi.append(v)
            try:
                k = np.asarray(f(np.array(xi) if flat else
                                 np.array(xi).reshape(shape)), dtype=float)
            except (ValueError, ArithmeticError):
                break
            if k.shape != shape:
                raise ValueError(f"field returned shape {k.shape} "
                                 f"for a state of shape {shape}")
            ks.append(k.ravel().tolist())
        if len(ks) < 7:
            h *= 0.5
            if h < 1e-14:
                return s, x, False
            continue
        x5, x4 = [], []
        for e, v in enumerate(xs):
            w5 = w4 = 0.0
            for b5, b4, k in zip(_B5_ROW, _B4_ROW, ks):
                w5 += b5 * k[e]
                w4 += b4 * k[e]
            x5.append(v + h * w5)
            x4.append(v + h * w4)
        err = _max([abs(a - b) for a, b in zip(x5, x4)])
        scale = atol + rtol * max(1.0, _max([abs(v) for v in x5]))
        if err > scale and h > 1e-13:
            h *= max(0.2, 0.9 * (scale / (err + 1e-300)) ** 0.2)
            continue
        x5a = np.array(x5) if flat else np.array(x5).reshape(shape)
        if stop is not None:
            g1 = stop(x5a)
            if g0 > 0 >= g1:
                # bisect the crossing on the step's dense output, then
                # integrate once from the step start to the located point
                Q = np.moveaxis(np.reshape(ks, (7,) + shape), 0, -1) @ _P
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
        x, xs = x5a, x5
        if record is not None:
            record(s, x)
        if err > 0:
            h *= min(5.0, 0.9 * (scale / (err + 1e-300)) ** 0.2)
        else:
            h *= 2.0
    return s, x, False
