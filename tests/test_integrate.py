"""The buffered Dormand-Prince integrator against a per-stage reference.

`_rk45_reference` is the stage loop `integrate.rk45` replaced: each stage
point is built by in-place additions of (h a_ij) k_j, and x5 and x4 by
Python sums of b_j k_j. The buffered integrator must reproduce it bit for
bit on the program's flows: the vertex-chart legs of the 2D forms, which
stop at the chart boundary, and batched numeric Reeb flows.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liouville_lab import liouville2d, reeb3
from liouville_lab.integrate import _A, _B4, _B5, _P, rk45

_A_ROWS = [_A[i, :i].tolist() for i in range(7)]


def _rk45_reference(f, x0, s_end, atol=1e-9, rtol=1e-9, stop=None,
                    max_step=np.inf, record=None):
    x = np.array(x0, dtype=float)
    s = 0.0
    h = min(max_step, s_end / 8 if s_end > 0 else 1e-3, 0.1)
    h = max(h, 1e-12)
    g0 = stop(x) if stop is not None else 1.0
    for _ in range(100000):
        if s >= s_end:
            return s, x, False
        h = min(h, s_end - s)
        ks = []
        ok = True
        for i in range(7):
            xi = x.copy()
            for j, a in enumerate(_A_ROWS[i]):
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
        x5 = x + h * sum(b * k for b, k in zip(_B5.tolist(), ks))
        x4 = x + h * sum(b * k for b, k in zip(_B4.tolist(), ks))
        err = np.max(np.abs(x5 - x4))
        scale = atol + rtol * max(1.0, float(np.max(np.abs(x5))))
        if err > scale and h > 1e-13:
            h *= max(0.2, 0.9 * (scale / (err + 1e-300)) ** 0.2)
            continue
        if stop is not None:
            g1 = stop(x5)
            if g0 > 0 >= g1:
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
                sh, xh, _ = _rk45_reference(f, x, hi, atol, rtol, None)
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


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _run(integrator, f, x0, s_end, record=None, **kw):
    """(s, x, stopped) and every recorded (s, x) of one integration; the
    points also go on to `record`."""
    trail = []

    def keep(s, x):
        trail.append((s, x.copy()))
        if record is not None:
            record(s, x)
    s, x, stopped = integrator(f, x0, s_end, record=keep, **kw)
    return s, x, stopped, trail


def _assert_same_run(a, b):
    (s, x, stopped, trail), (s_r, x_r, stopped_r, trail_r) = a, b
    assert _bits(s) == _bits(s_r) and _bits(x) == _bits(x_r)
    assert stopped == stopped_r
    assert len(trail) == len(trail_r)
    for (si, xi), (si_r, xi_r) in zip(trail, trail_r):
        assert _bits(si) == _bits(si_r) and _bits(xi) == _bits(xi_r)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chart_legs_equal_the_stage_loop(radial4_form, pinwheel_form,
                                         periodic_form, data):
    # flows from points of a vertex chart run one chart leg each; both
    # integrators see the leg's own field, stop event and settings
    form = data.draw(st.sampled_from([radial4_form, pinwheel_form,
                                      periodic_form]))
    chart = form.charts[data.draw(st.integers(0, len(form.charts) - 1))]
    R = chart.R_max * data.draw(st.floats(0.02, 0.95))
    on_branch = data.draw(st.booleans())
    if on_branch:
        th = float(chart.branch_turns()[data.draw(
            st.integers(0, chart.m_branches - 1))])
    else:
        th = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    x = form.wrap(np.array(chart.ambient_xy(R, th)))
    # a collar chart's coordinate disc reaches past its ambient ball, the
    # chart's domain; from a point outside it the flow runs no chart leg
    assume(chart.contains(x))
    direction = data.draw(st.sampled_from([1, -1]))
    t_max = data.draw(st.floats(0.5, 20.0))

    legs = []

    def both(f, x0, s_end, record=None, **kw):
        ref = _run(_rk45_reference, f, x0, s_end, **kw)
        new = _run(rk45, f, x0, s_end, record, **kw)
        _assert_same_run(new, ref)
        legs.append(new)
        return new[:3]

    liouville2d.rk45 = both
    try:
        form.flow(x, t_max, direction)
    finally:
        liouville2d.rk45 = rk45
    assert legs


def test_chart_legs_cover_stop_events(radial4_form, monkeypatch):
    # off the branches, forward chart legs end at the chart boundary
    stopped = []

    def spy(f, x0, s_end, **kw):
        out = rk45(f, x0, s_end, **kw)
        stopped.append(out[2])
        return out

    monkeypatch.setattr(liouville2d, "rk45", spy)
    chart = radial4_form.charts[0]
    for th in (0.05, 0.3, 0.61, 0.9):
        x = np.array(chart.ambient_xy(0.5 * chart.R_max, th))
        radial4_form.flow(x, 10.0, 1)
    assert stopped and all(stopped)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), c=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1),
       spread=st.floats(0.0, 1.5))
def test_reeb_batches_equal_the_stage_loop(n, c, seed, spread):
    # the numeric Reeb flow's (N, 4) batches, as flow_numeric runs them
    S = reeb3.StarshapedHypersurface("bumped", (c,))
    rng = np.random.default_rng(seed)
    z = S.project(rng.standard_normal((n, 4)))
    tt = rng.uniform(-spread, spread, n)[:, None]

    def f(y):
        return tt * S.reeb(y)

    kw = dict(atol=reeb3.REEB_ATOL, rtol=reeb3.REEB_ATOL)
    _assert_same_run(_run(rk45, f, z, 1.0, **kw),
                     _run(_rk45_reference, f, z, 1.0, **kw))
    assert _bits(S.flow_numeric(z, tt[:, 0])) == _bits(_run(rk45, f, z, 1.0, **kw)[1])


@pytest.mark.parametrize("rows", [2, 3])
def test_batched_stop_event_is_located_on_the_batch(rows):
    # a constant field on an (N, 2) batch: y[0, 1] = 10 + 2 s meets the
    # stop level 11 at s = 1/2, where each row has moved by half its field
    v = np.arange(1.0, 2 * rows + 1).reshape(rows, 2)
    x0 = 10.0 * np.arange(2 * rows).reshape(rows, 2)
    s, x, stopped = rk45(lambda y: v, x0, 2.0, stop=lambda y: 11.0 - y[0, 1])
    assert stopped
    assert abs(s - 0.5) < 1e-12
    assert np.allclose(x, x0 + 0.5 * v, rtol=0.0, atol=1e-12)
