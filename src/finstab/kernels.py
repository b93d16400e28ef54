"""Hot numerical kernels: the closed-loop field and the adaptive RK45 loop.

A law only ever reads P y, so its field is a fixed linear map of y plus one
scalar law.  controllers.assemble_kernel_args folds that map into one stacked
matrix per run (rows of A over the law's own rows); closed_loop_rhs applies
it with one mat-vec and evaluates the law named by the variant.
integrate_adaptive keeps the seven stage slopes of a step as the rows of one
block, so every stage state, the new state, the error estimate and the
dense-output term is one small product of a coefficient row with that block.
It steps by the error control alone and fills the sample grid from the
Dormand-Prince continuous extension, so the step count does not grow with
the number of samples; closed_loop_law then gives the filled samples their
control and V a block of rows at a time (fill_law).  A run with no law
(ZeroControl) never comes here: integrator.free_flow samples its linear flow
exactly, and fill_law gives it V.
Status codes: 0 completed, 3 stalled at dt_min.
"""
from __future__ import annotations

import math

import numpy as np

STATUS_OK = 0
STATUS_STALLED = 3

# Dormand-Prince 5(4) tableau.  Row i of _STAGE holds the weights of k1..k7
# in the state where stage i + 1 is evaluated; its last row is the 5th-order
# solution b, because k7 is the slope at the new state (first same as last).
_STAGE = np.array([
    [0.0] * 7,
    [1.0 / 5.0] + [0.0] * 6,
    [3.0 / 40.0, 9.0 / 40.0] + [0.0] * 5,
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0] + [0.0] * 4,
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0] + [0.0] * 3,
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0,
     0.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0],
])
# the 5th- minus the embedded 4th-order weights
_ERR = np.array([71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
                 22.0 / 525.0, -1.0 / 40.0])
# the r5 term of the free 4th-order continuous extension (Hairer's dopri5
# contd5; Hairer, Norsett, Wanner, Solving ODEs I, II.6)
_DENSE = np.array([-12715105075.0 / 11282082432.0, 0.0, 87487479700.0 / 32700410799.0,
                   -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
                   -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0])
_COEF = np.vstack([_STAGE, _ERR, _DENSE])   # scaled by the step once per attempt
_ROW_ERR, _ROW_DENSE = 7, 8
# filled samples whose law is evaluated together; bounds the block temporaries
_FILL_ROWS = 256


def phi_value(phi, py: np.ndarray, eps_dz: float):
    """Compensation phi(Py) for a PhiSpec, at one state or at each row of a block.

    WaveK is min(cap, max_i |pos_i| / max(|vel_i|, eps_dz)) over the first q
    oscillator blocks, pos_i = py[..., i] and vel_i = py[..., half + i].  Zero
    and Constant give one scalar for a block too.
    """
    if phi.kind == "Zero":
        return 0.0
    if phi.kind == "Constant":
        return phi.value
    if py.ndim == 1:
        # on Python floats: one state's q ratios cost less than seven ufunc calls
        vals = py.tolist()
        ratio = 0.0
        for i in range(phi.q):
            vel = abs(vals[phi.half + i])
            r = abs(vals[i]) / (vel if vel > eps_dz else eps_dz)
            if r > ratio:
                ratio = r
        return min(ratio, phi.cap)
    pos = np.abs(py[..., :phi.q])
    vel = np.maximum(np.abs(py[..., phi.half:phi.half + phi.q]), eps_dz)
    ratio = np.maximum.reduce(pos / vel, axis=-1)   # ndarray.max's Python wrapper costs more
    return np.minimum(ratio, phi.cap)


def closed_loop_rhs(y: np.ndarray, ops, latched: bool, field_only: bool = False):
    """Field A y plus the law's contribution; returns (dy, control, trigger, V, saturated),
    or dy alone when field_only is set.

    ops is a controllers.KernelOps.  trigger is the dead-zone variable (V,
    ||B P y||^2, ||w||^2 or |s| by variant); latched switches the singular
    control terms off for good.  The inner stages of a step need only dy,
    so field_only skips the control vector, V where the field does not need
    it, and the flags.
    """
    n = y.shape[0]
    spec = ops.spec
    law = spec.variant
    z = ops.stack @ y
    dy = z[:n]
    if law == "RankOne":
        # rows: A, (P* M zeta)^T giving s, (P* A* M zeta)^T giving <Py, A* zeta>
        s, comp = z[n], z[n + 1]
        first = 0.0
        if (not latched) and abs(s) > spec.dead_zone:
            first = -s * abs(s) ** (-2.0 * spec.mu)
        control = (first - comp / ops.zeta_normsq) * spec.varpi
        dy = dy + ops.input_map @ control
        if field_only:
            return dy
        return dy, control, abs(s), s * s / ops.zeta_normsq, False
    if law == "LinearPhi":
        # rows: A, L* M P giving w; the rows of P follow for WaveK
        w = z[n:n + ops.width]
        wnormsq = w @ w
        control = None
        if (not latched) and wnormsq > spec.dead_zone:
            scale = wnormsq ** (-spec.mu) + phi_value(spec.phi, z[-n:], spec.dead_zone)
            control = -scale * w
            dy = dy + ops.input_map @ control
        if field_only:
            return dy
        if control is None:
            control = np.zeros(ops.width)
        return dy, control, wnormsq, wnormsq, False
    if law == "ZeroControl":
        # rows: A, Q = P* M B P giving V = <y, Q y>
        if field_only:
            return dy
        V = y @ z[n:2 * n]
        return dy, np.zeros(ops.width), V, V, False
    # bilinear laws, rows: A, B, Q; the rows of P follow for WaveK
    V = y @ z[2 * n:3 * n]
    trigger = V
    u = 0.0
    saturated = False
    if law == "BilinearGrad":
        # further rows: Gram P* B* M B P and pairing P* A* M B P
        bnormsq = y @ z[3 * n:4 * n]
        trigger = bnormsq
        if (not latched) and bnormsq > spec.dead_zone:
            u = -(V ** (-spec.mu) + (y @ z[4 * n:5 * n]) / bnormsq)
            if u > spec.u_max:
                u = spec.u_max
                saturated = True
            elif u < -spec.u_max:
                u = -spec.u_max
                saturated = True
    elif (not latched) and V > spec.dead_zone:
        u = -(V ** (-spec.mu) + phi_value(spec.phi, z[-n:], spec.dead_zone))
    if u != 0.0:
        dy = dy + u * z[n:2 * n]
    if field_only:
        return dy
    control = np.zeros(ops.width)
    control[0] = u
    return dy, control, trigger, V, saturated


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def closed_loop_law(ys: np.ndarray, ops, latched) -> tuple[np.ndarray, np.ndarray]:
    """The law's (control, V) at one state or at each row of a block.

    The row-wise form of closed_loop_rhs's law, with one latched flag per
    row; the field itself is not formed, so only the rows of ops.stack from
    ops.law_from on are applied.  controls has shape (..., width).
    """
    spec = ops.spec
    law = spec.variant
    n = ys.shape[-1]
    eps_dz = spec.dead_zone
    z = ys @ ops.stack[ops.law_from:].T
    live = np.logical_not(latched)
    if law == "RankOne":
        s = z[..., 0]
        first = np.zeros(s.shape)
        on = live & (np.abs(s) > eps_dz)
        first[on] = -s[on] * np.abs(s[on]) ** (-2.0 * spec.mu)
        controls = (first - z[..., 1] / ops.zeta_normsq)[..., None] * spec.varpi
        return controls, s * s / ops.zeta_normsq
    if law == "LinearPhi":
        w = z[..., :ops.width]
        wnormsq = _rowdot(w, w)
        on = live & (wnormsq > eps_dz)
        controls = np.zeros(w.shape)
        scale = wnormsq[on] ** (-spec.mu) + phi_value(spec.phi, z[on][:, -n:], eps_dz)
        controls[on] = -scale[:, None] * w[on]
        return controls, wnormsq
    # the bilinear laws: Q first, then Gram and pairing for BilinearGrad
    V = _rowdot(ys, z[..., :n])
    u = np.zeros(V.shape)
    if law == "BilinearGrad":
        bnormsq = _rowdot(ys, z[..., n:2 * n])
        on = live & (bnormsq > eps_dz)
        u[on] = -(V[on] ** (-spec.mu) + _rowdot(ys[on], z[on][:, 2 * n:3 * n]) / bnormsq[on])
        np.clip(u, -spec.u_max, spec.u_max, out=u)
    elif law == "BilinearPhi":
        on = live & (V > eps_dz)
        u[on] = -(V[on] ** (-spec.mu) + phi_value(spec.phi, z[on][:, -n:], eps_dz))
    controls = np.zeros(V.shape + (ops.width,))
    controls[..., 0] = u
    return controls, V


def fill_law(ys, us, Vs, rows, ops, latch_from: int) -> None:
    """Write the law's control and V at the given rows of ys into us and Vs.

    Rows from index latch_from on are recorded after the latch.  The law is
    evaluated _FILL_ROWS rows at a time, which bounds its block temporaries.
    """
    for lo in range(0, rows.size, _FILL_ROWS):
        chunk = rows[lo:lo + _FILL_ROWS]
        us[chunk], Vs[chunk] = closed_loop_law(ys[chunk], ops, chunk >= latch_from)


def dead_zone_rule(trigger, latched: bool, clamped: bool, dt: float, eps_dz: float,
                   trig_exp: float, rate: float) -> tuple[bool, bool, bool]:
    """The dead-zone latch at the end of an accepted step: (latch_now, clamp_now, regrown).

    The control latches off once the trigger falls to eps_dz.  While it stays
    there, the observed component is clamped once, when the decay envelope
    predicts settling within the next step: trigger^trig_exp / rate <= dt,
    with rate = 2 gamma mu.  A trigger above 2 eps_dz after the latch is
    regrowth.  The caller applies its own clamp and keeps its own times.
    """
    below = trigger <= eps_dz
    latch_now = bool(below and not latched)
    clamp_now = bool(below and not clamped and trigger ** trig_exp / rate <= dt)
    return latch_now, clamp_now, bool(latched and trigger > 2.0 * eps_dz)


def integrate_adaptive(y0, sample_ts, ops, C, gamma_eff, trig_exp, opts):
    """Adaptive Dormand-Prince 5(4) recorded on a fixed sample grid.

    The error control alone sets the steps; only the last one is cut short,
    to land on t_max.  Samples inside an accepted step are filled from the
    free 4th-order continuous extension (dense output); a sample on a step
    end takes the end state.  At each accepted step end dead_zone_rule
    decides the latch and the clamp; the clamp zeroes the observed component
    via the projector C.  opts supplies rtol, atol, dt_init, dt_min and
    dt_max.

    The stage slopes are the rows of one (7, n) block K, and a stage state is
    y + (h a_i) @ K.  A filled sample keeps the latch flag of its step, and
    once the run ends closed_loop_law gives the filled samples their control
    and V, _FILL_ROWS rows at a time; a step-end sample takes the control
    and V of k7, or of the re-evaluation after a latch or clamp.

    Returns (states, controls, lyapunov, status, reached_index, stats); stats
    holds the deterministic counters: steps, rejections, rhs_calls,
    dt_min_accepted, dt_max_accepted, saturation_events, v_increase_events,
    latch_time, clamp_time and dead_zone_regrow.  rhs_calls counts the
    closed_loop_rhs calls: the stages and the re-evaluation after a latch or
    clamp.  The fill makes none, so every counter is independent of the
    sample grid.
    """
    rtol, atol, dt_min, dt_max = opts.rtol, opts.atol, opts.dt_min, opts.dt_max
    eps_dz = ops.spec.dead_zone
    rate = 2.0 * gamma_eff * ops.spec.mu
    n = y0.shape[0]
    ns = sample_ts.shape[0]
    ys = np.zeros((ns, n))
    us = np.zeros((ns, ops.width))
    Vs = np.zeros(ns)
    filled = np.zeros(ns, dtype=bool)   # interior samples, given u and V at the end
    K = np.empty((7, n))
    y = y0.copy()
    grid = sample_ts.tolist()   # Python floats: the step loop does scalar work only
    t = grid[0]
    t_end = grid[-1]
    tol_t = 1e-14 * max(abs(t_end), 1.0)   # a sample this close to a step end lies on it
    clamped = False
    regrow = False
    latch_time = None
    clamp_time = None
    latch_from = ns   # samples from this index on are recorded after the latch
    n_steps = 0
    n_rejected = 0
    n_saturated = 0
    n_v_increase = 0
    dt_lo = np.inf
    dt_hi = 0.0
    status = STATUS_OK

    K[0], ctrl, trigger, V, _ = closed_loop_rhs(y, ops, False)
    rhs_calls = 1
    ys[0] = y
    us[0] = ctrl
    Vs[0] = V
    latched = trigger <= eps_dz
    if latched:
        latch_time = float(t)
        latch_from = 1
    dt = opts.dt_init
    nxt = 1  # next sample to record
    while nxt < ns:
        h = dt if dt < dt_max else dt_max
        if h > t_end - t:
            h = t_end - t
        if h < dt_min:
            h = dt_min
        hc = h * _COEF
        for i in range(1, 6):
            K[i] = closed_loop_rhs(y + hc[i, :i] @ K[:i], ops, latched, True)
        ynew = y + hc[6, :6] @ K[:6]
        K[6], ctrl_new, trig_new, V_new, sat_new = closed_loop_rhs(ynew, ops, latched)
        rhs_calls += 6
        err = (hc[_ROW_ERR] @ K) / (atol + rtol * np.maximum(np.abs(y), np.abs(ynew)))
        errnorm = math.sqrt(float(err @ err) / n)
        if errnorm > 1.0:
            n_rejected += 1
            if h <= dt_min * (1.0 + 1e-12):
                status = STATUS_STALLED
                break
            fac = 0.9 * errnorm ** -0.2
            dt = max(h * max(fac, 0.1), dt_min)
            continue  # K[0] is still the slope at (t, y)
        n_steps += 1
        dt_lo = min(dt_lo, h)
        dt_hi = max(dt_hi, h)
        if sat_new:
            n_saturated += 1
        if V_new > V * (1.0 + 1e-9) + atol * atol:
            n_v_increase += 1
        t_new = t + h
        inner = nxt
        while inner < ns and grid[inner] < t_new - tol_t:
            inner += 1
        if inner > nxt:
            # dense output (Hairer's dopri5 contd5)
            ydiff = ynew - y
            bspl = h * K[0] - ydiff
            r4 = ydiff - h * K[6] - bspl
            r5 = hc[_ROW_DENSE] @ K
            theta = ((sample_ts[nxt:inner] - t) / h)[:, None]
            ys[nxt:inner] = y + theta * (ydiff + (1.0 - theta)
                                         * (bspl + theta * (r4 + (1.0 - theta) * r5)))
            filled[nxt:inner] = True
            nxt = inner
        t = t_new
        y = ynew
        V = V_new
        K[0] = K[6]
        ctrl = ctrl_new
        fac = 5.0
        if errnorm > 1e-12:
            fac = min(max(0.9 * errnorm ** -0.2, 0.2), 5.0)
        if (not latched) and trig_new < 10.0 * eps_dz and fac > 1.0:
            fac = 1.0  # no step growth while resolving the dead-zone approach
        dt = h * fac
        latch_now, clamp_now, regrown = dead_zone_rule(
            trig_new, latched, clamped, dt, eps_dz, trig_exp, rate)
        if latch_now:
            latched = True
            latch_time = float(t)
            latch_from = nxt
        if clamp_now:
            y = y - C @ y
            clamped = True
            clamp_time = float(t)
        if latch_now or clamp_now:
            # the slope, control and V change with the latch or the clamp
            K[0], ctrl, _, V, _ = closed_loop_rhs(y, ops, latched)
            rhs_calls += 1
        regrow = regrow or regrown
        if nxt < ns and grid[nxt] <= t + tol_t:
            ys[nxt] = y
            us[nxt] = ctrl
            Vs[nxt] = V
            nxt += 1
    fill_law(ys, us, Vs, np.flatnonzero(filled), ops, latch_from)
    stats = {
        "steps": n_steps,
        "rejections": n_rejected,
        "rhs_calls": rhs_calls,
        "dt_min_accepted": float(dt_lo) if n_steps else None,
        "dt_max_accepted": float(dt_hi) if n_steps else None,
        "saturation_events": n_saturated,
        "v_increase_events": n_v_increase,
        "latch_time": latch_time,
        "clamp_time": clamp_time,
        "dead_zone_regrow": regrow,
    }
    return ys, us, Vs, status, nxt - 1, stats
