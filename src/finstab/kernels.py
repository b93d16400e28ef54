"""Hot numerical kernels: the closed-loop field and the adaptive RK45 loop.

A law only ever reads P y, so its field is a fixed linear map of y plus one
scalar law.  controllers.assemble_kernel_args folds that map into one stacked
matrix per run (rows of A over the law's own rows); closed_loop_rhs applies
it with one mat-vec and evaluates the law named by the variant.
integrate_adaptive steps by the error control alone and fills the sample
grid from the Dormand-Prince continuous extension, so the step count does
not grow with the number of samples.
Status codes: 0 completed, 3 stalled at dt_min.
"""
from __future__ import annotations

import numpy as np

STATUS_OK = 0
STATUS_STALLED = 3

# Dormand-Prince 5(4) tableau
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# its free 4th-order continuous extension (Hairer, Norsett, Wanner, Solving ODEs I, II.6)
_D1, _D3, _D4, _D5, _D6, _D7 = (-12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
                                -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
                                -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0)


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
    pos = np.abs(py[..., :phi.q])
    vel = np.maximum(np.abs(py[..., phi.half:phi.half + phi.q]), eps_dz)
    ratio = (pos / vel).max(axis=-1)
    if py.ndim == 1:
        return min(float(ratio), phi.cap)
    return np.minimum(ratio, phi.cap)


def closed_loop_rhs(y: np.ndarray, ops, latched: bool):
    """Field A y plus the law's contribution; returns (dy, control, trigger, V, saturated).

    ops is a controllers.KernelOps.  trigger is the dead-zone variable (V,
    ||B P y||^2, ||w||^2 or |s| by variant); latched switches the singular
    control terms off for good.
    """
    n = y.shape[0]
    spec = ops.spec
    law = spec.variant
    z = ops.stack @ y
    dy = z[:n]
    control = np.zeros(ops.width)
    if law == "RankOne":
        # rows: A, (P* M zeta)^T giving s, (P* A* M zeta)^T giving <Py, A* zeta>
        s, comp = z[n], z[n + 1]
        first = 0.0
        if (not latched) and abs(s) > spec.dead_zone:
            first = -s * abs(s) ** (-2.0 * spec.mu)
        control = (first - comp / ops.zeta_normsq) * spec.varpi
        return dy + ops.input_map @ control, control, abs(s), s * s / ops.zeta_normsq, False
    if law == "LinearPhi":
        # rows: A, L* M P giving w; the rows of P follow for WaveK
        w = z[n:n + ops.width]
        wnormsq = w @ w
        if (not latched) and wnormsq > spec.dead_zone:
            scale = wnormsq ** (-spec.mu) + phi_value(spec.phi, z[-n:], spec.dead_zone)
            control = -scale * w
            dy = dy + ops.input_map @ control
        return dy, control, wnormsq, wnormsq, False
    # bilinear family, rows: A, Q = P* M B P giving V = <y, Q y>, then B
    V = y @ z[n:2 * n]
    if law == "ZeroControl":
        return dy, control, V, V, False
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
        # BilinearPhi; the rows of P follow for WaveK
        u = -(V ** (-spec.mu) + phi_value(spec.phi, z[-n:], spec.dead_zone))
    control[0] = u
    if u != 0.0:
        dy = dy + u * z[2 * n:3 * n]
    return dy, control, trigger, V, saturated


def integrate_adaptive(y0, sample_ts, ops, C, gamma_eff, trig_exp, opts):
    """Adaptive Dormand-Prince 5(4) recorded on a fixed sample grid.

    The error control alone sets the steps; only the last one is cut short,
    to land on t_max.  Samples inside an accepted step are filled from the
    free 4th-order continuous extension (dense output); a sample on a step
    end takes the end state.  The dead zone latches at the first accepted
    step end whose trigger falls below the dead zone; if the decay envelope
    then predicts settling within one step, the observed component is
    clamped to zero via the projector C.  opts supplies rtol, atol, dt_init,
    dt_min and dt_max.

    Returns (states, controls, lyapunov, status, reached_index, stats); stats
    holds the deterministic counters: steps, rejections, rhs_calls,
    dt_min_accepted, dt_max_accepted, saturation_events, v_increase_events,
    latch_time, clamp_time and dead_zone_regrow.  rhs_calls counts the
    stages and the re-evaluation after a latch or clamp; the one call that
    gives an interior sample its control and V is left out, so every counter
    is independent of the sample grid.
    """
    rtol, atol, dt_min, dt_max = opts.rtol, opts.atol, opts.dt_min, opts.dt_max
    eps_dz = ops.spec.dead_zone
    mu = ops.spec.mu
    controlled = ops.spec.variant != "ZeroControl"
    n = y0.shape[0]
    ns = sample_ts.shape[0]
    ys = np.zeros((ns, n))
    us = np.zeros((ns, ops.width))
    Vs = np.zeros(ns)
    y = y0.copy()
    t = sample_ts[0]
    t_end = sample_ts[-1]
    tol_t = 1e-14 * max(abs(t_end), 1.0)   # a sample this close to a step end lies on it
    clamped = False
    regrow = False
    latch_time = None
    clamp_time = None
    n_steps = 0
    n_rejected = 0
    n_saturated = 0
    n_v_increase = 0
    dt_lo = np.inf
    dt_hi = 0.0
    status = STATUS_OK

    k1, ctrl, trigger, V, _ = closed_loop_rhs(y, ops, False)
    rhs_calls = 1
    ys[0] = y
    us[0] = ctrl
    Vs[0] = V
    latched = controlled and trigger <= eps_dz
    if latched:
        latch_time = float(t)
    dt = opts.dt_init
    nxt = 1  # next sample to record
    while nxt < ns:
        h = dt if dt < dt_max else dt_max
        if h > t_end - t:
            h = t_end - t
        if h < dt_min:
            h = dt_min
        k2 = closed_loop_rhs(y + h * _A21 * k1, ops, latched)[0]
        k3 = closed_loop_rhs(y + h * (_A31 * k1 + _A32 * k2), ops, latched)[0]
        k4 = closed_loop_rhs(y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3), ops, latched)[0]
        k5 = closed_loop_rhs(y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4),
                             ops, latched)[0]
        k6 = closed_loop_rhs(y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                                      + _A65 * k5), ops, latched)[0]
        ynew = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7, ctrl_new, trig_new, V_new, sat_new = closed_loop_rhs(ynew, ops, latched)
        rhs_calls += 6
        err = (h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
               / (atol + rtol * np.maximum(np.abs(y), np.abs(ynew))))
        errnorm = np.sqrt((err @ err) / n)
        if errnorm > 1.0:
            n_rejected += 1
            if h <= dt_min * (1.0 + 1e-12):
                status = STATUS_STALLED
                break
            fac = 0.9 * errnorm ** -0.2
            dt = max(h * max(fac, 0.1), dt_min)
            continue  # k1 is still the slope at (t, y)
        n_steps += 1
        dt_lo = min(dt_lo, h)
        dt_hi = max(dt_hi, h)
        if sat_new:
            n_saturated += 1
        if V_new > V * (1.0 + 1e-9) + atol * atol:
            n_v_increase += 1
        t_new = t + h
        inner = nxt
        while inner < ns and sample_ts[inner] < t_new - tol_t:
            inner += 1
        if inner > nxt:
            # dense output (Hairer's dopri5 contd5), reusing k1..k7
            ydiff = ynew - y
            bspl = h * k1 - ydiff
            r4 = ydiff - h * k7 - bspl
            r5 = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)
            theta = ((sample_ts[nxt:inner] - t) / h)[:, None]
            ys[nxt:inner] = y + theta * (ydiff + (1.0 - theta)
                                         * (bspl + theta * (r4 + (1.0 - theta) * r5)))
            for i in range(nxt, inner):
                _, us[i], _, Vs[i], _ = closed_loop_rhs(ys[i], ops, latched)
            nxt = inner
        t = t_new
        y = ynew
        V = V_new
        k1 = k7
        ctrl = ctrl_new
        fac = 5.0
        if errnorm > 1e-12:
            fac = min(max(0.9 * errnorm ** -0.2, 0.2), 5.0)
        if (not latched) and trig_new < 10.0 * eps_dz and fac > 1.0:
            fac = 1.0  # no step growth while resolving the dead-zone approach
        dt = h * fac
        if controlled and trig_new <= eps_dz:
            changed = False
            if not latched:
                latched = True
                latch_time = float(t)
                changed = True
            if not clamped and trig_new ** trig_exp / (2.0 * gamma_eff * mu) <= dt:
                y = y - C @ y
                clamped = True
                clamp_time = float(t)
                changed = True
            if changed:
                # the slope, control and V change with the latch or the clamp
                k1, ctrl, _, V, _ = closed_loop_rhs(y, ops, latched)
                rhs_calls += 1
        if latched and trig_new > 2.0 * eps_dz:
            regrow = True
        if nxt < ns and sample_ts[nxt] <= t + tol_t:
            ys[nxt] = y
            us[nxt] = ctrl
            Vs[nxt] = V
            nxt += 1
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
