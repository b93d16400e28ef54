"""Hot numerical kernels: the closed-loop field and the adaptive RK45 loop.

A law only ever reads P y, so its field is a fixed linear map of y plus one
scalar law.  controllers.assemble_kernel_args folds that map into one stacked
matrix per run (rows of A over the law's own rows); closed_loop_rhs applies
it with one mat-vec and evaluates the law named by the variant.
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


def phi_value(phi, py: np.ndarray, eps_dz: float) -> float:
    """Compensation phi(Py) for a PhiSpec.

    WaveK is min(cap, max_i |pos_i| / max(|vel_i|, eps_dz)) over the first q
    oscillator blocks, pos_i = py[i] and vel_i = py[half + i].
    """
    if phi.kind == "Zero":
        return 0.0
    if phi.kind == "Constant":
        return phi.value
    pos = np.abs(py[:phi.q])
    vel = np.maximum(np.abs(py[phi.half:phi.half + phi.q]), eps_dz)
    return min(float(np.max(pos / vel)), phi.cap)


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
    """Adaptive Dormand-Prince 5(4) over a fixed sample grid.

    Steps never cross a sample time, so recorded states are step endpoints
    (no dense interpolation).  The dead zone latches at the first accepted
    step whose trigger falls below the dead zone; if the decay envelope then
    predicts settling within one step, the observed component is clamped
    to zero via the projector C.  opts supplies rtol, atol, dt_init, dt_min
    and dt_max.

    Returns (states, controls, lyapunov, status, n_steps, n_rejected,
    n_saturated, n_v_increase, latch_time, clamp_time, regrow_flag,
    reached_index).
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
    latched = False
    clamped = False
    regrow = False
    latch_time = np.nan
    clamp_time = np.nan
    n_steps = 0
    n_rejected = 0
    n_saturated = 0
    n_v_increase = 0
    status = STATUS_OK

    dy, ctrl, trigger, V, sat = closed_loop_rhs(y, ops, latched)
    ys[0] = y
    us[0] = ctrl
    Vs[0] = V
    if controlled and trigger <= eps_dz:
        latched = True
        latch_time = t
    k1 = dy
    have_k1 = True
    dt = opts.dt_init
    reached = 0
    for isamp in range(1, ns):
        target = sample_ts[isamp]
        bail = False
        while t < target - 1e-14 * max(abs(target), 1.0):
            h = dt
            if h > dt_max:
                h = dt_max
            truncated = False
            if h > target - t:
                h = target - t
                truncated = True
            if h < dt_min:
                h = dt_min
            if not have_k1:
                k1 = closed_loop_rhs(y, ops, latched)[0]
                have_k1 = True
            k2 = closed_loop_rhs(y + h * _A21 * k1, ops, latched)[0]
            k3 = closed_loop_rhs(y + h * (_A31 * k1 + _A32 * k2), ops, latched)[0]
            k4 = closed_loop_rhs(y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3), ops, latched)[0]
            k5 = closed_loop_rhs(y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4),
                                 ops, latched)[0]
            k6 = closed_loop_rhs(y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                                          + _A65 * k5), ops, latched)[0]
            ynew = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
            k7, ctrl_new, trig_new, V_new, sat_new = closed_loop_rhs(ynew, ops, latched)
            err = (h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
                   / (atol + rtol * np.maximum(np.abs(y), np.abs(ynew))))
            errnorm = np.sqrt((err @ err) / n)
            if errnorm <= 1.0:
                n_steps += 1
                if sat_new:
                    n_saturated += 1
                if V_new > V * (1.0 + 1e-9) + atol * atol:
                    n_v_increase += 1
                t = t + h
                y = ynew
                V = V_new
                k1 = k7
                have_k1 = True
                fac = 5.0
                if errnorm > 1e-12:
                    fac = 0.9 * errnorm ** -0.2
                    if fac > 5.0:
                        fac = 5.0
                    if fac < 0.2:
                        fac = 0.2
                if (not latched) and trig_new < 10.0 * eps_dz and fac > 1.0:
                    fac = 1.0  # no step growth while resolving the dead-zone approach
                # a step truncated to land on a sample boundary must not shrink
                # the controller step, or dt never recovers between samples
                if truncated:
                    if h * fac > dt:
                        dt = h * fac
                else:
                    dt = h * fac
                if controlled and trig_new <= eps_dz:
                    if not latched:
                        latched = True
                        latch_time = t
                        have_k1 = False  # slope changes once the control is latched off
                    if not clamped:
                        remaining = trig_new ** trig_exp / (2.0 * gamma_eff * mu)
                        if remaining <= dt:
                            y = y - C @ y
                            clamped = True
                            clamp_time = t
                            have_k1 = False
                if latched and trig_new > 2.0 * eps_dz:
                    regrow = True
            else:
                n_rejected += 1
                fac = 0.9 * errnorm ** -0.2
                if fac < 0.1:
                    fac = 0.1
                new_dt = h * fac
                if h <= dt_min * (1.0 + 1e-12):
                    status = STATUS_STALLED
                    bail = True
                    break
                dt = new_dt if new_dt > dt_min else dt_min
                have_k1 = True  # k1 is still the slope at (t, y)
        if bail:
            reached = isamp - 1
            break
        dy, ctrl, trigger, V, sat = closed_loop_rhs(y, ops, latched)
        ys[isamp] = y
        us[isamp] = ctrl
        Vs[isamp] = V
        reached = isamp
    return (ys, us, Vs, status, n_steps, n_rejected, n_saturated, n_v_increase,
            latch_time, clamp_time, regrow, reached)
