"""Hot numerical kernels: the closed-loop field and the adaptive DP5(4) loop.

A law only ever reads P y, so its field is a fixed linear map of y plus one
scalar law.  controllers.assemble_kernel_args folds that map into one stacked
matrix per run (rows of A over the law's own rows); closed_loop_rhs applies
it with one mat-vec and evaluates the law.  integrate_adaptive keeps the
seven stage slopes of a step as the rows of one block, so every stage state,
the new state, the error estimate and the dense-output term is one small
product of a coefficient row with that block.  It steps by the error control
alone and fills the sample grid from the Dormand-Prince continuous
extension, so the step count does not grow with the number of samples.  The
stepper records states only: every sample, the step ends included, takes
its control and V from closed_loop_law, a block of rows at a time
(fill_law).  When A and B are both diagonal under BilinearPhi (the heat
truncation), the same tableau runs in integrating-factor (Lawson) form: the
exact decay e^{tA} is carried by the factor, so the steps follow the law,
not the stiffest mode.  A run with no law (ZeroControl) never comes here:
integrator.free_flow samples its linear flow exactly, on W_perp and W apart
where H1 holds, and fill_law gives it u and V the same way.  Both bundles
without field rows (ZeroControl and the factor's) hold a diagonal Q as the
vector ops.q_diag, so V costs O(n) a state.

At the stepper's sizes (a few dozen states) a step costs numpy call
overhead more than arithmetic, so the loop makes as few calls as it can,
with the same arithmetic in the same order.  Every buffer (the stage state,
the rows of the mat-vec, the error scale, |y|) is allocated once per run and
written in place; each slope goes straight into its row of the block; and
the law's branch, phi and scalars are resolved once per run into the
workspace (_RhsWork) that closed_loop_rhs reads.  Every 1-D product is
ndarray.dot, not @: both reach the same BLAS gemv or ddot with the same
result, but @ goes through matmul's ufunc dispatch, about twice the call
cost at this size.
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
# the nodes c_i of the stage rows: stage i + 1 is evaluated at t + c_i h
_NODES = np.array([0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0])
_ROW_ERR, _ROW_DENSE = 7, 8
# samples whose law is evaluated together; bounds the block temporaries
_FILL_ROWS = 256


def phi_value(phi, py: np.ndarray, eps_dz: float):
    """Compensation phi(Py) for a PhiSpec, at one state or at each row of a block.

    WaveK is min(cap, max_i |pos_i| / max(|vel_i|, eps_dz)) over the first q
    oscillator blocks, pos_i = py[..., i] and vel_i = py[..., half + i].  Zero
    and Constant give one scalar for a block too.  The stepper does not come
    here: _RhsWork resolves phi once per run.
    """
    if phi.kind == "Zero":
        return 0.0
    if phi.kind == "Constant":
        return phi.value
    pos = np.abs(py[..., :phi.q])
    vel = np.maximum(np.abs(py[..., phi.half:phi.half + phi.q]), eps_dz)
    ratio = np.maximum.reduce(pos / vel, axis=-1)   # ndarray.max's Python wrapper costs more
    return np.minimum(ratio, phi.cap)


class _RhsWork:
    """What closed_loop_rhs reads of a law bundle, resolved once per run.

    z takes the mat-vec stack y; the named views are its row blocks (see
    controllers.KernelOps): field = A y (empty under an integrating factor),
    drive = B y, qy = Q y (or a buffer for q_diag * y), gram and pairing for
    BilinearGrad, w for LinearPhi, and wave = the first half + q rows of P y
    for a WaveK phi (None otherwise, phi_const holding Zero's or Constant's
    value).
    """

    def __init__(self, ops):
        spec = ops.spec
        n = ops.stack.shape[1]
        q = ops.law_from
        self.stack = ops.stack
        self.z = z = np.empty(ops.stack.shape[0])
        self.law = spec.variant
        self.n = n
        self.dead_zone = spec.dead_zone
        self.neg_mu = -spec.mu
        self.u_max = spec.u_max
        self.input_map = ops.input_map
        self.zeta_normsq = ops.zeta_normsq
        self.varpi = spec.varpi
        self.slope = ops.slope
        self.q_diag = ops.q_diag
        self.field = z[:n]
        self.drive = z[n:2 * n]
        self.w = z[n:n + ops.width]
        self.qy = z[q:q + n] if ops.q_diag is None else np.empty(n)
        self.gram = z[q + n:q + 2 * n]
        self.pairing = z[q + 2 * n:q + 3 * n]
        phi = spec.phi
        self.phi_const = phi.value if phi.kind == "Constant" else 0.0
        self.wave = None
        if phi.kind == "WaveK":
            self.wave = z[z.shape[0] - n:z.shape[0] - n + phi.half + phi.q]
            self.wave_q, self.wave_half, self.wave_cap = phi.q, phi.half, phi.cap


def _wave_phi(work: _RhsWork) -> float:
    """WaveK's phi at the state of the last mat-vec, on Python floats: one
    state's q ratios cost less than the ufunc calls of phi_value's block form,
    and give the same values."""
    vals = work.wave.tolist()
    eps_dz = work.dead_zone
    half = work.wave_half
    ratio = 0.0
    for i in range(work.wave_q):
        vel = abs(vals[half + i])
        r = abs(vals[i]) / (vel if vel > eps_dz else eps_dz)
        if r > ratio:
            ratio = r
    return min(ratio, work.wave_cap)


def closed_loop_rhs(y: np.ndarray, work: _RhsWork, latched: bool, v: np.ndarray,
                    out: np.ndarray):
    """Write the slope of the stepped variable v into out; return (trigger, V,
    saturated) of the law at y.

    work is the _RhsWork of a law's controllers.KernelOps (ZeroControl is
    never stepped); its buffers are overwritten, and out must not be one of
    them.  trigger is the dead-zone variable (V, ||B P y||^2, ||w||^2 or |s|
    by variant); latched switches the singular control terms off for good.
    The control itself is not returned: the recorded samples take it from
    closed_loop_law.  Without an integrating factor v is y and the slope is
    the field A y plus the law's contribution.  With one (ops.decay set),
    y = e^{tau A} v for some tau >= 0, and the slope is u(y) B v, without A.
    A law that is off copies A y as it is: A y + 0 B y would turn a -0.0
    entry into +0.0.
    """
    z = work.z
    work.stack.dot(y, out=z)
    law = work.law
    if law == "RankOne":
        # rows: A, (P* M zeta)^T giving s, (P* A* M zeta)^T giving <Py, A* zeta>
        n = work.n
        s, comp = z[n], z[n + 1]
        first = 0.0
        if (not latched) and abs(s) > work.dead_zone:
            first = -s * abs(s) ** (2.0 * work.neg_mu)
        np.add(work.field,
               work.input_map.dot((first - comp / work.zeta_normsq) * work.varpi), out=out)
        return abs(s), s * s / work.zeta_normsq, False
    if law == "LinearPhi":
        # rows: A, L* M P giving w; the rows of P follow for WaveK
        w = work.w
        wnormsq = w.dot(w)
        if (not latched) and wnormsq > work.dead_zone:
            phi = work.phi_const if work.wave is None else _wave_phi(work)
            scale = wnormsq ** work.neg_mu + phi
            np.add(work.field, work.input_map.dot(-scale * w), out=out)
        else:
            np.copyto(out, work.field)
        return wnormsq, wnormsq, False
    # bilinear laws, rows: A, B (both left out under a factor), Q (the vector
    # q_diag instead, when set); the rows of P follow for WaveK
    qy = work.qy
    if work.q_diag is not None:
        np.multiply(work.q_diag, y, out=qy)
    V = y.dot(qy)
    trigger = V
    u = 0.0
    saturated = False
    if law == "BilinearGrad":
        # further rows: Gram P* B* M B P and pairing P* A* M B P
        bnormsq = y.dot(work.gram)
        trigger = bnormsq
        if (not latched) and bnormsq > work.dead_zone:
            u = -(V ** work.neg_mu + y.dot(work.pairing) / bnormsq)
            if u > work.u_max:
                u = work.u_max
                saturated = True
            elif u < -work.u_max:
                u = -work.u_max
                saturated = True
    elif law == "BilinearPhi" and (not latched) and V > work.dead_zone:
        u = -(V ** work.neg_mu + (work.phi_const if work.wave is None else _wave_phi(work)))
    if work.slope is not None:
        np.multiply(work.slope, v, out=out)
        out *= u
    elif u != 0.0:
        np.multiply(u, work.drive, out=out)
        out += work.field
    else:
        np.copyto(out, work.field)
    return trigger, V, saturated


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
    # the bilinear laws: Q first (or the vector q_diag), then Gram and pairing
    # for BilinearGrad
    V = _rowdot(ys, z[..., :n] if ops.q_diag is None else ys * ops.q_diag)
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


def fill_law(ys, ops, latch_from: int) -> tuple[np.ndarray, np.ndarray]:
    """The law's (controls, V) at every row of the sampled states ys.

    Rows from index latch_from on are recorded after the latch.  The law is
    evaluated _FILL_ROWS rows at a time, which bounds its block temporaries.
    """
    ns = ys.shape[0]
    latched = np.arange(ns) >= latch_from
    us = np.empty((ns, ops.width))
    Vs = np.empty(ns)
    for lo in range(0, ns, _FILL_ROWS):
        rows = slice(lo, lo + _FILL_ROWS)
        us[rows], Vs[rows] = closed_loop_law(ys[rows], ops, latched[rows])
    return us, Vs


def settling_time(V: float, rate: float, mu: float) -> float:
    """T(V) = max(V, 0)^mu / (2 r mu): V^mu falls at least at 2 r mu, so V settles by then."""
    return max(V, 0.0) ** mu / (2.0 * rate * mu)


def dead_zone_rule(trigger, time_left: float, latched: bool, clamped: bool, dt: float,
                   eps_dz: float) -> tuple[bool, bool, bool]:
    """The dead-zone latch at the end of an accepted step: (latch_now, clamp_now, regrown).

    The control latches off once the trigger falls to eps_dz.  While it stays
    there, the observed component is clamped once, when the decay envelope
    predicts settling within the next step: time_left = settling_time(V) <= dt,
    at the law's rate r.  A trigger above 2 eps_dz after the latch is
    regrowth.  The caller applies its own clamp and keeps its own times.
    """
    below = trigger <= eps_dz
    latch_now = bool(below and not latched)
    clamp_now = bool(below and not clamped and time_left <= dt)
    return latch_now, clamp_now, bool(latched and trigger > 2.0 * eps_dz)


def integrate_adaptive(y0, sample_ts, ops, C, opts):
    """Adaptive Dormand-Prince 5(4) recorded on a fixed sample grid.

    The error control alone sets the steps; only the last one is cut short,
    to land on t_max.  Samples inside an accepted step are filled from the
    free 4th-order continuous extension (dense output); a sample on a step
    end takes the end state.  At each accepted step end dead_zone_rule
    decides the latch and the clamp; the clamp zeroes the observed component
    via the projector C.  A step whose error estimate exceeds 1 or is not
    finite is rejected.  The clamp reads the law's rate r from ops.  opts
    supplies rtol, atol, dt_init, dt_min and dt_max.

    The stage slopes are the rows of one (7, n) block K, and a stage state is
    y + (h a_i) K, formed as (h a_i) K + y in one buffer (IEEE addition
    commutes, so the bits are those of the allocating form).  The scaled
    coefficients hc, the row views hc[i, :i] and K[:i], the _RhsWork of
    closed_loop_rhs and |y| of the accepted state are made once per run or
    step and reused; |y| is taken again after a clamp.  Only states are
    recorded; every sample takes its
    control and V from the law at its state (fill_law, which
    integrator.simulate calls).  The samples inside the step that latches
    are recorded before the latch, and its step-end sample after it, with
    the state the clamp left.

    With D = ops.decay set (A and B diagonal under BilinearPhi), a step from (t, y) runs the
    same tableau on v = e^{-(s - t) D} y(s) (Lawson's integrating factor):
    the stage states V_i = y + (h a_i) @ K are read by the law at
    Y_i = e^{c_i h D} V_i, the slopes are K_i = u(Y_i) B V_i, the new state
    is e^{hD} V_7, the error estimate is e^{hD} (h e) @ K, and the dense
    output is e^{theta h D} times the interpolant of v.  Every factor is
    e^{tau h D} with tau >= 0, so a stiff decaying mode underflows to zero
    and never overflows.  On accepting, k7 moves into the new step's frame
    as e^{hD} K_7.  Without D this is the plain DP5(4) step on y' = A y + u B y.

    Returns (states, latch_from, status, reached_index, stats): samples from
    index latch_from on are recorded after the latch, and latch_from is the
    sample count if the law never latches.  stats holds the deterministic
    counters: steps, rejections, rhs_calls, dt_min_accepted,
    dt_max_accepted, saturation_events, v_increase_events, latch_time,
    clamp_time and dead_zone_regrow.  rhs_calls counts the
    closed_loop_rhs calls: the stages and the re-evaluation after a latch or
    clamp.  Each goes through this module's global name, so a wrapper put in
    its place sees every one.  Recording makes none, so every counter is
    independent of the sample grid.
    """
    rtol, atol, dt_min, dt_max = opts.rtol, opts.atol, opts.dt_min, opts.dt_max
    D = ops.decay
    eps_dz = ops.spec.dead_zone
    mu = ops.spec.mu
    rate = ops.read_rate()
    work = _RhsWork(ops)
    n = y0.shape[0]
    ns = sample_ts.shape[0]
    ys = np.zeros((ns, n))
    K = np.empty((7, n))
    krows = list(K)   # K[i] as views, made once
    hc = np.empty_like(_COEF)   # the coefficients scaled by the step, in place
    # the stage sums: row i of hc against the slopes k1..k_i
    sums = [(hc[i, :i], K[:i]) for i in range(7)]
    y = y0.copy()
    ynew = np.empty(n)
    stage = np.empty(n)   # the stage state V_i
    if D is None:
        vnew, ystage = ynew, stage
    else:
        vnew, ystage = np.empty(n), np.empty(n)   # V_7 and the law's Y_i = e^{c_i h D} V_i
        hD = np.empty(n)
        F = np.empty((_NODES.shape[0], n))   # e^{c_i h D}
    est = np.empty(n)
    scale = np.empty(n)
    absy = np.abs(y)
    absnew = np.empty(n)
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

    trigger, V, _ = closed_loop_rhs(y, work, False, y, krows[0])
    rhs_calls = 1
    ys[0] = y
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
        np.multiply(h, _COEF, out=hc)
        if D is not None:
            np.multiply(h, D, out=hD)
            np.exp(np.multiply.outer(_NODES, hD, out=F), out=F)   # c_i >= 0
        for i in range(1, 6):
            a, k = sums[i]
            a.dot(k, out=stage)
            stage += y
            if D is not None:
                np.multiply(F[i], stage, out=ystage)
            closed_loop_rhs(ystage, work, latched, stage, krows[i])
        a, k = sums[6]
        a.dot(k, out=vnew)
        vnew += y
        if D is not None:
            np.multiply(F[6], vnew, out=ynew)
        trig_new, V_new, sat_new = closed_loop_rhs(ynew, work, latched, vnew, krows[6])
        rhs_calls += 6
        hc[_ROW_ERR].dot(K, out=est)
        if D is not None:
            est *= F[6]
        np.abs(ynew, out=absnew)
        np.maximum(absy, absnew, out=scale)
        scale *= rtol
        scale += atol
        est /= scale
        errnorm = math.sqrt(float(est.dot(est)) / n)
        if not errnorm <= 1.0:   # a NaN estimate is rejected too
            n_rejected += 1
            if h <= dt_min * (1.0 + 1e-12):
                status = STATUS_STALLED
                break
            # a non-finite estimate takes the least factor: NaN ** -0.2 would make dt NaN
            fac = 0.9 * errnorm ** -0.2 if errnorm < math.inf else 0.1
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
            # dense output (Hairer's dopri5 contd5) of the stepped variable
            ydiff = vnew - y
            bspl = h * K[0] - ydiff
            r4 = ydiff - h * K[6] - bspl
            r5 = hc[_ROW_DENSE].dot(K)
            theta = ((sample_ts[nxt:inner] - t) / h)[:, None]
            dense = y + theta * (ydiff + (1.0 - theta)
                                 * (bspl + theta * (r4 + (1.0 - theta) * r5)))
            ys[nxt:inner] = dense if D is None else np.exp(theta * hD) * dense
            nxt = inner
        t = t_new
        y, ynew = ynew, y   # the old state's buffer takes the next attempt
        absy, absnew = absnew, absy
        if D is None:
            vnew = ynew
            krows[0][:] = krows[6]   # k7 is the new step's k1
        else:
            np.multiply(F[6], krows[6], out=krows[0])   # k7 in the new step's frame
        V = V_new
        fac = 5.0
        if errnorm > 1e-12:
            fac = min(max(0.9 * errnorm ** -0.2, 0.2), 5.0)
        if (not latched) and trig_new < 10.0 * eps_dz and fac > 1.0:
            fac = 1.0  # no step growth while resolving the dead-zone approach
        dt = h * fac
        latch_now, clamp_now, regrown = dead_zone_rule(
            trig_new, settling_time(V_new, rate, mu), latched, clamped, dt, eps_dz)
        if latch_now:
            latched = True
            latch_time = float(t)
            latch_from = nxt
        if clamp_now:
            y -= C.dot(y)
            np.abs(y, out=absy)
            clamped = True
            clamp_time = float(t)
        if latch_now or clamp_now:
            # the slope and V change with the latch or the clamp
            _, V, _ = closed_loop_rhs(y, work, latched, y, krows[0])
            rhs_calls += 1
        regrow = regrow or regrown
        if nxt < ns and grid[nxt] <= t + tol_t:
            ys[nxt] = y
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
    return ys, latch_from, status, nxt - 1, stats
