"""Marching numerical solver used as the independent oracle.

Solves either evolution form on the periodic grid the caller passes:

    q-form   q_z = a (q_tau)^2 + mu(z) q_tautau
    u-form   u_z = a u u_tau   + mu(z) u_tautau     (u = 2 q_tau)

The marching coordinate z is the stretched axial coordinate; diffusion is
removed from the step-size problem by an exact integrating factor.  The
key identity is that the accumulated diffusion integral of mu over z
equals nu times the physical distance x, so every stage transfer factor
is exp(-nu k^2 dx) with dx >= 0 taken straight from the profile's
coordinate map: always a decay, never an overflow.

The nonlinear term is advanced with the Dormand-Prince 5(4) embedded
pair, PI step control, and 2/3-rule dealiasing of the quadratic product.
The additive gauge freedom of the q potential is fixed to zero; the mean
of q then evolves by the (q_tau)^2 average, which the k = 0 mode of the
nonlinear term supplies automatically.

Each step evaluates the decays of every stage pair j < i in one ``exp``
call.  A decay below exp(-708) = 3.3e-308, just above the smallest
normal double, is stored as an exact zero: numpy's vectorized ``exp``
leaves its fast path for every result that underflows, and each product
with a subnormal factor is slow again.  Such a decay is too small to
move a stage sum of the field's own scale.  The smallest exponent of a
step is that of the top mode across the whole step, so when it stays
above the floor a plain ``exp`` gives the same bits as the masked one at
about half the cost.  The dealiased nonlinear term reads and returns
only the modes below the 2/3-rule cutoff, so the stage sums are carried
on that band alone; only the proposal carries the modes above it, which
decay and take no nonlinear forcing.

A step is mostly numpy call overhead on arrays of n/3 modes, so
``solve`` allocates its workspaces once a call: the stage spectra, the
decays and weights, a term buffer, the band and real samples the FFTs
write into, and two error/proposal spectra used in turn, the accepted
one holding the state.  Stage i stacks decay(0, i) state over the
terms h a_ij decay(j, i) n_j of every j < i, which one product forms,
and one reduce adds the stack in that order, as a sum formed term by
term would.  The error sum is one product and one reduce too.  The
tableau's zero weights, a_61 and e_1, add exact zeros, which leave the
sums' bits as they are.

The step's 13 transforms call the pocketfft gufuncs that
``np.fft.rfft`` and ``np.fft.irfft`` wrap, with the arguments the
wrapper would pass (backward norm: a factor 1 forward and 1/n inverse),
so they give the wrapper's bits.  At n = 256 the wrapper's Python layer
costs about as much as the transform it calls.  A periodic grid has an
even n, so the forward transform is always ``rfft_n_even``, and the
inverse gufunc zero-fills a band shorter than n/2 + 1, so the 2/3-rule
band goes in without padding.  The module is reached at call time as
``np.fft._pocketfft_umath``: importing the package does not load
``numpy.fft``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ._dopri import A as _A, C as _C, E as _ERR
from .errors import ConfigError, ResolutionError, SpacingError
from .grid import TauGrid
from .kernel import InitialCondition
from .profiles import Profile
from .rg import PhysParams

# every stage pair (j, i), j < i, by stage; pair (0, i) carries the
# state into stage i, and stage 6's pairs are the last six
_PAIR_I, _PAIR_J = (v[:, None] for v in np.tril_indices(7, -1))
_A_COEF = _A[_PAIR_I, _PAIR_J]      # a column: a_ij
_EXP_FLOOR = -708.0         # smaller decays are stored as exact zeros

_SAFETY = 0.9
_FAC_MIN, _FAC_MAX = 0.2, 5.0
_PI_ALPHA, _PI_BETA = 0.17, 0.08
_MAX_STEPS = 200_000


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    stations: Sequence[float] = (1.0,)
    form: str = "q"

    def __post_init__(self):
        if self.form not in ("q", "u"):
            raise ConfigError(f"form must be 'q' or 'u', got {self.form!r}")
        if not 0.0 < self.tol < np.inf:
            raise ConfigError(
                f"marching tolerance must be positive and finite, got {self.tol}")
        st = np.asarray(self.stations, dtype=float)
        if (st.size == 0 or not np.all(np.isfinite(st)) or st[0] < 0.0
                or np.any(np.diff(st) <= 0.0)):
            raise ConfigError("stations must be finite and increase from 0")
        object.__setattr__(self, "stations", tuple(float(s) for s in st))


@dataclass(frozen=True)
class SolverResult:
    grid: TauGrid
    form: str
    x_stations: Tuple[float, ...]
    zeta_stations: Tuple[float, ...]
    fields: List[np.ndarray] = field(default_factory=list)
    steps: int = 0
    """Attempted steps: accepted plus rejected."""
    rejected: int = 0
    """Attempted steps whose error estimate exceeded the tolerance."""


def u_from_q(values, grid: TauGrid):
    """u = 2 dq/dtau, spectrally."""
    spec = np.fft.rfft(values)
    return 2.0 * np.fft.irfft(1j * grid.wavenumbers() * spec, n=grid.n)


def solve(ic: InitialCondition, params: PhysParams, profile: Profile,
          grid: TauGrid, config: SolverConfig) -> SolverResult:
    kap = grid.wavenumbers()                  # ConfigError if windowed
    nk2 = -params.nu * (kap * kap)
    n_spec = kap.size
    m = n_spec - (grid.n // 2 - grid.n // 3)   # 2/3-rule band [0, m)
    ik = (1j * kap)[:m]
    n_band = _A_COEF.size * m

    # workspaces every step writes in place
    spectra = np.empty((7, n_spec), dtype=complex)   # stage nonlinear terms
    terms = np.empty((7, m), dtype=complex)
    arg = np.empty(n_band + n_spec - m)
    dec = np.empty_like(arg)
    stage_w = np.empty((_A_COEF.size, m))
    err_w = np.empty((7, m))
    err_w[6] = _ERR[6]                   # n_6's decay(6, 6) is 1
    err_coef = _ERR[:6, None]
    # error and proposal spectra, used in turn: the state is the proposal
    # last accepted, and no write reaches the error row above the band
    specs = np.zeros((2, 2, n_spec), dtype=complex)
    vals = np.empty((2, grid.n))
    # the nonlinear term's value, gradient and product samples
    real = np.empty((3, grid.n))

    # views of the workspaces, made once a call: a step costs mostly
    # numpy's per-call overhead, and a view is one more call
    nk2_band, nk2_tail = nk2[:m], nk2[m:]
    band_arg, band_dec = (v[:n_band].reshape(-1, m) for v in (arg, dec))
    tail_arg, tail_dec = arg[n_band:], dec[n_band:]
    err_dec, err_w_dec = band_dec[-6:], err_w[:6]
    spec_views = [(spec, spec[0, :m], spec[1, :m], spec[1, m:])
                  for spec in specs]
    # stage i: the decay of its lead pair (0, i), the weights and stage
    # terms of its i pairs, the stack rows 1..i their products fill, the
    # whole stack, and n_i
    stages = []
    for i in range(1, 7):
        t = i * (i - 1) // 2
        stages.append((band_dec[t], stage_w[t:t + i], spectra[:i, :m],
                       terms[1:i + 1], terms[:i + 1], spectra[i]))
    band_spectra = spectra[:, :m]
    lead_term, fsal_in, fsal_out = terms[0], spectra[0], spectra[6]
    err_vals, proposal_vals = vals
    val_grad, (value, grad, prod) = real[:2], real

    # np.fft.rfft and np.fft.irfft's gufuncs, called as the wrapper would
    pocketfft = np.fft._pocketfft_umath
    rfft, irfft = pocketfft.rfft_n_even, pocketfft.irfft
    inv_n = 1.0 / grid.n

    a = params.a
    if config.form == "q":
        grad_band = np.empty(m, dtype=complex)

        def nonlinear(band, out):
            np.multiply(ik, band, out=grad_band)
            irfft(grad_band, inv_n, out=grad)
            np.multiply(grad, a, out=prod)
            np.multiply(prod, grad, out=prod)
            rfft(prod, 1.0, out=out)
    else:
        bands = np.empty((2, m), dtype=complex)   # value and i k bands
        val_band, grad_band = bands

        def nonlinear(band, out):
            val_band[:] = band
            np.multiply(ik, band, out=grad_band)
            irfft(bands, inv_n, out=val_grad)
            np.multiply(value, a, out=prod)
            np.multiply(prod, grad, out=prod)
            rfft(prod, 1.0, out=out)

    w = ic.sample(grid)
    cur = 0
    state = np.fft.rfft(w if config.form == "q" else u_from_q(w, grid),
                        out=specs[1 - cur, 1])

    x_st = config.stations
    z_st = [float(profile.zeta_of_x(x)) for x in x_st]
    result_fields: List[np.ndarray] = []

    zeta = 0.0
    nxt = 0
    if z_st[0] == 0.0:
        result_fields.append(np.fft.irfft(state, n=grid.n))
        nxt = 1

    span = z_st[-1] if z_st[-1] > 0.0 else 1.0
    h = min(1e-4 * max(span, 1.0), span / 100.0)
    h_floor = max(1e-13, 1e-11 * span)
    err_prev = 1.0
    nonlinear(state[:m], fsal_in)     # FSAL seed
    steps = rejected = 0

    while nxt < len(z_st):
        if steps >= _MAX_STEPS:
            raise ResolutionError(
                f"step budget {_MAX_STEPS} exhausted at zeta = {zeta:g}",
                suggested_n=2 * grid.n)
        hitting = z_st[nxt] - zeta <= h
        if hitting:
            h = z_st[nxt] - zeta

        # physical x at the stage points; differences feed the decay factors
        zs = zeta + _C * h
        xs = np.asarray(profile.x_of_zeta(zs), dtype=float)

        # every stage pair on the band, then pair (0, 6) above it.  x is
        # monotone in zeta and k^2 largest last, so arg[-1] is the smallest
        np.multiply(nk2_band, xs[_PAIR_I] - xs[_PAIR_J], out=band_arg)
        np.multiply(nk2_tail, xs[6] - xs[0], out=tail_arg)
        if arg[-1] >= _EXP_FLOOR:
            np.exp(arg, out=dec)
        else:
            dec.fill(0.0)
            np.exp(arg, out=dec, where=arg >= _EXP_FLOOR)
        np.multiply(h * _A_COEF, band_dec, out=stage_w)
        np.multiply(err_coef, err_dec, out=err_w_dec)

        # stage i: decay(0, i) state + sum over j < i of h a_ij decay(j, i)
        # n_j, added in that order by one reduce over the stacked terms;
        # the proposal band is stage 6's sum
        spec, err_band, band, tail = spec_views[cur]
        _, _, state_band, state_tail = spec_views[1 - cur]
        for lead, w, n_in, rows, stack, n_out in stages:
            np.multiply(lead, state_band, out=lead_term)
            np.multiply(w, n_in, out=rows)
            np.add.reduce(stack, axis=0, out=band)
            nonlinear(band, n_out)
        np.multiply(tail_dec, state_tail, out=tail)

        np.multiply(err_w, band_spectra, out=terms)
        np.add.reduce(terms, axis=0, out=err_band)
        np.multiply(err_band, h, out=err_band)

        irfft(spec, inv_n, out=vals)
        err = max(np.maximum.reduce(err_vals), -np.minimum.reduce(err_vals))
        scale = config.tol * (1.0 + max(np.maximum.reduce(proposal_vals),
                                        -np.minimum.reduce(proposal_vals)))
        ratio = err / scale
        steps += 1

        if ratio <= 1.0:
            zeta += h
            cur = 1 - cur
            fsal_in[:] = fsal_out
            if hitting:
                result_fields.append(proposal_vals.copy())
                nxt += 1
            fac = _SAFETY * max(ratio, 1e-10) ** -_PI_ALPHA * err_prev ** _PI_BETA
            err_prev = max(ratio, 1e-10)
        else:
            rejected += 1
            fac = _SAFETY * ratio ** -_PI_ALPHA
        h *= min(_FAC_MAX, max(_FAC_MIN, fac))
        if h < h_floor:
            raise ResolutionError(
                f"step size collapsed to {h:.3e} at zeta = {zeta:g}; "
                "the solution is too sharp for this grid",
                suggested_n=2 * grid.n)

    return SolverResult(grid=grid, form=config.form,
                        x_stations=tuple(x_st), zeta_stations=tuple(z_st),
                        fields=result_fields, steps=steps, rejected=rejected)


def residual(fields, zetas, a, mu, grid: TauGrid, *, form="q"):
    """Max-norm equation defect over increasing, uniformly spaced stations.

    ``fields`` holds one row of ``grid.n`` samples per station; ``a`` is
    the nonlinearity and ``mu`` the absorption at each station, or one
    value for all of them (the equation reads the duct through mu alone).
    Central differences along the march, spectral tau derivatives on
    periodic grids and central differences on windowed ones; only
    interior stations (and interior tau points, if windowed) count.
    """
    if form not in ("q", "u"):
        raise ConfigError(f"form must be 'q' or 'u', got {form!r}")
    zetas = np.asarray(zetas, dtype=float)
    if zetas.size < 3:
        raise SpacingError("need at least three stations")
    dz = np.diff(zetas)
    step = dz[0]
    if not step > 0.0:
        raise SpacingError(f"station step {step:g} must be positive")
    if np.max(np.abs(dz - step)) > 1e-9 * step:
        raise SpacingError("stations are not uniformly spaced")

    stack = np.asarray(fields, dtype=float)
    if stack.shape != (zetas.size, grid.n):
        raise ConfigError(
            f"expected {zetas.size} fields of {grid.n} samples, "
            f"got {stack.shape}")
    mu = np.asarray(mu, dtype=float)
    try:
        mu = np.broadcast_to(mu, zetas.shape)[1:-1, None]
    except ValueError as err:
        raise ConfigError(f"mu of shape {mu.shape} does not broadcast to "
                          f"{zetas.size} stations") from err

    if grid.periodic:
        kap = grid.wavenumbers()
        spec = np.fft.rfft(stack, axis=1)
        d_tau = np.fft.irfft(1j * kap * spec, n=grid.n, axis=1)
        d_tautau = np.fft.irfft(-kap * kap * spec, n=grid.n, axis=1)
        sl = slice(None)
    else:
        dt = grid.dtau
        d_tau = np.gradient(stack, dt, axis=1, edge_order=2)
        d_tautau = (stack[:, :-2] - 2.0 * stack[:, 1:-1] + stack[:, 2:]) / dt ** 2
        d_tau = d_tau[:, 1:-1]
        sl = slice(1, -1)

    d_z = (stack[2:, sl] - stack[:-2, sl]) / (2.0 * step)
    mid = stack[1:-1, sl]
    if form == "q":
        defect = d_z - a * d_tau[1:-1] ** 2 - mu * d_tautau[1:-1]
    else:
        defect = d_z - a * mid * d_tau[1:-1] - mu * d_tautau[1:-1]
    return float(np.max(np.abs(defect)))
