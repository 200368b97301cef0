"""Metropolis transition, ball-restricted variant, chain runner, step tuner.

``mh_step`` is the one step for every proposal variant; a chain's state is
the record ``State(u, phi, aux, pack, mean, quad)``.  A target is named by
its potential alone: it is exp(-phi) times ``kernel.prior``, the chain's one
prior.  The potential returns ``(phi(u), aux)``, where aux is whatever it
computed at u that the pack and the QoI also read (the elliptic potential's
forward solve), or None; the record carries aux to ``kernel.pack_at(u, aux)``
and the QoI.  It also carries what the next proposal reads from u, the
proposal mean and, for rw and gn-rw, the prior quadratic, computed by
``proposals`` once per state, so a rejected step does not recompute them.

Determinism contract: every step consumes exactly one standard normal vector
(the proposal draw) followed by one uniform (the accept test), both drawn by
``mh_step`` from the chain's ``numpy.random.Generator``, so a fixed seed
reproduces a trace bit for bit.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .gaussian_ops import OperatorPack
from .proposals import (
    ProposalKernel,
    log_acceptance_correction,
    prior_quadratic,
    proposal_mean,
    propose,
)

S_LO = 1e-4
S_HI = 0.999
# Failure probability of the tuner's confidence stop, per pilot.  A pilot of
# n steps checks its Hoeffding interval after every step, so each check gets
# PILOT_DELTA / n (a union bound).  At 1e-3, with independent accepts, at
# most one pilot in a thousand stops on the wrong side, and the half-width's
# log factor ln(2n / delta) is 14.5 for n = 1000: a tenfold smaller delta
# would lengthen every pilot the confidence rule stops by about 16%.
PILOT_DELTA = 1e-3


class State(NamedTuple):
    """A chain's state u with ``(phi, aux) = phi(u)``, ``pack =
    kernel.pack_at(u, aux)``, ``mean = proposal_mean(kernel, u, pack)`` and
    ``quad = prior_quadratic(kernel, u)`` (None but for rw and gn-rw)."""
    u: np.ndarray
    phi: float
    aux: object
    pack: Optional[OperatorPack]
    mean: np.ndarray
    quad: Optional[float]


def mh_step(kernel, phi, state, rng, radius=None):
    """One Metropolis transition from the ``State`` record ``state`` on the
    target exp(-phi) d(kernel.prior).

    Draws z, then the accept test's uniform, and accepts v = propose(kernel,
    mean(u), z, pack(u)) with probability min{1, exp(phi(u) - phi(v) +
    correction)}, times the indicator ||v|| < radius when a radius is given.
    A non-finite phi(v) or correction counts as a rejection.
    ``kernel.pack_at(v, aux)`` runs once, only for a v that passed the ball
    and phi checks.  Returns ``(state, accepted)``: the candidate's record on
    accept, the given one otherwise.
    """
    u, phi_u, _, pack_u, mean_u, quad_u = state
    z = rng.standard_normal(kernel.prior.dim)
    accept_u = rng.random()
    v = propose(kernel, mean_u, z, pack_u)
    if radius is not None and np.linalg.norm(v) >= radius:
        return state, False
    phi_v, aux_v = phi(v)
    if not math.isfinite(phi_v):
        return state, False
    pack_v = kernel.pack_at(v, aux_v)
    quad_v = prior_quadratic(kernel, v)
    correction = log_acceptance_correction(kernel, u, v, pack_u, pack_v, quad_u, quad_v)
    if not math.isfinite(correction):
        return state, False
    if np.log(accept_u) < phi_u - phi_v + correction:
        return State(v, phi_v, aux_v, pack_v, proposal_mean(kernel, v, pack_v), quad_v), True
    return state, False


@dataclass(frozen=True)
class ChainConfig:
    """A chain of ``n0`` burn-in and ``n`` sampling steps from ``initial_state``
    (zero by default), seeded by ``seed``, on the target exp(-phi) d(kernel.prior).

    ``thin`` keeps every thin-th post burn-in state in ``ChainTrace.states``;
    ``None`` keeps none, so a chain whose caller reads only the accept flags
    and the QoI series holds O(n) scalars instead of n / thin states of N
    floats.  ``qoi`` maps names to functions (u, aux) of the state and its
    potential's aux, each recorded at every post burn-in step whatever
    ``thin`` is.
    """
    kernel: ProposalKernel
    phi: Callable[[np.ndarray], tuple]
    n: int
    n0: int
    seed: int
    initial_state: Optional[np.ndarray] = None
    restriction_radius: Optional[float] = None
    thin: Optional[int] = 1
    qoi: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("n", "n0"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {count!r}")
        thin = self.thin
        if thin is not None and (isinstance(thin, bool) or not isinstance(thin, numbers.Integral)
                                 or thin < 1):
            raise ValueError(f"thin must be None or an integer >= 1, got {thin!r}")
        start = self.initial_state
        if start is None:
            start = np.zeros(self.kernel.prior.dim)
        else:
            start = np.asarray(start, dtype=float)
            if start.shape != (self.kernel.prior.dim,):
                raise ValueError("initial state dimension mismatch")
            if not np.isfinite(start).all():
                i = int(np.argmin(np.isfinite(start)))
                raise ValueError(f"initial state must be finite, "
                                 f"got initial_state[{i}] = {start[i]}")
        object.__setattr__(self, "initial_state", start)
        r = self.restriction_radius
        if r is not None:
            if not (np.isfinite(r) and r > 0):
                raise ValueError(f"restriction radius must be positive and finite, got {r}")
            if np.linalg.norm(start) >= r:
                raise ValueError("initial state violates the restriction radius")


@dataclass
class ChainTrace:
    """What ``run_chain`` recorded.  ``states`` holds the post burn-in states
    that ``ChainConfig.thin`` kept, shape (ceil(n / thin), N), or (0, N) for
    ``thin=None``; ``accepts`` and ``qoi_series`` are kept in full."""
    states: np.ndarray          # retained (thinned) post burn-in states
    accepts: np.ndarray         # accept flags over all n0 + n steps
    qoi_series: dict            # name -> length-n series over post burn-in steps
    acceptance_rate: float
    wall_time: float
    n: int
    n0: int


def run_chain(config: ChainConfig,
              stop: Optional[Callable[[int, int], bool]] = None) -> ChainTrace:
    """Run n0 burn-in plus n sampling steps; deterministic for a fixed seed.

    Burn-in states are discarded from ``states`` but counted in ``accepts``;
    the QoI series has a value at every post burn-in step, and thinning
    applies to state storage only: ``thin=None`` stores no state, so the
    run holds O(n) scalars plus O(N) for the current state.  A QoI is
    evaluated at the first post burn-in state and after each accepted step;
    a rejected step keeps the state, so its value is copied from the
    previous step.

    The chain state is the ``State`` record that ``mh_step`` takes and
    returns: the initial state's record is built once here.  A step looks
    up one pack (for a local variant, one curvature evaluation) for its
    candidate, and computes the candidate's proposal mean only on accept.

    ``stop(steps, accepted)``, when given, is called after each step with
    the steps run so far and how many of them were accepted; once it returns
    True the run ends, and the trace covers only the steps that ran (its
    ``n0`` and ``n`` say how many of each kind).
    """
    rng = np.random.default_rng(config.seed)
    kernel, phi, radius = config.kernel, config.phi, config.restriction_radius
    n, n0, thin = config.n, config.n0, config.thin

    u = config.initial_state
    phi_u, aux_u = phi(u)
    if not math.isfinite(phi_u):
        raise ValueError("phi is not finite at the initial state")
    pack = kernel.pack_at(u, aux_u)
    state = State(u, phi_u, aux_u, pack, proposal_mean(kernel, u, pack), prior_quadratic(kernel, u))

    total = n0 + n
    accepts = bytearray(total)
    qoi_series = {name: np.empty(n) for name in config.qoi}
    recorders = [(qoi_series[name], fn) for name, fn in config.qoi.items()]
    n_kept = 0 if thin is None else len(range(0, n, thin))
    states = np.empty((n_kept, kernel.prior.dim))
    records = bool(recorders) or n_kept > 0          # a tuner pilot records nothing

    t0 = time.perf_counter()
    kept = 0
    steps, n_accepted = total, 0
    for i in range(total):
        state, accepted = mh_step(kernel, phi, state, rng, radius=radius)
        accepts[i] = accepted
        j = i - n0
        if records and j >= 0:
            for series, fn in recorders:
                series[j] = fn(state.u, state.aux) if j == 0 or accepted else series[j - 1]
            if thin is not None and j % thin == 0:
                states[kept] = state.u
                kept += 1
        if stop is not None:
            n_accepted += accepted
            if stop(i + 1, n_accepted):
                steps = i + 1
                break
    wall = time.perf_counter() - t0

    accepts = np.frombuffer(accepts, dtype=bool, count=steps)
    n_run = max(steps - n0, 0)
    rate = float(accepts.mean()) if steps > 0 else 0.0
    return ChainTrace(states=states[:kept], accepts=accepts,
                      qoi_series={name: series[:n_run] for name, series in qoi_series.items()},
                      acceptance_rate=rate, wall_time=wall, n=n_run, n0=steps - n_run)


class TuneResult(NamedTuple):
    s: float
    acceptance_rate: float
    converged: bool         # False = boundary / out-of-band warning
    pilots: tuple           # (s, steps run, steps accepted) per pilot, in order


def tune_step_size(kernel, phi, target_rate, pilot_n, rng,
                   initial_state=None, radius=None, tol=0.05, max_iters=30) -> TuneResult:
    """Bisection on log s over [1e-4, 0.999] until a pilot chain's acceptance
    rate lands within ``tol`` of ``target_rate``.

    Acceptance decreases monotonically in s for these proposal families, so
    bisection applies; if even a boundary step size cannot reach the target
    band, the boundary value is returned with ``converged=False``.

    Each pilot ends as soon as its rate is known to lie on the side of its
    threshold where that rate is not returned: for the S_HI pilot, below the
    target; for the S_LO pilot, above it; for a bisection pilot that is not
    the last, out of the band on one side.  After k of n = ``pilot_n`` steps
    with a accepted, the rate is known to lie in the intersection of two
    intervals, both of which contain a / k:

    - exact: the full-pilot rate lies in [a / n, (a + n - k) / n] whatever
      the remaining steps do;
    - confidence: a / k +- h(k), with the Hoeffding half-width
      h(k) = sqrt(ln(2 n / delta) / (2 k)) and delta = ``PILOT_DELTA`` = 1e-3
      shared by the n checks (a union bound).

    A stopped pilot reports its rate so far, a / k, which lies on the side
    the test found.  Hoeffding's bound assumes independent accepts; a
    Markov chain's are correlated, so the confidence interval steers the
    search and does not guarantee the branch a full pilot would take.  What
    holds regardless: every returned rate comes from a pilot that ran all
    ``pilot_n`` steps, so a converged s has a full-length pilot in the band,
    and an unconverged s is a boundary or the last of ``max_iters`` pilots.
    """
    if not 0.0 < target_rate < 1.0:
        raise ValueError("target_rate must lie in (0, 1)")
    if pilot_n < 1000:
        raise ValueError("pilot_n must be at least 1000")
    if not (np.isfinite(tol) and 0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")

    pilots = []
    log_term = math.log(2 * pilot_n / PILOT_DELTA)

    def pilot(s, decides=None):
        """The rate of a pilot at s, which ends once ``decides(low, high)``
        holds on the intersection of the exact and confidence intervals.
        Every decision below is monotone in the rate, so it holds there
        exactly when it holds on one of the two; the exact bounds are the
        float divisions that give the full rate, and a / k lies in the
        intersection, so a stopped pilot takes the branch its test found."""
        def stop(k, a):
            rate, h = a / k, math.sqrt(log_term / (2 * k))
            return decides(max(a / pilot_n, rate - h), min((a + pilot_n - k) / pilot_n, rate + h))

        cfg = ChainConfig(replace(kernel, s=s), phi, n=pilot_n, n0=0,
                          seed=int(rng.integers(0, 2**63)),
                          initial_state=initial_state, restriction_radius=radius, thin=None)
        trace = run_chain(cfg, stop=None if decides is None else stop)
        pilots.append((s, int(trace.accepts.size), int(trace.accepts.sum())))
        return trace.acceptance_rate

    def result(s, rate, converged):
        return TuneResult(s, rate, converged, tuple(pilots))

    def band_side(rate):
        """-1 below the target band, 0 inside it, +1 above it."""
        if abs(rate - target_rate) <= tol:
            return 0
        return 1 if rate > target_rate else -1

    def out_of_band(low, high):
        side = band_side(low)
        return side != 0 and side == band_side(high)

    # Acceptance decreases in s, so acc(S_HI) is the attainable floor and
    # acc(S_LO) the ceiling; boundaries are returned only when the target
    # band cannot be bracketed.
    hi_rate = pilot(S_HI, lambda low, high: high < target_rate)
    if hi_rate >= target_rate:
        return result(S_HI, hi_rate, hi_rate <= target_rate + tol)
    lo_rate = pilot(S_LO, lambda low, high: low > target_rate)
    if lo_rate <= target_rate:
        return result(S_LO, lo_rate, lo_rate >= target_rate - tol)

    lo, hi = S_LO, S_HI
    for i in range(max_iters):
        mid = float(np.sqrt(lo * hi))
        rate = pilot(mid, out_of_band if i < max_iters - 1 else None)
        side = band_side(rate)
        if side == 0:
            return result(mid, rate, True)
        if side > 0:
            lo = mid
        else:
            hi = mid
    return result(mid, rate, False)


def write_trace_csv(trace: ChainTrace, path, header: Optional[dict] = None) -> None:
    """One row per post burn-in step: index, accept flag, QoI columns.

    QoI values are written at 17 significant digits so float64 round-trips
    exactly; ``header`` entries are emitted as leading ``# key = value``
    comment lines.  The column row goes through ``csv.writer``; the rows,
    which need no quoting, are formatted in one pass with its ``\r\n``
    line ending.  A QoI series or accept record that does not cover the n
    post burn-in steps is a ValueError, raised before the file is opened.
    """
    names = list(trace.qoi_series)
    row = "%d,%d" + ",%.17g" * len(names) + "\r\n"
    columns = [trace.accepts[trace.n0:trace.n0 + trace.n].tolist()]
    columns += [trace.qoi_series[name].tolist() for name in names]
    body = "".join(row % values for values in zip(range(trace.n), *columns, strict=True))
    with open(path, "w", newline="") as fh:
        for key, value in (header or {}).items():
            fh.write(f"# {key} = {value}\n")
        csv.writer(fh).writerow(["step", "accept"] + [f"qoi_{name}" for name in names])
        fh.write(body)


def write_state_dump(trace: ChainTrace, path) -> None:
    """Binary dump of the retained states: npy header (shape n x N), row-major float64."""
    np.save(path, np.ascontiguousarray(trace.states, dtype=np.float64))


def read_trace_csv(path):
    """Read a trace CSV back: returns (header dict, steps, accepts, {qoi name: series}).

    Lines starting with ``#`` are header entries wherever they appear; the
    rows are parsed into one float array as they are read, with the
    correctly rounded decimal conversion of ``float``, so a 17-digit QoI
    column reads back bit for bit.
    """
    header = {}

    def body(fh):
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
            else:
                yield line

    with open(path, newline="") as fh:
        lines = body(fh)
        columns = next(csv.reader(lines), None)
        if columns is None:
            raise ValueError(f"trace file {path} has no header row")
        first = next(lines, None)
        if first is None:
            raise ValueError(f"trace file {path} contains no samples")
        arr = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2)
    if arr.shape[1] != len(columns):
        raise ValueError(f"trace file {path} has {arr.shape[1]} values per row "
                         f"but {len(columns)} column names")
    qoi = {name[len("qoi_"):]: arr[:, k] for k, name in enumerate(columns) if name.startswith("qoi_")}
    return header, arr[:, 0].astype(int), arr[:, 1].astype(bool), qoi
