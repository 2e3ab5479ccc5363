"""BFGS minimization with strong Wolfe line search and a random-restart loop."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .objective import ReconstructionObjective, first_positive_gap
from .operators import OperatorBasis

# Fixed solver settings, read at call time. Only the acceptance threshold,
# the budgets and the seed are configurable (SolveConfig).
EPS0 = 1e-6  # gradient-norm stationarity threshold when no f_target is given
INIT_LOW, INIT_HIGH = -1.0, 1.0  # uniform range of each restart's x0
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9  # sufficient-decrease and curvature constants
LINE_SEARCH_MAX_EVALS = 60  # objective evaluations one line search may spend
HOPS_PER_RESTART = 12  # outward basin-hop proposals after each stall
# A hop back within RETURN_RADIUS * ||x*|| of its home x*, at f >= f*, has
# returned. Chosen on generic, local_full and level-sweep n = 4 suites
# (seeds 22, 23, 27, 28): rerun to the end, none of the 1341 hops cut at 0.2
# would have solved its row and 6 would have ended below f*; at 0.3, 2 of
# 1490 would have solved it and 27 ended lower, at 0.4, 8 and 103 of 2882.
RETURN_RADIUS = 0.2
RANGE_SLACK = 1e-10  # a measurement's round-off past its term's range, per unit of spectral radius


def require_int(name: str, value, minimum: Optional[int] = None) -> None:
    """Raise ValueError unless value is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


@dataclass
class SolveConfig:
    eps: float = 1e-8  # objective acceptance threshold
    max_iters: int = 500  # per BFGS run
    max_restarts: int = 50
    seed: Optional[int] = None

    def __post_init__(self):
        eps = self.eps
        if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not 0 < eps < math.inf:
            raise ValueError(f"eps must be a finite positive number, got {eps!r}")
        require_int("max_iters", self.max_iters, 1)
        require_int("max_restarts", self.max_restarts, 1)
        if self.seed is not None:
            require_int("seed", self.seed, 0)

    @classmethod
    def from_dict(cls, obj: dict) -> "SolveConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown solve-config keys: {sorted(unknown)}")
        return cls(**obj)


@dataclass
class SolveResult:
    x_opt: np.ndarray
    f_final: float
    grad_norm: float
    restarts: int  # restarts used, the winning one included
    iterations: int  # BFGS iterations over all restarts and hops
    converged: bool
    gap_first_initial: float  # first positive gap of Hs^2 at x^(0) of the winning restart
    gap_first_final: float
    ground_prob_final: float


class BfgsOutcome(NamedTuple):
    x: np.ndarray
    f: float
    grad_norm: float
    iterations: int
    inv_hessian: np.ndarray
    # why the run ended. target: f below f_target; gradient: gradient norm
    # below 1e-12, or below EPS0 when there is no target; iter_cap:
    # cfg.max_iters iterations; line_search: a line search failed; norm_cap:
    # a step left ITERATE_NORM_CAP; returned: a hop fell back home
    stop: str


class _LineSearchFailure(Exception):
    pass


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-D vector, bit for bit np.linalg.norm(v)."""
    return math.sqrt(v.dot(v))


# Converged coefficient vectors sit at ||x|| of a few tens at most; beyond
# this the squared-Hamiltonian spectrum exceeds float64 resolution.
ITERATE_NORM_CAP = 1e5


def _cubic_minimum(a_lo, f_lo, g_lo, a_hi, f_hi, g_hi):
    """Minimizer of the cubic interpolant; None when it is not usable."""
    if a_lo == a_hi:
        return None
    d1 = g_lo + g_hi - 3 * (f_lo - f_hi) / (a_lo - a_hi)
    disc = d1 * d1 - g_lo * g_hi
    if disc < 0:
        return None
    d2 = math.copysign(math.sqrt(disc), a_hi - a_lo)
    denom = g_hi - g_lo + 2 * d2
    if denom == 0:
        return None
    a = a_hi - (a_hi - a_lo) * (g_hi + d2 - d1) / denom
    return a if math.isfinite(a) else None


def _drive(steps, answer):
    """Run a step generator to its return value, sending answer(r) back for each request r it yields."""
    try:
        request = next(steps)
        while True:
            request = steps.send(answer(request))
    except StopIteration as stop:
        return stop.value


def _wolfe_steps(f0, g0, c1, c2, max_evals, a_max=1e10):
    """_wolfe_search as a generator: yields each trial step a, is sent back
    (phi(a), dphi(a)), and returns or raises as _wolfe_search does."""
    eps = math.ulp(1.0)  # machine epsilon
    evals = [0]

    def spend():  # one more evaluation, within the budget
        evals[0] += 1
        if evals[0] > max_evals:
            raise _LineSearchFailure

    def zoom(a_lo, f_lo, g_lo, a_hi, f_hi, g_hi):
        while True:
            a = _cubic_minimum(a_lo, f_lo, g_lo, a_hi, f_hi, g_hi)
            lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
            width = hi - lo
            if a is None or not (lo + 0.05 * width < a < hi - 0.05 * width):
                a = 0.5 * (a_lo + a_hi)
            if width < 1e-16 * max(1.0, abs(a_lo)) or width * -g0 <= eps * f0:
                raise _LineSearchFailure
            spend()
            fa, ga = yield a
            if fa > f0 + c1 * a * g0 or fa >= f_lo:
                a_hi, f_hi, g_hi = a, fa, ga
            else:
                if abs(ga) <= -c2 * g0:
                    return a, fa
                if ga * (a_hi - a_lo) >= 0:
                    a_hi, f_hi, g_hi = a_lo, f_lo, g_lo
                a_lo, f_lo, g_lo = a, fa, ga

    a_prev, f_prev, g_prev = 0.0, f0, g0
    a = min(1.0, a_max)
    while True:
        spend()
        fa, ga = yield a
        if fa > f0 + c1 * a * g0 or (a_prev > 0 and fa >= f_prev):
            return (yield from zoom(a_prev, f_prev, g_prev, a, fa, ga))
        if abs(ga) <= -c2 * g0:
            return a, fa
        if ga >= 0:
            return (yield from zoom(a, fa, ga, a_prev, f_prev, g_prev))
        if a >= a_max:  # capped extension: accept the Armijo-satisfying step
            return a, fa
        a_prev, f_prev, g_prev = a, fa, ga
        a = min(2 * a, a_max)


def _wolfe_search(phi, dphi, f0, g0, c1, c2, max_evals, a_max=1e10):
    """Strong Wolfe line search (bracket then zoom with cubic interpolation).

    phi(a)/dphi(a) evaluate the restricted objective and its slope; g0 < 0 is
    required. Returns (alpha, f_alpha). Raises _LineSearchFailure when the
    evaluation budget runs out without an acceptable step, or when zoom's
    bracket can no longer tell two steps apart: either its width is below
    1e-16 * max(1, |a_lo|), or the largest change of f it can hold,
    width * |g0|, is within one unit of round-off of f0 (Moré & Thuente's
    "rounding errors prevent progress").
    """
    return _drive(_wolfe_steps(f0, g0, c1, c2, max_evals, a_max), lambda a: (phi(a), dphi(a)))


def _bfgs_steps(
    x0: np.ndarray, cfg: SolveConfig, f_target: Optional[float] = None, home: Optional[tuple] = None
):
    """bfgs_minimize as a generator: yields each point x, is sent back
    (f(x), grad f(x)), and returns the BfgsOutcome."""
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 contains non-finite entries")
    if home is not None:
        x_home, f_home = home
        home_radius = RETURN_RADIUS * _norm(x_home)
    n = x.size
    h = np.eye(n)
    fx, gx = yield x
    gnorm = _norm(gx)
    best_x, best_f, best_g = x, fx, gnorm
    first_update = True
    iterations = 0
    while True:
        if f_target is not None and fx < f_target:
            stop = "target"
            break
        if gnorm < 1e-12 or (f_target is None and gnorm < EPS0):
            stop = "gradient"
            break
        if iterations == cfg.max_iters:
            stop = "iter_cap"
            break
        p = -(h @ gx)
        slope = float(p @ gx)
        if slope >= 0:  # numerical loss of descent: reset to steepest descent
            h = np.eye(n)
            p = -gx
            slope = -float(gx @ gx)

        # keep a single line search from jumping more than three decades past
        # the current iterate; runaway directions are cut off by the norm cap
        a_max = max(1.0, 1e3 * (1.0 + _norm(x)) / _norm(p))
        search = _wolfe_steps(fx, slope, WOLFE_C1, WOLFE_C2, LINE_SEARCH_MAX_EVALS, a_max)
        x_alpha, g_alpha = {}, {}
        try:
            a = next(search)
            while True:  # the search's trial steps a, as points x + a p
                xa = x_alpha[a] = x + a * p
                fa, g_alpha[a] = yield xa
                a = search.send((fa, float(g_alpha[a] @ p)))
        except StopIteration as found:
            alpha, f_new = found.value
        except _LineSearchFailure:
            stop = "line_search"
            break
        iterations += 1
        s = alpha * p
        x_new = x_alpha[alpha]  # x + s: the search only returns steps it evaluated
        if _norm(x_new) > ITERATE_NORM_CAP:
            # far beyond any meaningful inverse-temperature scale; the matrix
            # exponentials are pure round-off out here, so abandon the restart
            stop = "norm_cap"
            break
        g_new = g_alpha[alpha]
        y = g_new - gx
        sy = float(s @ y)
        if sy > 1e-12:
            if first_update:
                h = (sy / float(y @ y)) * np.eye(n)
                first_update = False
            rho = 1.0 / sy
            hy = h @ y
            s_hy = s[:, None] * hy  # np.outer(s, hy); its transpose is np.outer(hy, s)
            h = h - rho * (s_hy + s_hy.T) + rho * (rho * float(y @ hy) + 1.0) * (s[:, None] * s)
        x, fx, gx = x_new, f_new, g_new
        gnorm = _norm(gx)
        if fx < best_f:
            best_x, best_f, best_g = x, fx, gnorm
        if home is not None and fx >= f_home and _norm(x - x_home) <= home_radius:
            stop = "returned"
            break
    return BfgsOutcome(best_x, best_f, best_g, iterations, h, stop)


def bfgs_minimize(
    objective: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: SolveConfig,
    f_target: Optional[float] = None,
    home: Optional[tuple] = None,
) -> BfgsOutcome:
    """BFGS with the standard rank-2 inverse-Hessian update.

    Stops once the objective is below f_target, or, when no f_target is
    given, once the gradient norm is below EPS0 (the flat tail of the
    reconstruction objective has small gradients well before the objective
    itself is small); also at a gradient norm below 1e-12, at the iteration
    cap, on line-search failure and past ITERATE_NORM_CAP. A basin hop
    passes its home (x*, f*), the minimum it was proposed from, and stops
    as returned after the first iteration that lands within
    RETURN_RADIUS * ||x*|| of x* with f >= f*: it has fallen back into the
    basin it left. Always returns the best iterate seen, and why it stopped.
    """
    return _drive(_bfgs_steps(x0, cfg, f_target, home), lambda x: (objective(x), grad(x)))


def check_measurement_range(basis: OperatorBasis, a: np.ndarray) -> None:
    """Each a_i must be finite and lie in the numerical range of A_i, up to
    RANGE_SLACK times the larger of 1 and A_i's spectral radius."""
    a = np.asarray(a, dtype=float)
    if a.shape != (basis.size,):
        raise ValueError(f"measurement vector length {a.shape} != basis size {basis.size}")
    if not np.all(np.isfinite(a)):
        k = int(np.flatnonzero(~np.isfinite(a))[0])
        raise ValueError(f"measurement a[{k}] = {a[k]} is not finite")
    for k, term in enumerate(basis.terms):
        w = np.linalg.eigvalsh(term)
        slack = RANGE_SLACK * max(1.0, abs(w[0]), abs(w[-1]))
        if a[k] < w[0] - slack or a[k] > w[-1] + slack:
            raise ValueError(
                f"measurement a[{k}] = {a[k]:.6g} outside the numerical range "
                f"[{w[0]:.6g}, {w[-1]:.6g}] of term {basis.labels[k]}"
            )


# Basin-hop proposal parameters. A stalled minimizer almost always sits at a
# scale too small for the global valley, pointing within a few degrees of a
# nearby deeper basin; proposals therefore push outward in norm with a small
# random rotation of the direction.
HOP_SCALE_CHOICES = (1.2, 1.5, 2.0)
HOP_SIGMA_CHOICES = (0.05, 0.1, 0.2)
HOP_MIN_NORM = 8.0


def _hop_proposal(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Outward-rescaled, direction-perturbed start point near a stalled iterate."""
    xn = float(np.linalg.norm(x))
    if xn == 0.0:
        return rng.standard_normal(x.size)
    s = max(float(rng.choice(HOP_SCALE_CHOICES)) * xn, HOP_MIN_NORM)
    prop = x / xn + float(rng.choice(HOP_SIGMA_CHOICES)) * rng.standard_normal(x.size)
    return s * prop / float(np.linalg.norm(prop))


def _restart_steps(obj: ReconstructionObjective, cfg: SolveConfig):
    """The restart/hop loop of solve_hamiltonian as a generator: yields the
    start point and home of each BFGS run, is sent back the run's
    BfgsOutcome, and returns the SolveResult. A restart has no home (None);
    a hop's home is the chain's point (x, f), which it was proposed from."""
    rng = np.random.default_rng(cfg.seed)
    best: Optional[BfgsOutcome] = None
    best_x0 = None
    iterations = 0
    for restarts in range(1, cfg.max_restarts + 1):
        x0 = rng.uniform(INIT_LOW, INIT_HIGH, obj.size)
        outcome = yield x0, None
        iterations += outcome.iterations
        for _ in range(HOPS_PER_RESTART):
            if outcome.f < cfg.eps:
                break
            hop = yield _hop_proposal(outcome.x, rng), (outcome.x, outcome.f)
            iterations += hop.iterations
            if hop.f < outcome.f:
                outcome = hop
        if best is None or outcome.f < best.f:
            best, best_x0 = outcome, x0
        if outcome.f < cfg.eps:
            break
    final = obj.diagnostics(best.x)
    return SolveResult(
        x_opt=best.x,
        f_final=best.f,
        grad_norm=best.grad_norm,
        restarts=restarts,
        iterations=iterations,
        converged=bool(best.f < cfg.eps),
        gap_first_initial=first_positive_gap(obj.diagnostics(best_x0).spectrum),
        gap_first_final=first_positive_gap(final.spectrum),
        ground_prob_final=final.ground_prob,
    )


def _objective(basis: OperatorBasis, a) -> ReconstructionObjective:
    a = np.asarray(a, dtype=float)
    check_measurement_range(basis, a)
    return ReconstructionObjective(basis, a)


def solve_hamiltonian(basis: OperatorBasis, a, cfg: Optional[SolveConfig] = None) -> SolveResult:
    """Random-restart outer loop: BFGS from fresh uniform draws until f < eps.

    Each restart that stalls above the acceptance threshold is followed by a
    short monotone basin-hopping chain (HOPS_PER_RESTART proposals from
    _hop_proposal, keeping a hop only when it improves the chain); spurious
    minimizers cluster at small norm close in angle to deeper basins, so the
    chains convert many otherwise-wasted restarts into solutions. A hop
    that falls back near the chain's point without undercutting it is cut
    short (bfgs_minimize's home): it would almost always settle into the
    minimum the chain already holds.

    Exhausting the restart budget returns the best-so-far iterate with
    converged = False; it is a reportable outcome, not an exception.
    """
    if cfg is None:
        cfg = SolveConfig()
    obj = _objective(basis, a)
    return _drive(
        _restart_steps(obj, cfg),
        lambda run: bfgs_minimize(obj.value, obj.gradient, run[0], cfg, f_target=cfg.eps, home=run[1]),
    )


def solve_steps(basis: OperatorBasis, a, cfg: SolveConfig):
    """solve_hamiltonian as one generator of evaluation points, for callers
    that evaluate many solves together.

    Returns (objective, steps): steps yields each point x at which the
    objective's value and gradient are needed, is sent back (f, grad), and
    returns the SolveResult that solve_hamiltonian returns for the same
    arguments, bit for bit, when every answer has the bits of
    (objective.value(x), objective.gradient(x)).
    """
    obj = _objective(basis, a)
    return obj, _solve_points(obj, cfg)


def _solve_points(obj: ReconstructionObjective, cfg: SolveConfig):
    runs = _restart_steps(obj, cfg)
    try:
        x0, home = next(runs)
        while True:
            x0, home = runs.send((yield from _bfgs_steps(x0, cfg, cfg.eps, home)))
    except StopIteration as stop:
        return stop.value
