"""BFGS minimization with strong Wolfe line search and a random-restart loop."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .objective import ReconstructionObjective, first_positive_gap
from .operators import OperatorBasis, require_float, require_int, require_json, require_keys, shown

# Fixed solver settings, read at call time. Only the acceptance threshold,
# the budgets and the seed are configurable (SolveConfig).
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
GRAD_NORM_STOP = 1e-12  # a run stops below this gradient norm: its line search would divide by ||p||
CURVATURE_FLOOR = 1e-12  # the BFGS update divides by s.y, and is skipped unless s.y exceeds this


@dataclass
class SolveConfig:
    eps: float = 1e-8  # objective acceptance threshold
    max_iters: int = 500  # per BFGS run
    max_restarts: int = 50
    seed: Optional[int] = None

    def __post_init__(self):
        if not 0 < require_float("eps", self.eps) < math.inf:
            raise ValueError(f"eps must be a finite positive number, got {shown(self.eps)}")
        require_int("max_iters", self.max_iters, 1)
        require_int("max_restarts", self.max_restarts, 1)
        if self.seed is not None:
            require_int("seed", self.seed, 0)

    @classmethod
    def from_dict(cls, obj: dict) -> "SolveConfig":
        require_json("solve config", obj)
        require_keys("solve-config", obj, cls)
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
    # below GRAD_NORM_STOP; iter_cap: cfg.max_iters iterations; line_search: a line
    # search failed; norm_cap: a step left ITERATE_NORM_CAP; returned: a hop
    # fell back home
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


def _wolfe_steps(x, p, f0, slope):
    """Strong Wolfe line search along x + a p as a generator: yields each
    trial point x + a p, is sent back (f, grad f) there, and returns
    (a, f, point, gradient) of the step it accepts, always its last trial.
    Needs slope = grad f(x) . p < 0. Steps are capped at
    a_max = max(1, 1e3 (1 + ||x||) / ||p||): one search never jumps more than
    three decades past x, and runaway directions meet the norm cap.

    One loop of at most LINE_SEARCH_MAX_EVALS trials keeps a low end
    (a_lo, f_lo, g_lo), first (0, f0, slope), and a high end, None until a
    step is bracketed. Unbracketed, the trials are 1 (as a_max >= 1), then
    doublings up to a_max; bracketed, the cubic interpolant's minimizer, or
    the midpoint when that is outside the bracket's middle 90%. A trial above
    the sufficient-decrease line, or not below f_lo (unbracketed: once
    a_lo > 0), becomes the high end; one that meets the curvature test is
    accepted; of the rest, one whose slope points back at the low end
    (ga >= 0 unbracketed, ga (a_hi - a_lo) >= 0 bracketed) moves it to the
    high end and takes its place, one still unbracketed at a_max is
    accepted, and any other becomes the low end.

    Raises _LineSearchFailure when the trials run out, or when the bracket
    can no longer tell two steps apart: its width is below 1e-16 max(1,
    |a_lo|), or width * |slope|, the largest change of f it can hold, is
    within round-off of f0 ("rounding errors prevent progress", Moré & Thuente).
    """
    eps = math.ulp(1.0)  # machine epsilon
    a_max = max(1.0, 1e3 * (1.0 + _norm(x)) / _norm(p))
    a_lo, f_lo, g_lo = 0.0, f0, slope
    high = None  # (a_hi, f_hi, g_hi) once a trial brackets a step
    for _ in range(LINE_SEARCH_MAX_EVALS):
        if high is None:
            a = min(max(2 * a_lo, 1.0), a_max)  # a_lo is the last trial, or 0 before the first
        else:
            a = _cubic_minimum(a_lo, f_lo, g_lo, *high)
            lo, hi = min(a_lo, high[0]), max(a_lo, high[0])
            width = hi - lo
            if a is None or not (lo + 0.05 * width < a < hi - 0.05 * width):
                a = 0.5 * (a_lo + high[0])
            if width < 1e-16 * max(1.0, abs(a_lo)) or width * -slope <= eps * f0:
                raise _LineSearchFailure
        xa = x + a * p
        fa, grad = yield xa
        ga = float(grad @ p)
        if fa > f0 + WOLFE_C1 * a * slope or (fa >= f_lo and (high is not None or a_lo > 0)):
            high = (a, fa, ga)
        elif abs(ga) <= -WOLFE_C2 * slope:
            return a, fa, xa, grad
        else:
            if (ga >= 0) if high is None else (ga * (high[0] - a_lo) >= 0):
                high = (a_lo, f_lo, g_lo)
            elif high is None and a >= a_max:  # capped extension: accept the Armijo-satisfying step
                return a, fa, xa, grad
            a_lo, f_lo, g_lo = a, fa, ga
    raise _LineSearchFailure


def _bfgs_steps(x0: np.ndarray, cfg: SolveConfig, f_target: float, home: Optional[tuple] = None):
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
    first_update = True
    iterations = 0
    while True:
        if fx < f_target:
            stop = "target"
            break
        if gnorm < GRAD_NORM_STOP:
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
        try:
            alpha, f_new, x_new, g_new = yield from _wolfe_steps(x, p, fx, slope)
        except _LineSearchFailure:
            stop = "line_search"
            break
        iterations += 1
        s = alpha * p
        if _norm(x_new) > ITERATE_NORM_CAP:
            # far beyond any meaningful inverse-temperature scale; the matrix
            # exponentials are pure round-off out here, so abandon the restart
            stop = "norm_cap"
            break
        y = g_new - gx
        sy = float(s @ y)
        if sy > CURVATURE_FLOOR:
            if first_update:
                h = (sy / float(y @ y)) * np.eye(n)
                first_update = False
            rho = 1.0 / sy
            hy = h @ y
            s_hy = s[:, None] * hy  # np.outer(s, hy); its transpose is np.outer(hy, s)
            h = h - rho * (s_hy + s_hy.T) + rho * (rho * float(y @ hy) + 1.0) * (s[:, None] * s)
        x, fx, gx = x_new, f_new, g_new
        gnorm = _norm(gx)
        if home is not None and fx >= f_home and _norm(x - x_home) <= home_radius:
            stop = "returned"
            break
    return BfgsOutcome(x, fx, gnorm, iterations, h, stop)


def bfgs_minimize(
    objective: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: SolveConfig,
    f_target: float,
    home: Optional[tuple] = None,
) -> BfgsOutcome:
    """BFGS with the standard rank-2 inverse-Hessian update.

    Stops once the objective is below f_target (a solve passes cfg.eps; the
    flat tail of the reconstruction objective has small gradients well
    before the objective itself is small, so no gradient threshold stands in
    for it, and f_target = -inf minimises plainly); also at a gradient norm
    below GRAD_NORM_STOP, at the iteration cap, on line-search failure and past
    ITERATE_NORM_CAP. A basin hop passes its home (x*, f*), the minimum it
    was proposed from, and stops as returned after the first iteration that
    lands within RETURN_RADIUS * ||x*|| of x* with f >= f*: it has fallen
    back into the basin it left. Returns the last iterate, and why it
    stopped. The last iterate is also the best: the strong Wolfe search
    accepts only steps with f <= f0 + WOLFE_C1 * a * slope, below f0 for a
    descent direction, so f never rises from one iterate to the next.
    """
    return _drive(_bfgs_steps(x0, cfg, f_target, home), lambda x: (objective(x), grad(x)))


# Basin-hop proposal parameters. A stalled minimizer almost always sits at a
# scale too small for the global valley, pointing within a few degrees of a
# nearby deeper basin; proposals therefore push outward in norm with a small
# random rotation of the direction.
HOP_SCALE_CHOICES = (1.2, 1.5, 2.0)
HOP_SIGMA_CHOICES = (0.05, 0.1, 0.2)
HOP_MIN_NORM = 8.0


def _hop_proposal(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Outward-rescaled, direction-perturbed start point near a stalled
    iterate (at x = 0, of norm HOP_MIN_NORM); the same draws whatever x is."""
    scale = float(rng.choice(HOP_SCALE_CHOICES))
    sigma = float(rng.choice(HOP_SIGMA_CHOICES))
    noise = rng.standard_normal(x.size)
    xn = _norm(x)
    if xn == 0.0:
        return HOP_MIN_NORM * noise / _norm(noise)
    prop = x / xn + sigma * noise
    return max(scale * xn, HOP_MIN_NORM) * prop / _norm(prop)


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
    obj = ReconstructionObjective(basis, a)
    return _drive(
        _restart_steps(obj, cfg),
        lambda run: bfgs_minimize(obj.value, obj.gradient, run[0], cfg, f_target=cfg.eps, home=run[1]),
    )


def solve_steps(basis: OperatorBasis, a, cfg: SolveConfig):
    """solve_hamiltonian as one generator, for callers that evaluate many
    solves together.

    Yields the ReconstructionObjective first, then each point x at which its
    value and gradient are needed, is sent back (f, grad) there, and returns
    the SolveResult that solve_hamiltonian returns for the same arguments,
    bit for bit, when every answer has the bits of
    (objective.value(x), objective.gradient(x)).
    """
    obj = ReconstructionObjective(basis, a)
    yield obj
    runs = _restart_steps(obj, cfg)
    try:
        x0, home = next(runs)
        while True:
            x0, home = runs.send((yield from _bfgs_steps(x0, cfg, cfg.eps, home)))
    except StopIteration as stop:
        return stop.value
