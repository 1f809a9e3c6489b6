"""General monotone coercive Hamiltonians H(x, rho, p).

A Hamiltonian is an evaluator with declared metadata
(:class:`HamiltonianSpec`).  The six builtins are rows of expressions in p,
rho and a level c, compiled by the one builder that also compiles user
expressions; an expression's rho-monotonicity is derived ("nondecreasing"
if it names rho, else "independent").  Provides sampled validation of the
declared monotonicity in p and in rho and of coercivity, the implicit
reduction h(x) = inf{p >= 0 : H(x, rho, p) > 0} solved by bracketing and
bisection, and the fixed-point solve of H(x, u, |grad u|) = 0 through
repeated eikonal solves with f = h.  Three builtins are the stock failure
modes the checks are designed to detect (two non-monotone ones and a
plateau that breaks strict monotonicity)."""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from operator import sub
from typing import Callable, Mapping

from .errors import CoercivityError, ConvergenceError, HamiltonianError, ValidationError
from .fields import ScalarField, field_list, field_on, interior_slopes
from .graph import MetricGraph, settle
from .slopes import CheckReport
from .solver import DirichletProblem, ValueFunction, boundary_seeds, solve_dirichlet, value_function

BRACKET_CAP = 2.0**40
DEFAULT_P_MAX = 2.0**20
VALIDATION_SAMPLES = 5  # vertices and rho values validate_hamiltonian samples

RHO_MODES = ("independent", "nondecreasing", "strictly-increasing")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Evaluable Hamiltonian with declared monotonicity/coercivity metadata.

    ``lambda0`` is the declared margin by which p -> H - lambda0 * p is
    nondecreasing (validated on a sample grid); ``p_max``, positive and
    finite, caps the range on which coercivity is probed.
    """

    name: str
    evaluate: Callable[[str, float, float], float]
    lambda0: float
    rho_monotonicity: str = "independent"
    p_max: float = DEFAULT_P_MAX

    def __post_init__(self):
        if not (self.lambda0 > 0.0):
            raise HamiltonianError(f"lambda0 must be positive, got {self.lambda0!r}")
        if not (0.0 < self.p_max < math.inf):
            raise HamiltonianError(f"p_max must be positive and finite, got {self.p_max!r}")
        if self.rho_monotonicity not in RHO_MODES:
            raise HamiltonianError(
                f"rho_monotonicity {self.rho_monotonicity!r} not in {RHO_MODES}"
            )

    def __call__(self, x: str, rho: float, p: float) -> float:
        try:
            return float(self.evaluate(x, rho, p))
        except Exception as exc:  # noqa: BLE001 - evaluator is user code
            raise HamiltonianError(
                f"Hamiltonian {self.name!r} failed at (x={x!r}, rho={rho}, p={p}): {exc}"
            )


@dataclass(frozen=True)
class HamiltonianValidation:
    """Sampled monotonicity and coercivity verdicts with a counterexample.

    ``counterexample`` is the first one found, or None: a tuple whose first
    item is its kind, "non-finite" (a sampled value is NaN or infinite),
    "monotonicity" (in p), "rho" (against the declared rho_monotonicity) or
    "coercivity".
    """

    name: str
    monotonicity_ok: bool
    coercivity_ok: bool
    counterexample: tuple | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def describe(self) -> str:
        if self.passed:
            return f"hamiltonian {self.name!r}: monotonicity in p and rho and coercivity OK"
        kind, *rest = self.counterexample
        if kind == "non-finite":
            x, rho, p, val = rest
            return f"hamiltonian {self.name!r}: H(x={x!r}, rho={rho}, p={p}) = {val} is not finite"
        if kind == "monotonicity":
            x, rho, p1, p2, h1, h2 = rest
            return (
                f"hamiltonian {self.name!r}: p -> H - lambda0*p decreases on "
                f"[{p1}, {p2}] at (x={x!r}, rho={rho}): H({p1})={h1}, H({p2})={h2}"
            )
        if kind == "rho":
            mode, x, p, rho1, rho2, h1, h2 = rest
            return (
                f"hamiltonian {self.name!r}: declared {mode} in rho, but at (x={x!r}, p={p}) "
                f"H(rho={rho1})={h1} and H(rho={rho2})={h2}"
            )
        x, rho, pmax, val = rest
        return (
            f"hamiltonian {self.name!r}: not coercive up to p_max={pmax} at "
            f"(x={x!r}, rho={rho}): H(p_max)={val}"
        )


@dataclass(frozen=True)
class ReductionField:
    """Reduced right-hand side h with the residuals |H(x, rho(x), h(x))|.

    ``flagged`` lists vertices where h = 0 was forced although H(x, rho, 0)
    stays above the tolerance; there the input rho is inconsistent with any
    nonnegative root.
    """

    h: ScalarField
    residuals: dict[str, float]
    flagged: tuple[str, ...]
    tol: float


@dataclass(frozen=True)
class CounterexampleFixture:
    """A (Hamiltonian, candidate solution, expected verdicts) triple."""

    name: str
    hamiltonian: HamiltonianSpec
    graph: MetricGraph
    u: ScalarField
    center: str
    expected: dict


def _p_grid(p_max: float) -> list[float]:
    """Dense low range plus geometric tail up to p_max."""
    grid = [k / 16.0 for k in range(129) if k / 16.0 <= p_max]
    p = 16.0
    while p < p_max:
        grid.append(p)
        p *= 2.0
    if grid[-1] != p_max:
        grid.append(p_max)
    return grid


def _spread(items: tuple, count: int) -> tuple:
    if count >= len(items):
        return items
    step = len(items) / count
    return tuple(items[int(i * step)] for i in range(count))


def validate_hamiltonian(H: HamiltonianSpec, g: MetricGraph) -> HamiltonianValidation:
    """Sampled finite-difference monotonicity and coercivity validation.

    Checks that H(x, rho, p2) - H(x, rho, p1) >= lambda0 * (p2 - p1) for
    consecutive grid points up to p_max, and that H(x, rho, p_max) > 0, over
    VALIDATION_SAMPLES vertices spread in id order and as many rho values
    spaced evenly on [-1, 1].  At each p the values for consecutive rho
    must also match ``H.rho_monotonicity``: equal when "independent", else
    no drop below -1e-12.  A sampled value that is NaN or infinite is a
    counterexample of its own, so every step compared is between finite
    values.  Each sampled (x, rho, p) is evaluated once, and the scan stops
    at the first counterexample, which is returned.
    """
    rhos = tuple(-1.0 + 2.0 * i / (VALIDATION_SAMPLES - 1) for i in range(VALIDATION_SAMPLES))
    xs = _spread(g.vertices, VALIDATION_SAMPLES)
    grid = _p_grid(H.p_max)
    mode = H.rho_monotonicity
    inf = math.inf

    def counterexamples():
        for x in xs:
            below = None  # H(x, previous rho, p) over the grid
            for rho in rhos:
                row = []
                for j, p in enumerate(grid):
                    h = H(x, rho, p)
                    if not -inf < h < inf:
                        yield ("non-finite", x, rho, p, h)
                    if j and h - row[-1] < H.lambda0 * (p - grid[j - 1]) - 1e-12:
                        yield ("monotonicity", x, rho, grid[j - 1], p, row[-1], h)
                    if below:
                        rise = h - below[j]
                        if abs(rise) > 0.0 if mode == "independent" else rise < -1e-12:
                            yield ("rho", mode, x, p, rho_below, rho, below[j], h)
                    row.append(h)
                if not (row[-1] > 0.0):  # the grid ends at p_max
                    yield ("coercivity", x, rho, H.p_max, row[-1])
                below, rho_below = row, rho

    bad = next(counterexamples(), None)
    kind = bad[0] if bad else None
    return HamiltonianValidation(
        name=H.name,
        monotonicity_ok=kind != "monotonicity",
        coercivity_ok=kind != "coercivity",
        counterexample=bad,
    )


def reduce_h(H: HamiltonianSpec, x: str, rho: float, tol: float = 1e-9) -> float:
    """Smallest nonnegative root of p -> H(x, rho, p) by bracketed bisection.

    Returns 0 when H(x, rho, 0) >= 0 (the infimum over {H > 0} is then 0);
    otherwise brackets [0, P] by doubling P until H > 0 and bisects until
    |H(x, rho, h)| <= tol.  The bracket is then polished down to float
    resolution so the root is a numerically stable function of rho; a
    coarser cut would quantize h and make outer fixed-point iterations
    limit-cycle above their tolerance.

    ``H.evaluate`` is called directly inside one guard that raises the
    error ``HamiltonianSpec.__call__`` would, naming the current p.  Each
    bisection step first tests the bracket width against the stop bound
    1e-13 * max(1, hi) taken at the bracket: hi only falls, so no later
    bound is wider, and most steps skip computing their own.  The
    evaluation points, their order and the ``float`` of each value are
    those of a loop through ``H(x, rho, p)``, so h is bit-identical to it.
    :func:`solve_general` reuses a root only for the same vertex and the
    same binary64 rho, where a pure evaluator would repeat every step.
    """
    if not (tol > 0.0):
        raise HamiltonianError(f"bisection tol must be positive, got {tol!r}")
    evaluate = H.evaluate
    p = 0.0
    try:
        if float(evaluate(x, rho, p)) >= 0.0:
            return 0.0
        lo, hi = 0.0, 1.0
        p = hi
        val = float(evaluate(x, rho, p))
        while val <= 0.0:
            if val == 0.0:
                return hi  # bracket endpoint is the root
            lo, hi = hi, 2.0 * hi
            if hi > BRACKET_CAP:
                break  # raised below, outside the evaluator guard
            p = hi
            val = float(evaluate(x, rho, p))
        else:
            # hi only falls, so no later step's width bound exceeds this one
            wide = 1e-13 * (hi if hi > 1.0 else 1.0)
            for _ in range(500):
                p = 0.5 * (lo + hi)
                val = float(evaluate(x, rho, p))
                if val > 0.0:
                    hi = p
                elif val == 0.0:
                    return p
                else:
                    lo = p  # NaN too
                if hi - lo <= wide and hi - lo <= 1e-13 * (hi if hi > 1.0 else 1.0) and abs(val) <= tol:
                    return 0.5 * (lo + hi)
    except Exception as exc:  # noqa: BLE001 - evaluator is user code
        raise HamiltonianError(
            f"Hamiltonian {H.name!r} failed at (x={x!r}, rho={rho}, p={p}): {exc}"
        )
    if hi > BRACKET_CAP:
        raise CoercivityError(
            f"no sign change of {H.name!r} up to p = {BRACKET_CAP} at (x={x!r}, rho={rho})"
        )
    raise HamiltonianError(
        f"bisection for {H.name!r} stalled at (x={x!r}, rho={rho}); bracket [{lo}, {hi}]"
    )


def _rereduce(
    H: HamiltonianSpec,
    names: tuple[str, ...],
    u: list[float],
    taken: list[float],
    roots: list[float],
    residuals: list[float],
    tol: float,
) -> None:
    """Bring ``roots`` and ``residuals`` to rho = ``u``, all lists by vertex
    index: each vertex whose label is not bitwise ``taken[i]``, the rho its
    root was taken at (the sign of zero counts, and NaN never matches), is
    reduced again and records its new rho, root and residual."""
    copysign = math.copysign
    for i, (r, old) in enumerate(zip(u, taken)):
        if r == old and (r != 0.0 or copysign(1.0, r) == copysign(1.0, old)):
            continue
        x = names[i]
        hx = reduce_h(H, x, r, tol)
        roots[i], residuals[i], taken[i] = hx, abs(H(x, r, hx)), r


def _reduction_field(
    g: MetricGraph, roots: list[float], residuals: list[float], tol: float
) -> ReductionField:
    """The :class:`ReductionField` of roots and residuals by vertex index.
    Roots are finite and >= 0 by construction, so h needs no validation."""
    names = g.vertices
    return ReductionField(
        h=ScalarField(g, dict(zip(names, roots)), "rhs_f"),
        residuals=dict(zip(names, residuals)),
        flagged=tuple(x for x, res in zip(names, residuals) if res > tol),
        tol=tol,
    )


def reduce_field(
    H: HamiltonianSpec,
    g: MetricGraph,
    rho: Mapping[str, float],
    tol: float = 1e-9,
) -> ReductionField:
    """Vertexwise reduction to an eikonal right-hand side."""
    n = len(g.vertices)
    roots, residuals = [0.0] * n, [0.0] * n
    _rereduce(H, g.vertices, [rho[x] for x in g.vertices], [math.nan] * n, roots, residuals, tol)
    return _reduction_field(g, roots, residuals, tol)


def solve_general(
    g: MetricGraph,
    H: HamiltonianSpec,
    zeta: ScalarField,
    tol: float = 1e-8,
    max_iter: int = 100,
    bisect_tol: float = 1e-9,
) -> tuple[ValueFunction, ReductionField, int]:
    """Solve H(x, u, |grad u|) = 0 with Dirichlet data by Picard iteration.

    Each sweep reduces H at the current iterate to an eikonal right-hand side
    and re-solves; rho-independent Hamiltonians need a single solve.  Stops
    when the max vertex change drops to tol; raises ConvergenceError with the
    residual history otherwise.  The returned reduction is taken at the
    final iterate, so its residuals certify H(x, u(x), h(x)) ~ 0.

    The first solve is a full :func:`solve_dirichlet`, which validates the
    problem.  After it the sweeps run on lists by vertex index: the labels,
    the roots with their residuals, and the rho each root was taken at.  A
    sweep bisects again only at the vertices whose label changed bitwise
    (the sign of zero counts), passes the roots straight to
    :func:`settle` as its weights, and takes the change as the max over
    the two label lists; exits and the returned :class:`ReductionField`
    are built once, for the returned iterate.  For an evaluator that
    depends only on (x, rho, p) every label, root, residual, H call, sweep
    count and change history is bit-identical to reducing and solving
    afresh on every sweep.

    ``max_iter`` must be at least 1 and ``tol`` nonnegative; tol 0 stops
    at the bitwise fixpoint.
    """
    if not (max_iter >= 1):
        raise ValidationError(f"Picard max_iter must be >= 1, got {max_iter!r}")
    if not (tol >= 0.0):
        raise ValidationError(f"Picard tol must be >= 0, got {tol!r}")
    validation = validate_hamiltonian(H, g)
    if not validation.passed:
        raise HamiltonianError(validation.describe())

    names, n = g.vertices, len(g.vertices)
    taken, roots, residuals = [math.nan] * n, [0.0] * n, [0.0] * n
    _rereduce(H, names, [0.0] * n, taken, roots, residuals, bisect_tol)
    f = ScalarField(g, dict(zip(names, roots)), "rhs_f")
    vf = solve_dirichlet(DirichletProblem(g, f, zeta, threshold=0.0))
    u = field_list(g, vf.u)
    if H.rho_monotonicity == "independent":
        _rereduce(H, names, u, taken, roots, residuals, bisect_tol)
        return vf, _reduction_field(g, roots, residuals, bisect_tol), 1

    seeds = boundary_seeds(g, zeta)
    history: list[float] = []
    for iteration in range(2, max_iter + 1):
        _rereduce(H, names, u, taken, roots, residuals, bisect_tol)
        run = settle(g, seeds, roots)
        change = max(map(abs, map(sub, run[0], u)))
        history.append(change)
        u = run[0]
        if change <= tol:
            _rereduce(H, names, u, taken, roots, residuals, bisect_tol)
            final = _reduction_field(g, roots, residuals, bisect_tol)
            return value_function(g, zeta, run), final, iteration
    raise ConvergenceError(
        f"Picard iteration did not reach tol {tol} in {max_iter} iterations "
        f"(last change {history[-1] if history else math.nan})",
        history,
    )


def check_hamiltonian_monge(
    g: MetricGraph,
    u: ScalarField,
    H: HamiltonianSpec,
    tol: float = 1e-9,
) -> CheckReport:
    """Monge residuals for a general Hamiltonian: |H(x, u(x), sub_slope(x))|."""
    names, ul = g.vertices, field_list(g, u)
    residuals = {names[i]: abs(H(names[i], ul[i], sub)) for i, sub, _ in interior_slopes(g, u)}
    return CheckReport(name="hamiltonian-monge", tol=tol, residuals=residuals)


# name -> (expression in p, rho and the level c, lambda0, rho_monotonicity).
# quadratic is strictly increasing on (0, inf) but with vanishing margin at
# p = 0, and plateau is flat on [1, 2]: both declare the tiniest useful
# lambda0, so the sampled check accepts quadratic and catches the plateau.
_BUILTINS = {
    "linear": ("p - c", 1.0, "independent"),
    "quadratic": ("p * p - c * c", 1e-6, "independent"),
    "affine-rho": ("p + rho - c", 1.0, "strictly-increasing"),
    "ex1": ("1.0 - abs(p - 2.0) + max(p - 3.0, 0.0) ** 2", 1.0, "independent"),
    "ex2": ("1.0 - abs(p) + max(p - 3.0, 0.0) ** 2", 1.0, "independent"),
    "plateau": ("p if p < 1.0 else 1.0 if p < 2.0 else p - 1.0", 1e-6, "independent"),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))

_EXPR_NAMES = {
    "abs": abs,
    "min": min,
    "max": max,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "pi": math.pi,
    "e": math.e,
}


def _code_names(code: types.CodeType) -> set[str]:
    """Global and attribute names of a code object and every code object
    nested in it (lambdas, comprehensions)."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def _evaluator(expr: str, **bound: float) -> tuple[Callable[[str, float, float], float], set[str]]:
    """``lambda x, rho, p: (expr)`` compiled once, with the math namespace
    and ``bound`` as its globals, and the names ``expr`` reads.

    Only arithmetic, those names, ``p`` and ``rho`` are allowed.
    """
    try:
        code = compile(expr, "<hamiltonian>", "eval")
    except SyntaxError as exc:
        raise HamiltonianError(f"bad hamiltonian expression {expr!r}: {exc}")
    names = _code_names(code)
    bad = names - set(_EXPR_NAMES) - set(bound) - {"p", "rho"}
    if bad:
        raise HamiltonianError(f"hamiltonian expression uses unknown names {sorted(bad)}")
    # newlines keep a trailing comment in expr from swallowing the paren
    evaluate = eval(
        compile(f"lambda x, rho, p: (\n{expr}\n)", "<hamiltonian>", "eval"),
        {"__builtins__": {}, **_EXPR_NAMES, **bound},
    )
    return evaluate, names


def builtin_hamiltonian(name: str) -> HamiltonianSpec:
    """Builtin by name, with an optional level parameter c: e.g. ``linear:2``."""
    base, _, param = name.partition(":")
    if base not in _BUILTINS:
        raise HamiltonianError(f"unknown builtin hamiltonian {name!r}; known: {BUILTIN_NAMES}")
    c = 1.0
    if param:
        try:
            c = float(param)
        except ValueError:
            raise HamiltonianError(f"bad parameter in hamiltonian name {name!r}")
    expr, lambda0, rho_monotonicity = _BUILTINS[base]
    return HamiltonianSpec(base, _evaluator(expr, c=c)[0], lambda0, rho_monotonicity)


def expression_hamiltonian(
    expr: str,
    lambda0: float = 1e-6,
    p_max: float = DEFAULT_P_MAX,
) -> HamiltonianSpec:
    """Hamiltonian from a Python expression in ``p`` and ``rho``.

    Only arithmetic and a small math namespace are allowed.  The declared
    rho-monotonicity is "nondecreasing" when the expression names rho and
    "independent" otherwise; :func:`validate_hamiltonian` checks it.
    """
    evaluate, names = _evaluator(expr)
    return HamiltonianSpec(
        name=f"expr({expr})",
        evaluate=evaluate,
        lambda0=lambda0,
        rho_monotonicity="nondecreasing" if "rho" in names else "independent",
        p_max=p_max,
    )


def counterexample_suite(n: int = 400) -> tuple[CounterexampleFixture, ...]:
    """The three stock failure fixtures on a fine interval graph.

    (i) u = -3|x| solves the first non-monotone Hamiltonian in the Monge
    sense (sub-slope 3 everywhere) yet breaks the f = 1 edge-Lipschitz bound;
    (ii) u = |x| breaks the Monge property of the second at the kink, where
    the sub-slope vanishes but H(0) = 1; (iii) the piecewise solution paired
    with the plateau Hamiltonian loses regularity at the kink (slope 2 vs
    sub-slope 1).  Verdicts are asserted by the test suite.
    """
    from .verify import fixture  # late import: verify sits above this module

    fix = fixture("interval", n=n)
    g = fix.graph
    xcoord = {v: g.coords[v][0] for v in g.vertices}
    center = min(g.vertices, key=lambda v: (abs(xcoord[v]), v))

    u1 = field_on(g, {v: -3.0 * abs(xcoord[v]) for v in g.vertices}, "solution_u")
    u2 = field_on(g, {v: abs(xcoord[v]) for v in g.vertices}, "solution_u")
    u3 = field_on(
        g,
        {v: xcoord[v] if xcoord[v] <= 0.0 else 2.0 * xcoord[v] for v in g.vertices},
        "solution_u",
    )

    return (
        CounterexampleFixture(
            name="monge-but-not-viscosity",
            hamiltonian=builtin_hamiltonian("ex1"),
            graph=g,
            u=u1,
            center=center,
            expected={
                "hamiltonian_monge_max_residual": 0.0,
                "csub_level1_passes": False,
                "validation_passes": False,
            },
        ),
        CounterexampleFixture(
            name="viscosity-but-not-monge",
            hamiltonian=builtin_hamiltonian("ex2"),
            graph=g,
            u=u2,
            center=center,
            expected={
                "hamiltonian_monge_residual_at_center": 1.0,
                "validation_passes": False,
            },
        ),
        CounterexampleFixture(
            name="plateau-non-regular",
            hamiltonian=builtin_hamiltonian("plateau"),
            graph=g,
            u=u3,
            center=center,
            expected={
                "regularity_residual_at_center": 1.0,
                "validation_passes": False,
            },
        ),
    )
