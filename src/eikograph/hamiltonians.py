"""General monotone coercive Hamiltonians H(x, rho, p).

A Hamiltonian is an evaluator with declared metadata
(:class:`HamiltonianSpec`).  The six builtins and user expressions are
compiled by one builder, :func:`_evaluator`.  Provides sampled validation,
the reduction h(x) = inf{p >= 0 : H(x, rho, p) > 0} through one reduction
kernel, and the solve of H(x, u, |grad u|) = 0: Picard iteration over
eikonal solves with f = h, answered by one causal label-setting pass where
Picard stops short (README, "General Hamiltonians").  Three builtins are
the stock failure modes the checks are designed to detect."""

from __future__ import annotations

import dis
import heapq
import math
import types
from dataclasses import dataclass
from operator import itemgetter, sub, truediv
from typing import Callable, Iterable, Mapping

from .errors import CoercivityError, ConvergenceError, HamiltonianError, _number
from .fields import ScalarField, _finite, _lookup, _VertexView, field_list, field_on, interior_slopes
from .graph import MetricGraph, _edge_items, _start, coord_axis, settle
from .slopes import CheckReport
from .solver import DirichletProblem, ValueFunction, boundary_seeds, solve_dirichlet, value_function

BRACKET_CAP = 2.0**40
DEFAULT_P_MAX = 2.0**20
VALIDATION_SAMPLES = 5  # vertices and rho values validate_hamiltonian samples
PICARD_MAX_ITER = 100  # solve_general's solves before the causal pass answers

RHO_MODES = ("independent", "nondecreasing")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Evaluable Hamiltonian with declared monotonicity/coercivity metadata.

    ``lambda0``, positive and finite, is the declared margin by which
    p -> H - lambda0 * p is nondecreasing (validated on a sample grid);
    ``p_max``, positive and finite, caps the range on which coercivity is
    probed.
    """

    name: str
    evaluate: Callable[[str, float, float], float]
    lambda0: float
    rho_monotonicity: str = "independent"
    p_max: float = DEFAULT_P_MAX

    def __post_init__(self):
        for what, x in (("lambda0", self.lambda0), ("p_max", self.p_max)):
            _number(x, what, "positive and finite", lambda x: 0.0 < x < math.inf, HamiltonianError)
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
    "coercivity".  ``mesh_bound`` is B = sup dH/drho / inf dH/dp, each a
    difference quotient of neighbouring samples, over the samples scanned
    (all once it passed): a sampled bound on |dh/drho|, h the reduction.
    """

    name: str
    monotonicity_ok: bool
    coercivity_ok: bool
    counterexample: tuple | None
    mesh_bound: float = math.nan

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
    """Reduced right-hand side h with the residuals |H(x, rho(x), h(x))|,
    both views, in id order, of the lists by vertex index the reduction wrote.

    ``flagged`` lists vertices where h = 0 was forced although H(x, rho, 0)
    stays above the tolerance: there rho admits no nonnegative root.
    """

    h: ScalarField
    residuals: Mapping[str, float]
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
    consecutive grid points up to p_max, less 1e-12 and four ulps of the
    larger |H| for rounding, and that H(x, rho, p_max) > 0, over
    VALIDATION_SAMPLES vertices spread in id order (the first alone for an
    evaluator built from an expression, which cannot read x) and as many rho
    values spaced evenly on [-1, 1].  At each p the values for consecutive rho
    must also match ``H.rho_monotonicity``: equal when "independent", else
    no drop below -1e-12.  A sampled value that is NaN or infinite is a
    counterexample of its own, so every step compared is between finite
    values.  Each sampled (x, rho, p) is evaluated once, and the scan stops
    at the first counterexample, which is returned.  The same samples give
    the mesh bound B, which costs no further evaluation.
    """
    rhos = tuple(-1.0 + 2.0 * i / (VALIDATION_SAMPLES - 1) for i in range(VALIDATION_SAMPLES))
    xs = _spread(g.vertices, 1 if getattr(H.evaluate, "_x_free", False) else VALIDATION_SAMPLES)
    grid = _p_grid(H.p_max)
    steps = list(map(sub, grid[1:], grid))
    least = [H.lambda0 * step - 1e-12 for step in steps]  # the rise of H each step needs, less 1e-12
    mode = H.rho_monotonicity
    inf = math.inf
    slope_rise = [inf, 0.0]  # the least dH/dp, and the largest rise of H from one rho to the next

    def counterexamples():
        for x in xs:
            below = None  # H(x, previous rho, p) over the grid
            for rho in rhos:
                row = []
                for j, p in enumerate(grid):
                    h = H(x, rho, p)
                    if not -inf < h < inf:
                        yield ("non-finite", x, rho, p, h)
                    if j and h - row[-1] < least[j - 1]:  # and by more than rounding:
                        if h - row[-1] < least[j - 1] - 4.0 * math.ulp(max(abs(h), abs(row[-1]))):
                            yield ("monotonicity", x, rho, grid[j - 1], p, row[-1], h)
                    if below:
                        rise = h - below[j]
                        if abs(rise) > 0.0 if mode == "independent" else rise < -1e-12:
                            yield ("rho", mode, x, p, rho_below, rho, below[j], h)
                    row.append(h)
                if not (row[-1] > 0.0):  # the grid ends at p_max
                    yield ("coercivity", x, rho, H.p_max, row[-1])
                if mode != "independent":  # else B is 0: H does not rise with rho
                    slope_rise[0] = min(slope_rise[0], *map(truediv, map(sub, row[1:], row), steps))
                    if below:
                        slope_rise[1] = max(slope_rise[1], *map(sub, row, below))
                below, rho_below = row, rho

    bad = next(counterexamples(), None)
    kind = bad[0] if bad else None
    slope, rise = slope_rise
    return HamiltonianValidation(
        name=H.name,
        monotonicity_ok=kind != "monotonicity",
        coercivity_ok=kind != "coercivity",
        counterexample=bad,
        mesh_bound=0.0 if rise <= 0.0 else rise / (rhos[1] - rhos[0]) / slope if slope > 0.0 else inf,
    )


def _grid(lo: float, hi: float) -> tuple[int, float, int]:
    """(n, step, 2**n) for the bracket [lo, hi]: its bisection's stop bound
    1e-13 * max(1, hi) is the widest it takes, as hi only falls, so the
    stop test fails for the first n halvings, n the least with 2**-n <=
    bound / (hi - lo), a quotient that is exact as the width is a power of
    two; the width is at least 1 and the bound below 1, so n >= 1."""
    n = 1 - math.frexp(1e-13 * max(1.0, hi) / (hi - lo))[1]
    return n, (hi - lo) / (1 << n), 1 << n


# the grid of every bracket the doubling can end on, by its top hi = 1, 2,
# 4, ..., BRACKET_CAP: [0, 1], then [hi / 2, hi]
BRACKET_GRIDS = {hi: _grid(0.5 * hi if hi > 1.0 else 0.0, hi)
                 for hi in (2.0**m for m in range(int(math.log2(BRACKET_CAP)) + 1))}


# The bracket, search, bisection and residual loop, written once; README,
# "General Hamiltonians", states the search and what it keeps bit-identical.
# ``__H__`` stands for the value of H at (x, rho, p): the expression itself
# in the kernel ``_evaluator`` compiles per expression, ``evaluate(x, rho,
# p)`` in the one ``_GENERIC`` kernel that serves every other evaluator.  A
# kernel reduces each vertex index i in ``at``, in that order, at x =
# ``names[i]`` and rho = ``u[i]``: it writes the root to ``roots[i]`` and,
# unless ``residuals`` is None, |H(x, rho, root)| to ``residuals[i]``.
# Every list it reads or writes is by vertex index, so the causal pass hands
# it its own lists and allocates no list per call.  Its locals and globals
# must not be names an expression may read (``_EXPR_NAMES``, the level
# ``c``), or they would shadow them.  Each kernel has a causal
# instantiation, whose sites bind rho := a + half_l * p before evaluating H
# (``_CAUSAL_SITE``), so its root is the least p >= 0 with H(x, a + half_l
# * p, p) >= 0; the rho it reads from ``u`` is rebound at the first site.
_KERNEL_SOURCE = """
def kernel(evaluate, name, names, u, at, roots, residuals, tol, a=0.0, half_l=0.0):
    for i in at:
        x, rho = names[i], u[i]
        p = root = 0.0
        try:
            val = float(__H__)
            if not val >= 0.0:
                lo, hi = 0.0, 1.0
                below = val  # H at lo
                p = hi
                val = float(__H__)
                while val < 0.0:
                    lo, hi, below = hi, 2.0 * hi, val
                    if hi > BRACKET_CAP:
                        root = None
                        break
                    p = hi
                    val = float(__H__)
                if val == 0.0:
                    root = hi  # bracket endpoint is the root
                elif root is not None:
                    n, step, right = GRIDS[hi]  # right: the grid's cells
                    k = 0  # the bisection's steps
                    if -inf < below and val < inf:
                        try:
                            left = 0  # at_left and at_right start unset: val takes a probe's H
                            # the secant index, inside the grid
                            j = int(right * (below / (below - val)))
                            j = 1 if j < 1 else right - 1 if j >= right else j
                            p = lo + j * step
                            v = float(__H__)
                            if -inf < v < 0.0:
                                left, at_left, j = j, v, j + 1
                            elif 0.0 < v < inf:
                                right, at_right, j = j, v, j - 1
                            else:
                                right = left  # no cell: the second probe and the cell are skipped
                            if right - left > 1:  # j's neighbour on the side its sign gives
                                p = lo + j * step
                                v = float(__H__)
                                if -inf < v < 0.0:
                                    left, at_left = j, v
                                elif 0.0 < v < inf:
                                    right, at_right = j, v
                            if right - left == 1:  # one cell left: bisect on from it
                                lo, hi = lo + left * step, lo + right * step
                                val = at_left if left & 1 else at_right
                                k = n
                        except Exception:  # noqa: BLE001 - raised again if the bisection meets it
                            pass
                    # each evaluation's stop test runs at the top of the next
                    # pass, where p is already the root it would return
                    while True:
                        p = 0.5 * (lo + hi)
                        if hi - lo <= 1e-13 * (hi if hi > 1.0 else 1.0) and abs(val) <= tol:
                            root = p
                            break
                        if k == 500:
                            root = None
                            break
                        k += 1
                        val = float(__H__)
                        if val > 0.0:
                            hi = p
                        elif val == 0.0:
                            root = p
                            break
                        else:
                            lo = p  # NaN too
            if residuals is not None and root is not None:
                residuals[i] = abs(float(__H__))  # p is the root on every path here
        except Exception as exc:  # noqa: BLE001 - evaluator is user code
            raise HamiltonianError(
                f"Hamiltonian {name!r} failed at (x={x!r}, rho={rho}, p={p}): {exc}"
            )
        if root is None:
            if hi > BRACKET_CAP:
                raise CoercivityError(
                    f"no sign change of {name!r} up to p = {BRACKET_CAP} at (x={x!r}, rho={rho})"
                )
            raise HamiltonianError(
                f"bisection for {name!r} stalled at (x={x!r}, rho={rho}); bracket [{lo}, {hi}]"
            )
        roots[i] = root
"""

_KERNEL_NAMES = {
    "abs": abs,
    "float": float,
    "int": int,
    "inf": math.inf,
    "Exception": Exception,
    "BRACKET_CAP": BRACKET_CAP,
    "GRIDS": BRACKET_GRIDS,
    "HamiltonianError": HamiltonianError,
    "CoercivityError": CoercivityError,
}


def _kernel(h_source: str, names: Mapping[str, object],
            filename: str = "<hamiltonian kernel>") -> Callable:
    """The kernel with ``h_source`` in place of ``__H__``, its globals
    ``names`` on top of the kernel's own and no builtins, compiled under
    ``filename``."""
    code = compile(_KERNEL_SOURCE.replace("__H__", h_source), filename, "exec")
    scope = {"__builtins__": {}, **_KERNEL_NAMES, **names}
    exec(code, scope)
    return scope["kernel"]


# The generic kernels' sites are one line each, so their lines are the
# template's, line for line; their own file name lets a line tracer tell
# them from the inlined kernels, whose expression may span lines.
_GENERIC_FILE = "<generic hamiltonian kernel>"
_CAUSAL_SITE = "((rho := a + half_l * p), {})[1]"
_GENERIC = _kernel("evaluate(x, rho, p)", {}, _GENERIC_FILE)
_GENERIC_CAUSAL = _kernel(_CAUSAL_SITE.format("evaluate(x, rho, p)"), {}, _GENERIC_FILE)


def _kernel_of(evaluate: Callable) -> Callable:
    """The kernel compiled for ``evaluate`` by :func:`_evaluator`, else the
    generic one."""
    return getattr(evaluate, "_kernel", _GENERIC)


def reduce_h(H: HamiltonianSpec, x: str, rho: float, tol: float = 1e-9) -> float:
    """Smallest nonnegative root of p -> H(x, rho, p) by bracketed bisection.

    Returns 0 when H(x, rho, 0) >= 0 (the infimum over {H > 0} is then 0);
    otherwise brackets [0, P] by doubling P until H > 0 and bisects until
    |H(x, rho, h)| <= tol with the bracket at float resolution, so that the
    root is a stable function of rho: a coarser cut would quantize h and
    make outer fixed-point iterations limit-cycle above their tolerance.
    The loop is the kernel that belongs to ``H.evaluate`` (the comment above
    ``_KERNEL_SOURCE``), and an error names the current p, as
    ``HamiltonianSpec.__call__``'s does.  rho must be finite, as in :func:`reduce_field`.
    """
    _finite({x: rho}, "rho")
    roots = [0.0]
    _rereduce(H, (x,), (rho,), (0,), roots, None, tol)
    return roots[0]


def _rereduce(
    H: HamiltonianSpec,
    names: tuple[str, ...],
    u: list[float],
    at: Iterable[int],
    roots: list[float],
    residuals: list[float] | None,
    tol: float,
) -> None:
    """Reduce each index in ``at`` at rho = ``u`` with the kernel that
    belongs to ``H.evaluate``, by the kernel's calling convention, after
    reading ``tol``: every public reduction passes here first."""
    tol = _number(tol, "bisection tol", "positive", lambda t: t > 0.0, HamiltonianError)
    _kernel_of(H.evaluate)(H.evaluate, H.name, names, u, at, roots, residuals, tol)


def _moved(u: list[float], taken: list[float]) -> list[int]:
    """The indices whose label ``u[i]`` is not bitwise ``taken[i]``:
    Picard's reuse rule (:func:`solve_general`)."""
    return [i for i, (rho, old) in enumerate(zip(u, taken))
            if rho != old or rho == 0.0 and math.copysign(1.0, rho) != math.copysign(1.0, old)]


def _reduction_field(
    g: MetricGraph, roots: list[float], residuals: list[float], tol: float
) -> ReductionField:
    """The :class:`ReductionField` of roots and residuals by vertex index.
    Roots are finite and >= 0 by construction, so h needs no validation."""
    return ReductionField(
        h=ScalarField(g, _VertexView(g, None, roots), "rhs_f"),
        residuals=_VertexView(g, None, residuals),
        flagged=tuple(x for x, res in zip(g.vertices, residuals) if res > tol),
        tol=tol,
    )


def reduce_field(
    H: HamiltonianSpec,
    g: MetricGraph,
    rho: Mapping[str, float],
    tol: float = 1e-9,
) -> ReductionField:
    """Vertexwise reduction to an eikonal right-hand side, at ``rho`` read
    by :func:`fields._lookup`, which refuses what it cannot use."""
    n = len(g.vertices)
    roots, residuals = [0.0] * n, [0.0] * n
    _rereduce(H, g.vertices, _lookup(g, rho, "rho"), range(n), roots, residuals, tol)
    return _reduction_field(g, roots, residuals, tol)


def _causal(g: MetricGraph, H: HamiltonianSpec, seeds: list[tuple[int, float]], roots: list[float],
            residuals: list[float], tol: float) -> tuple[list[float], list[int], list[int]]:
    """:func:`solve_general`'s discrete system in one label-setting pass
    (README, "General Hamiltonians"), seeded by :func:`_start` and returned
    as :func:`settle` returns its run, parents kept in ``via`` as settle
    keeps them.  Settling y reduces h(y, d) into ``roots`` and ``residuals``,
    each candidate's root into ``offer``.  A vertex never settled keeps label
    inf, which :func:`value_function` refuses first: it is not reduced or ordered."""
    nbrs, lens, names = g.nbrs, g.lens, g.vertices
    n = len(nbrs)
    evaluate, name = H.evaluate, H.name
    reduce, candidate = _kernel_of(evaluate), getattr(evaluate, "_causal", _GENERIC_CAUSAL)
    dist, parent, via, heap = _start(n, seeds)  # via: the least index offering dist
    offer = [0.0] * n  # each candidate's root, at the index of the vertex it is offered to
    pop, push = heapq.heappop, heapq.heappush
    order: list[int] = []
    while heap:
        d, y = pop(heap)
        if parent[y] >= 0:
            continue
        order.append(y)
        parent[y] = y if (p := via[y]) < 0 else p
        reduce(evaluate, name, names, dist, (y,), roots, residuals, tol)
        hy = roots[y]
        for x, length in zip(nbrs[y], lens[y]):
            half = 0.5 * length
            if parent[x] < 0 and (a := d + half * hy) <= dist[x]:  # no candidate is below a
                candidate(evaluate, name, names, dist, (x,), offer, None, tol, a, half)
                if (t := a + half * offer[x]) < dist[x]:
                    dist[x], via[x] = t, y
                    push(heap, (t, x))
                elif t == dist[x] and y < via[x]:
                    via[x] = y
    return dist, order, parent


def solve_general(
    g: MetricGraph,
    H: HamiltonianSpec,
    zeta: ScalarField,
    tol: float = 1e-8,
    max_iter: int = PICARD_MAX_ITER,
    bisect_tol: float = 1e-9,
) -> tuple[ValueFunction, ReductionField, int]:
    """Solve H(x, u, |grad u|) = 0 with Dirichlet data by Picard iteration,
    or by one causal pass where Picard does not reach tol.

    Each sweep reduces H at the current iterate to an eikonal right-hand side
    and re-solves.  One loop runs the sweeps while H depends on rho and the
    last max vertex change is above tol, so a rho-independent Hamiltonian
    takes the first solve only.  Once ``max_iter`` solves are spent, the
    labels and exits come from :func:`_causal`: the solution of u(x) =
    min(zeta(x), min over y of u(y) + l * (h(x, u(x)) + h(y, u(y))) / 2),
    h the reduction, which is unique where its update is monotone, as it is
    under the mesh condition 1 - (l_max / 2) * B >= 0, with l_max the
    longest edge and B the sampled :attr:`HamiltonianValidation.mesh_bound`.
    Where that fails, ConvergenceError carries the change history and names
    the longest edge and B.  The count returned is the number of solves,
    max_iter + 1 where the pass answered; the reduction returned is taken at
    the returned labels, so its residuals certify H(x, u(x), h(x)) ~ 0.

    The first solve is a full :func:`solve_dirichlet`, on the roots at
    rho = 0, which validates the problem.  After it the sweeps run on lists
    by vertex index.  Picard's reuse rule: a sweep reduces again only the
    vertices whose label is not bitwise the label their root was taken at,
    the sign of zero counting and NaN never matching (:func:`_moved`), and
    reuses every other root.  A sweep evaluates no residual, passes the
    roots straight to :func:`settle` as its weights, and takes the change
    as the max over the two label lists.  Where the roots and residuals
    come from on each path: README, "General Hamiltonians"; exits and the
    returned :class:`ReductionField` are built once.  A run that raises
    ConvergenceError evaluates no residual, and an evaluator that raises
    only at the root of a sweep before the last no longer raises there.
    For an evaluator that depends only on (x, rho, p) every label, root,
    residual, sweep count and change history is bit-identical to reducing
    with :func:`reduce_h` and solving afresh on every sweep.

    ``max_iter`` must be an int (not a bool) of at least 1, and ``tol``
    nonnegative; tol 0 stops at the bitwise fixpoint.
    """
    _number(max_iter, "Picard max_iter", "an int >= 1", lambda k: k >= 1, integer=True)
    tol = _number(tol, "Picard tol", ">= 0", lambda t: t >= 0.0)
    validation = validate_hamiltonian(H, g)
    if not validation.passed:
        raise HamiltonianError(validation.describe())

    names, n = g.vertices, len(g.vertices)
    taken, roots, residuals = [0.0] * n, [0.0] * n, [0.0] * n  # taken: the labels roots were taken at
    independent = H.rho_monotonicity == "independent"
    _rereduce(H, names, taken, range(n), roots, residuals if independent else None, bisect_tol)
    f = ScalarField(g, _VertexView(g, None, roots), "rhs_f")  # roots changes once f is solved
    vf = solve_dirichlet(DirichletProblem(g, f, zeta, threshold=0.0))
    u = field_list(g, vf.u)
    seeds = boundary_seeds(g, zeta.values)
    history: list[float] = []
    run = None
    solves = 1
    # a NaN change (inf - inf after an overflow) does not stop the sweeps
    while not independent and not (history and history[-1] <= tol):
        if solves >= max_iter:
            if 0.5 * g.h_max * validation.mesh_bound > 1.0:
                (a, b), longest = max(_edge_items(g), key=itemgetter(1))
                raise ConvergenceError(
                    f"Picard iteration did not reach tol {tol} in {max_iter} iterations "
                    f"(last change {history[-1] if history else math.nan}), and the causal pass "
                    f"needs 1 - (l/2) * B >= 0: the longest edge ({a!r}, {b!r}) has l = {longest}, "
                    f"the sampled B = {validation.mesh_bound}",
                    history,
                )
            run = _causal(g, H, seeds, roots, residuals, bisect_tol)
            solves += 1
            break
        _rereduce(H, names, u, _moved(u, taken), roots, None, bisect_tol)
        run = settle(g, seeds, roots)
        history.append(max(map(abs, map(sub, run[0], u))))
        taken, u, solves = u, run[0], solves + 1
    else:  # neither the causal pass nor the first reduction took the residuals
        if not independent:
            _rereduce(H, names, u, range(n), roots, residuals, bisect_tol)
    if run is not None:
        vf = value_function(g, zeta.values, run)
    return vf, _reduction_field(g, roots, residuals, bisect_tol), solves


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


# name -> (expression in p, rho and the level c, lambda0).
# quadratic is strictly increasing on (0, inf) but with vanishing margin at
# p = 0, and plateau is flat on [1, 2]: both declare the tiniest useful
# lambda0, so the sampled check accepts quadratic and catches the plateau.
_BUILTINS = {
    "linear": ("p - c", 1.0),
    "quadratic": ("p * p - c * c", 1e-6),
    "affine-rho": ("p + rho - c", 1.0),
    "ex1": ("1.0 - abs(p - 2.0) + max(p - 3.0, 0.0) ** 2", 1.0),
    "ex2": ("1.0 - abs(p) + max(p - 3.0, 0.0) ** 2", 1.0),
    "plateau": ("p if p < 1.0 else 1.0 if p < 2.0 else p - 1.0", 1e-6),
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


# opcodes that bind a name in the expression's own scope: only ``:=`` does,
# at the top level or in a comprehension
_BINDING_OPS = frozenset(("STORE_NAME", "STORE_GLOBAL", "DELETE_NAME", "DELETE_GLOBAL"))


def _code_names(code: types.CodeType) -> tuple[set[str], bool]:
    """Global and attribute names of a code object and every code object
    nested in it (lambdas, comprehensions), and whether any of them binds
    a name in the expression's own scope."""
    names = set(code.co_names)
    binds = any(ins.opname in _BINDING_OPS for ins in dis.get_instructions(code))
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            inner, inner_binds = _code_names(const)
            names |= inner
            binds = binds or inner_binds
    return names, binds


def _evaluator(
    name: str, expr: str, lambda0: float, p_max: float = DEFAULT_P_MAX, **bound: float
) -> HamiltonianSpec:
    """The Hamiltonian ``name`` that evaluates ``lambda x, rho, p: (expr)``,
    compiled once with the math namespace and ``bound`` as its globals.  Its
    rho-monotonicity is derived: "nondecreasing" if ``expr`` names rho, else
    "independent".  The lambda carries as ``_kernel`` the reduction kernel
    with ``expr`` inlined, on the same globals, and as ``_causal``, if
    ``expr`` names rho, its causal instantiation.

    Only arithmetic, those names, ``p`` and ``rho`` are allowed.  ``:=``
    that binds in the expression's own scope is refused: inlined, it would
    rebind the kernel's own p or rho.  An expression nested too deeply to
    compile is refused; one that compiles as the lambda but not inlined, a
    few levels deeper, keeps the generic kernels (and one that compiles
    only plain keeps the generic causal one).
    """
    scope = {**_EXPR_NAMES, **bound}
    try:
        names, binds = _code_names(compile(expr, "<hamiltonian>", "eval"))
        if binds:
            raise HamiltonianError(
                f"hamiltonian expression {expr!r} assigns with ':='; only arithmetic is allowed"
            )
        bad = names - set(scope) - {"p", "rho"}
        if bad:
            raise HamiltonianError(f"hamiltonian expression uses unknown names {sorted(bad)}")
        # newlines keep a trailing comment in expr from swallowing the paren
        evaluate = eval(
            compile(f"lambda x, rho, p: (\n{expr}\n)", "<hamiltonian>", "eval"),
            {"__builtins__": {}, **scope},
        )
        evaluate._x_free = True  # the name check refuses x: validation samples one vertex
    except SyntaxError as exc:
        raise HamiltonianError(f"bad hamiltonian expression {expr!r}: {exc}")
    except (RecursionError, MemoryError):
        raise HamiltonianError(
            f"hamiltonian expression of {len(expr)} characters is nested too deeply to compile"
        )
    try:
        evaluate._kernel = _kernel(f"(\n{expr}\n)", scope)
        if "rho" in names:  # only a rho-dependent H reaches the causal pass
            evaluate._causal = _kernel(_CAUSAL_SITE.format(f"(\n{expr}\n)"), scope)
    except (SyntaxError, RecursionError, MemoryError):
        pass  # _kernel_of falls back to the generic kernels
    mode = "nondecreasing" if "rho" in names else "independent"
    return HamiltonianSpec(name, evaluate, lambda0, mode, p_max)


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
    return _evaluator(base, *_BUILTINS[base], c=c)


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
    return _evaluator(f"expr({expr})", expr, lambda0, p_max)


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

    g = fixture("interval", n=n).graph
    xcoord = dict(zip(g.vertices, coord_axis(g, 0)))
    center = min(g.vertices, key=lambda v: (abs(xcoord[v]), v))
    rows = (  # (name, builtin, u as a function of x, expected verdicts)
        ("monge-but-not-viscosity", "ex1", lambda x: -3.0 * abs(x),
         {"hamiltonian_monge_max_residual": 0.0, "csub_level1_passes": False, "validation_passes": False}),
        ("viscosity-but-not-monge", "ex2", abs,
         {"hamiltonian_monge_residual_at_center": 1.0, "validation_passes": False}),
        ("plateau-non-regular", "plateau", lambda x: x if x <= 0.0 else 2.0 * x,
         {"regularity_residual_at_center": 1.0, "validation_passes": False}),
    )
    return tuple(
        CounterexampleFixture(name, builtin_hamiltonian(builtin), g,
                              field_on(g, {v: u(xcoord[v]) for v in g.vertices}, "solution_u"), center, expected)
        for name, builtin, u, expected in rows
    )
