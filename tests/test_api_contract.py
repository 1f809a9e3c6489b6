"""The library's error contract, one seeded table over ``eikograph.__all__``.

Every public callable has a row: one or more valid calls, each with the
arguments the table may replace and the kind of value each takes.  Each
such argument is replaced in turn by every value of its kind's pool, and a
seeded sample of calls replaces two at once.  Every call must return, or
raise what the contract of ``eikograph.errors`` allows: an
``EikographError``, or an ``OSError`` from a file reader or writer.  A
number argument must refuse a value that is no number, NaN included (a
count, one that is no int), and name itself in the message of every
refusal.  The records the package returns (``Curve``, ``SuiteReport``,
...) read no argument, so their rows replace none.

The pools hold what a caller may pass by mistake: for a number NaN, the
infinities, -0.0, 0, -1, 1.5, an int beyond binary64, a bool, a str, a
numeric str, None, an empty dict and a ``defaultdict``; for a vertex
mapping or a point the same values at one vertex, an empty dict, a
``defaultdict`` and an id the graph lacks; for a field one of another role
and one of another graph; for a graph the one-vertex, edgeless and
two-boundary graphs of ``test_input_fuzz``; for a vertex id or an
expression, strings that name nothing.  A callback of the caller's is
never replaced: what it raises may escape.  ``equivalence_suite`` takes 4
levels in place of the int beyond binary64 (ROADMAP item 21).
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import pytest

import eikograph as ek
from eikograph import EikographError
from eikograph.fields import field_list
from eikograph.graph import graph_to_dict
from test_input_fuzz import SMALL_GRAPHS

NUMBERS = [math.nan, math.inf, -math.inf, -0.0, 0, -1, 1.5, 10**400, True, "x", "2", None, {}, defaultdict(float)]
# the pool indices that no number argument may take: NaN, the bool, the strs, None and the dicts;
# and those that no count may take, the floats too
NOT_NUMBERS = frozenset(i for i, x in enumerate(NUMBERS) if not (type(x) in (int, float) and x == x))
NOT_INTS = NOT_NUMBERS | {i for i, x in enumerate(NUMBERS) if type(x) is float}
OPTIONAL = NOT_NUMBERS - {NUMBERS.index(None)}  # for an argument whose default None asks for a default value
IDS = ["zz", ""]
TEXTS = ["", "x", "const:x", "p - q"]
TMP = "<tmp>/"  # stands for the directory a file row runs in


def small_graph(ids: str, edges: list[str], boundary: str) -> ek.MetricGraph:
    return ek.build_graph({"vertices": list(ids), "edges": [{"a": a, "b": b, "length": 1.0} for a, b in edges],
                           "boundary": list(boundary)})


GRAPHS = [small_graph(*SMALL_GRAPHS["one-vertex"]), small_graph("a", [], ""),
          small_graph(*SMALL_GRAPHS["two-boundary"])]
G = ek.fixture("grid", n=4).graph
V = "v1_1"
F = ek.constant_field(G, 1.0, "rhs_f")
ZETA = ek.constant_field(G, 0.0, "boundary_zeta")
U = ek.solve_dirichlet(ek.DirichletProblem(G, F, ZETA)).u
H = ek.builtin_hamiltonian("affine-rho")
VALUES = {v: 1.0 for v in G.vertices}


def mappings(valid: dict) -> list:
    """The vertex-mapping pool around a valid mapping: each number of the pool at its least id, and more."""
    first = min(valid)
    return [{**valid, first: x} for x in NUMBERS] + [{}, defaultdict(float), {**valid, "ghost": 1.0}]


def points(valid: dict) -> list:
    """The coords pool around valid coords: each number of the pool as the least id's first coordinate."""
    first = min(valid)
    return [{**valid, first: (x, *valid[first][1:])} for x in NUMBERS] + [{}, defaultdict(tuple)]


def fields_of(f: ek.ScalarField) -> list:
    """A field of another role and a field of another graph."""
    other = "solution_u" if f.role != "solution_u" else "rhs_f"
    return [ek.field_on(G, VALUES if other != "boundary_zeta" else {y: 0.0 for y in G.boundary}, other),
            ek.constant_field(GRAPHS[2], 1.0, f.role)]


@dataclass
class Case:
    """One valid call: ``call(**args)``, and the pool of each argument the
    table replaces.  ``names`` gives, for an argument that takes a number,
    the words a refusal names it by, or a tuple of them where the refusal
    of a value and that of a number out of range name it in other words.
    ``refused`` maps an argument to the pool indices the call must refuse."""

    call: Callable
    args: dict
    pools: dict
    names: dict = field(default_factory=dict)
    files: bool = False  # a file reader or writer: OSError is allowed
    refused: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in self.names:  # a number argument refuses what is no number
            self.refused.setdefault(key, NOT_NUMBERS)


RHS = ("field (rhs_f)", "rhs field")  # a value that is no number, and a negative one
ZETA_NAMES = ("field (boundary_zeta)", "boundary data")


def sized(kind: str, key: str) -> tuple:
    """How a fixture names its size: as no int or below the least, or as too large."""
    return f"{kind} fixture {key} must", f"{kind} fixture would have"


def record(cls, **args) -> list[Case]:
    """A record the package returns: built once, nothing replaced."""
    return [Case(cls, args, {})]


def certify(graph, f, zeta):
    p = ek.DirichletProblem(graph, f, zeta)
    return ek.check_boundary_consistency(p, ek.solve_dirichlet(p))


def table() -> dict[str, list[Case]]:
    """The rows; a path starts with ``TMP``, the directory a file row runs in."""
    inst = dict(graph=G, f=F, u_sub=U, v_super=U, band_delta=None, sub_tol=None, super_tol=None, band_tol=1e-12,
                compare_tol=1e-12, seed=None)
    grid4 = ek.fixture("grid", n=4)
    return {
        "BoundaryCertificate": record(ek.BoundaryCertificate, lipschitz_L=0.0, inf_f=1.0, sup_f=1.0,
                                      zeta_lipschitz_ok=True, curve_condition_ok=True, weak_bound_ok=True,
                                      weak_bound=1.0, two_sided_ok=True),
        "CheckReport": [Case(ek.CheckReport, dict(name="monge", tol=1e-9, residuals={"a": 0.0}),
                             {"tol": NUMBERS}, {"tol": "check 'monge' tol"})],
        "ComparisonInstance": [Case(ek.ComparisonInstance, dict(graph=G, f=F, u_sub=U, v_super=U), {})],
        "ComparisonReport": record(ek.ComparisonReport, seed=None, inf_f=1.0, hypothesis_failed=None),
        "CounterexampleFixture": record(ek.CounterexampleFixture, name="c", hamiltonian=H, graph=G, u=U, center=V,
                                        expected={}),
        "Curve": record(ek.Curve, vertices=("a",), cumlen=(0.0,)),
        "DirichletProblem": [Case(ek.DirichletProblem, dict(graph=G, f=F, zeta=ZETA, threshold=1e-9),
                                  {"graph": GRAPHS, "f": fields_of(F), "zeta": fields_of(ZETA), "threshold": NUMBERS},
                                  {"threshold": "positivity threshold"})],
        "Fixture": record(ek.Fixture, name="grid", params={}, graph=G),
        "HamiltonianSpec": [Case(ek.HamiltonianSpec, dict(name="h", evaluate=lambda x, rho, p: p - 1.0, lambda0=1.0,
                                                          rho_monotonicity="independent", p_max=8.0),
                                 {"lambda0": NUMBERS, "p_max": NUMBERS, "rho_monotonicity": TEXTS},
                                 {"lambda0": "lambda0", "p_max": "p_max"})],
        "HamiltonianValidation": record(ek.HamiltonianValidation, name="h", monotonicity_ok=True, coercivity_ok=True,
                                        counterexample=None),
        "MetricGraph": [Case(lambda lens, **k: ek.MetricGraph(lens=[lens, lens], **k),
                             dict(vertices=("a", "b"), boundary=("a",), coords={}, nbrs=[[1], [0]], lens=[1.0]),
                             {"lens": [[x] for x in NUMBERS], "coords": points({"a": (0.0,), "b": (1.0,)})},
                             refused={"lens": NOT_NUMBERS, "coords": NOT_NUMBERS})],
        "ReductionField": record(ek.ReductionField, h=F, residuals={}, flagged=(), tol=1e-9),
        "ScalarField": [Case(lambda **k: field_list(G, ek.ScalarField(**k)), dict(graph=G, values=VALUES, role="rhs_f"),
                             {"graph": GRAPHS, "values": mappings(VALUES)}, refused={"values": NOT_NUMBERS})],
        "SlopeTriple": record(ek.SlopeTriple, vertex=V, slope=0.0, super_slope=0.0, sub_slope=0.0),
        "SuiteReport": record(ek.SuiteReport, fixture_name="grid", levels=1, rows=(), monge_residuals=(),
                              monotone_ok=True, checks_ok=True),
        "ValueFunction": record(ek.ValueFunction, u=U, exit_vertex={}, attained={}),
        "ball": [Case(ek.ball, dict(g=G, x=V, r=1.5), {"g": GRAPHS, "x": IDS, "r": NUMBERS}, {"r": "ball radius"})],
        "boundary_band": [Case(ek.boundary_band, dict(g=G, delta=1.0), {"g": GRAPHS, "delta": NUMBERS},
                               {"delta": "band_delta"})],
        "build_graph": [Case(ek.build_graph, dict(spec=graph_to_dict(G)),
                             {"spec": NUMBERS + [{"version": 2}, {"version": 1, "vertices": [], "edges": []}]})],
        "builtin_hamiltonian": [Case(ek.builtin_hamiltonian, dict(name="linear:2"), {"name": TEXTS + ["linear:x"]})],
        "check_boundary_consistency": [Case(certify, dict(graph=G, f=F, zeta=ZETA),
                                            {"graph": GRAPHS, "f": fields_of(F), "zeta": fields_of(ZETA)})],
        "check_c_subsolution": [Case(ek.check_c_subsolution, dict(g=G, u=U, f=F, tol=0.0),
                                     {"g": GRAPHS, "u": fields_of(U), "f": fields_of(F), "tol": NUMBERS},
                                     {"tol": "check 'csub' tol"})],
        "check_c_supersolution": [Case(ek.check_c_supersolution, dict(g=G, u=U, f=F, eps=1e-9),
                                       {"g": GRAPHS, "u": fields_of(U), "f": fields_of(F), "eps": NUMBERS},
                                       {"eps": "csuper eps"}, refused={"eps": OPTIONAL})],
        "check_hamiltonian_monge": [Case(ek.check_hamiltonian_monge, dict(g=G, u=U, H=H, tol=1e-9),
                                         {"g": GRAPHS, "u": fields_of(U), "tol": NUMBERS},
                                         {"tol": "check 'hamiltonian-monge' tol"})],
        "check_monge": [Case(ek.check_monge, dict(g=G, u=U, f=F, tol=1e-9, mode="solution"),
                             {"g": GRAPHS, "u": fields_of(U), "f": fields_of(F), "tol": NUMBERS, "mode": TEXTS},
                             {"tol": "check 'monge' tol"}, refused={"tol": OPTIONAL})],
        "check_regularity": [Case(ek.check_regularity, dict(g=G, u=U, tol=1e-9),
                                  {"g": GRAPHS, "u": fields_of(U), "tol": NUMBERS}, {"tol": "check 'regularity' tol"},
                                  refused={"tol": OPTIONAL})],
        "chord_from_coords": [Case(lambda coords, a, b: ek.chord_from_coords(coords)(a, b),
                                   dict(coords={"a": (0.0, 1.0), "b": (3.0, 5.0)}, a="a", b="b"),
                                   {"coords": [{"a": (0.0,), "b": (3.0, 5.0)}]}, refused={"coords": {0}})],
        "compare": [Case(lambda **k: ek.compare(ek.ComparisonInstance(**k)), inst,
                         {"graph": GRAPHS, "f": fields_of(F), "u_sub": fields_of(U), "v_super": fields_of(U),
                          **dict.fromkeys(("band_delta", "sub_tol", "super_tol", "band_tol", "compare_tol"), NUMBERS)},
                         {"band_delta": "band_delta", "sub_tol": "check 'monge-sub' tol",
                          "super_tol": "check 'monge-super' tol", "band_tol": "band_tol",
                          "compare_tol": "compare_tol"},
                         refused={key: OPTIONAL for key in ("band_delta", "sub_tol", "super_tol")})],
        "constant_field": [Case(ek.constant_field, dict(g=G, value=1.0, role="rhs_f"),
                                {"g": GRAPHS, "value": NUMBERS, "role": TEXTS}, {"value": RHS})],
        "counterexample_suite": [Case(ek.counterexample_suite, dict(n=4), {"n": NUMBERS},
                                      {"n": sized("interval", "n")},
                                      refused={"n": NOT_INTS})],
        "curve_along": [Case(ek.curve_along, dict(g=G, vertices=[V, "v1_2"]),
                             {"g": GRAPHS, "vertices": [[], ["zz"], [V, "v3_3"]]})],
        "default_check_tol": [Case(ek.default_check_tol, dict(g=G, f=F), {"g": GRAPHS, "f": fields_of(F)})],
        "distance_to_boundary": [Case(ek.distance_to_boundary, dict(g=G), {"g": GRAPHS})],
        "distances_from": [Case(ek.distances_from, dict(g=G, sources=[V]), {"g": GRAPHS, "sources": [[], ["zz"]]})],
        "edge_costs": [Case(ek.edge_costs, dict(g=G, f=F), {"g": GRAPHS, "f": fields_of(F)})],
        "edge_key": [Case(ek.edge_key, dict(a="b", b="a"), {"a": IDS, "b": IDS})],
        "equivalence_suite": [Case(ek.equivalence_suite,
                                   dict(fix=grid4, f_spec="const:1", zeta_spec="const:0", levels=2),
                                   # 4 stands in for the int beyond binary64: the suite would build every level
                                   # below the one refine refuses, up to 10**6 vertices (ROADMAP item 21)
                                   {"f_spec": TEXTS, "zeta_spec": TEXTS,
                                    "levels": [4 if x is NUMBERS[7] else x for x in NUMBERS]},
                                   {"levels": "equivalence_suite levels"}, refused={"levels": NOT_INTS})],
        "expression_hamiltonian": [Case(ek.expression_hamiltonian, dict(expr="p - 1", lambda0=1e-6, p_max=8.0),
                                        {"expr": TEXTS, "lambda0": NUMBERS, "p_max": NUMBERS},
                                        {"lambda0": "lambda0", "p_max": "p_max"})],
        "field_from_expression": [Case(ek.field_from_expression, dict(g=G, expr="linear:1,2", role="rhs_f"),
                                       {"g": GRAPHS, "expr": TEXTS + ["linear:1", "linear:1,2,-1"], "role": TEXTS})],
        "field_from_function": [Case(ek.field_from_function, dict(g=G, fn=lambda v: 1.0, role="rhs_f"),
                                     {"g": GRAPHS, "role": TEXTS})],
        "field_on": [Case(ek.field_on, dict(g=G, values=VALUES, role="rhs_f"),
                          {"g": GRAPHS, "values": mappings(VALUES), "role": TEXTS}, {"values": RHS}),
                     Case(ek.field_on, dict(g=G, values={y: 0.0 for y in G.boundary}, role="boundary_zeta"),
                          {"values": mappings({y: 0.0 for y in G.boundary})}, {"values": ZETA_NAMES})],
        "fixture": [Case(lambda n, connectivity: ek.fixture("grid", n=n, connectivity=connectivity),
                         dict(n=2, connectivity=8), {"n": NUMBERS, "connectivity": NUMBERS},
                         {"n": sized("grid", "n"), "connectivity": "grid connectivity"},
                         refused={"n": NOT_INTS, "connectivity": NOT_INTS}),
                    Case(lambda n: ek.fixture("interval", n=n), dict(n=1), {"n": NUMBERS},
                         {"n": sized("interval", "n")},
                         refused={"n": NOT_INTS}),
                    Case(lambda n: ek.fixture("circle", n=n), dict(n=3), {"n": NUMBERS}, {"n": sized("circle", "n")},
                         refused={"n": NOT_INTS}),
                    Case(lambda depth: ek.fixture("binary_tree", depth=depth), dict(depth=1), {"depth": NUMBERS},
                         {"depth": sized("binary_tree", "depth")},
                         refused={"depth": NOT_INTS}),
                    Case(lambda level: ek.fixture("gasket", level=level), dict(level=0), {"level": NUMBERS},
                         {"level": sized("gasket", "level")},
                         refused={"level": NOT_INTS}),
                    Case(lambda name: ek.fixture(name, n=3), dict(name="grid"), {"name": TEXTS})],
        "induce_intrinsic": [Case(ek.induce_intrinsic, dict(ids=("a", "b"), dist=lambda a, b: 1.0,
                                                            adjacency=[("a", "b")], boundary=("a",), coords=None),
                                  {"adjacency": [[], [("a", "zz")], [("a", "a")]], "boundary": [["zz"]],
                                   "coords": points({"a": (0.0,), "b": (1.0,)})}, refused={"coords": NOT_NUMBERS})],
        "intrinsic_distance": [Case(ek.intrinsic_distance, dict(g=G, x=V, y="v2_2"),
                                    {"g": GRAPHS, "x": IDS, "y": IDS})],
        "lipschitz_constant": [Case(ek.lipschitz_constant, dict(g=G, f=F), {"g": GRAPHS, "f": fields_of(F)})],
        "random_comparison_instance": [Case(ek.random_comparison_instance, dict(seed=3), {"seed": NUMBERS},
                                            {"seed": "random_metric_graph seed"}, refused={"seed": NOT_INTS})],
        "random_metric_graph": [Case(ek.random_metric_graph, dict(seed=1, n_min=4, n_max=6),
                                     {"seed": NUMBERS, "n_min": NUMBERS, "n_max": NUMBERS},
                                     {"seed": "random_metric_graph seed", "n_min": "n_min",
                                      "n_max": "random_metric_graph n_max"},
                                     refused={key: NOT_INTS for key in ("seed", "n_min", "n_max")})],
        "read_field_csv": [Case(ek.read_field_csv, dict(g=G, path=TMP + "f.csv", role="rhs_f"),
                                {"g": GRAPHS, "path": [TMP + "missing.csv", TMP], "role": TEXTS}, files=True)],
        "read_graph": [Case(ek.read_graph, dict(path=TMP + "g.json"), {"path": [TMP + "missing.json", TMP]},
                            files=True)],
        "reduce_field": [Case(ek.reduce_field, dict(H=H, g=G, rho=VALUES, tol=1e-9),
                              {"g": GRAPHS, "rho": mappings(VALUES), "tol": NUMBERS},
                              {"rho": "rho", "tol": "bisection tol"})],
        "reduce_h": [Case(ek.reduce_h, dict(H=H, x=V, rho=0.5, tol=1e-9), {"rho": NUMBERS, "tol": NUMBERS},
                          {"rho": "rho", "tol": "bisection tol"})],
        "refine": [Case(ek.refine, dict(g=G, h_max=0.5), {"g": GRAPHS, "h_max": NUMBERS}, {"h_max": "h_max"})],
        "slopes": [Case(ek.slopes, dict(g=G, u=U, x=V), {"g": GRAPHS, "u": fields_of(U), "x": IDS})],
        "solve_dirichlet": [Case(lambda **k: ek.solve_dirichlet(ek.DirichletProblem(**k)),
                                 dict(graph=G, f=F, zeta=ZETA, threshold=0.0),
                                 {"graph": GRAPHS, "f": fields_of(F), "zeta": fields_of(ZETA), "threshold": NUMBERS},
                                 {"threshold": "positivity threshold"})],
        "solve_general": [Case(ek.solve_general, dict(g=G, H=H, zeta=ZETA, tol=1e-8, max_iter=100, bisect_tol=1e-9),
                               {"g": GRAPHS, "zeta": fields_of(ZETA), "tol": NUMBERS, "max_iter": NUMBERS,
                                "bisect_tol": NUMBERS},
                               {"tol": "Picard tol", "max_iter": "Picard max_iter", "bisect_tol": "bisection tol"},
                               refused={"max_iter": NOT_INTS})],
        "validate_field": [Case(ek.validate_field, dict(f=F, positivity_threshold=1e-9),
                                {"f": fields_of(F), "positivity_threshold": NUMBERS},
                                {"positivity_threshold": "positivity threshold"})],
        "validate_hamiltonian": [Case(ek.validate_hamiltonian, dict(H=H, g=G), {"g": GRAPHS})],
        "write_field_csv": [Case(ek.write_field_csv, dict(f=F, path=TMP + "out.csv"),
                                 {"f": fields_of(F), "path": [TMP + "no/out.csv", TMP]}, files=True)],
        "write_graph": [Case(ek.write_graph, dict(g=G, path=TMP + "out.json"),
                             {"g": GRAPHS, "path": [TMP + "no/out.json", TMP]}, files=True)],
    }


ROWS = table()
PUBLIC = sorted(name for name in ek.__all__ if callable(getattr(ek, name))
                and not (isinstance(getattr(ek, name), type) and issubclass(getattr(ek, name), EikographError)))


def mutations():
    """(row, case index, argument, pool index) for every single replacement, with its test id."""
    for name, cases in sorted(ROWS.items()):
        for k, case in enumerate(cases):
            for key, pool in case.pools.items():
                for i in range(len(pool)):
                    yield pytest.param(name, k, key, i, id=f"{name}-{k}-{key}-{i}")


def as_tuple(name: str | tuple) -> tuple:
    return name if isinstance(name, tuple) else (name,)


def run(case: Case, args: dict, tmp) -> tuple[str | None, bool]:
    """What broke the contract, if anything, and whether the call raised."""
    if case.files:
        ek.write_graph(G, str(tmp / "g.json"))
        ek.write_field_csv(F, str(tmp / "f.csv"))
        args = {key: str(tmp) + "/" + x[len(TMP):] if isinstance(x, str) and x.startswith(TMP) else x
                for key, x in args.items()}
    try:
        case.call(**args)
    except EikographError as exc:
        replaced = [key for key in args if args[key] is not case.args[key]]
        if replaced and set(replaced) <= case.names.keys() and not any(
                name in str(exc) for key in replaced for name in as_tuple(case.names[key])):
            return f"{type(exc).__name__} does not name {[case.names[k] for k in replaced]}: {exc}", True
    except OSError as exc:
        return None if case.files else f"{type(exc).__name__}: {exc}", True
    except Exception as exc:  # noqa: BLE001 - an escape is the finding
        return f"{type(exc).__name__}: {exc}", True
    else:
        return None, False
    return None, True


def test_every_public_callable_has_a_row():
    assert sorted(ROWS) == PUBLIC


@pytest.mark.parametrize("name", sorted(ROWS))
def test_the_valid_calls_return(name, tmp_path):
    for case in ROWS[name]:
        assert run(case, case.args, tmp_path) == (None, False)


@pytest.mark.parametrize("name,k,key,i", mutations())
def test_one_replaced_argument_keeps_the_contract(name, k, key, i, tmp_path):
    case = ROWS[name][k]
    found, raised = run(case, {**case.args, key: case.pools[key][i]}, tmp_path)
    assert found is None
    assert raised or i not in case.refused.get(key, ()), "returned, where the value must be refused"


@pytest.mark.parametrize("seed", range(4))
def test_two_replaced_arguments_keep_the_contract(seed, tmp_path):
    # a seeded sample of calls that replace two arguments of one case at once
    rng = random.Random(seed)
    cases = [(name, case) for name, cs in sorted(ROWS.items()) for case in cs if len(case.pools) >= 2]
    broken = []
    for _ in range(40):
        name, case = rng.choice(cases)
        keys = rng.sample(sorted(case.pools), 2)
        picks = [rng.randrange(len(case.pools[key])) for key in keys]
        args = {**case.args, **{key: case.pools[key][i] for key, i in zip(keys, picks)}}
        if (found := run(case, args, tmp_path)[0]) is not None:
            broken.append((name, keys, picks, found))
    assert broken == []
