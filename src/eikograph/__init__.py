"""Eikonal and monotone Hamilton-Jacobi equations on finite metric graphs.

The package solves Dirichlet problems for |grad u| = f through the
shortest-path value formula, induces intrinsic metrics from chord distances,
and verifies the equivalent solution notions (Monge, curve-based,
slope-based-regularity) together with the comparison principle and
boundary-consistency conditions.

``import eikograph`` loads the errors, graph, fields and slopes modules; the
solver, hamiltonians and verify modules load on first use of one of their
names, so a process that never solves pays neither their import nor, without
cached bytecode, their compilation.
"""

from .errors import (
    CoercivityError, ConnectivityError, ConvergenceError, EikographError, FieldError, GraphError,
    HamiltonianError, MetricError, ProblemError, ValidationError,
)
from .fields import (
    ScalarField, constant_field, edge_costs, field_from_expression, field_from_function, field_on,
    lipschitz_constant, read_field_csv, validate_field, write_field_csv,
)
from .graph import (
    Curve, MetricGraph, ball, build_graph, chord_from_coords, curve_along, distances_from, edge_key,
    induce_intrinsic, intrinsic_distance, read_graph, refine, write_graph,
)
from .slopes import (  # binds the name slopes to the function, not the module
    CheckReport, SlopeTriple, check_c_subsolution, check_c_supersolution, check_monge, check_regularity,
    default_check_tol, slopes,
)

__version__ = "0.1.0"

_LAZY = {  # PEP 562: __getattr__ imports these on first use
    "hamiltonians": (
        "CounterexampleFixture", "HamiltonianSpec", "HamiltonianValidation", "ReductionField",
        "builtin_hamiltonian", "check_hamiltonian_monge", "counterexample_suite", "expression_hamiltonian",
        "reduce_field", "reduce_h", "solve_general", "validate_hamiltonian",
    ),
    "solver": (
        "BoundaryCertificate", "DirichletProblem", "ValueFunction", "boundary_band",
        "check_boundary_consistency", "distance_to_boundary", "solve_dirichlet",
    ),
    "verify": (
        "ComparisonInstance", "ComparisonReport", "Fixture", "SuiteReport", "compare", "equivalence_suite",
        "fixture", "random_comparison_instance", "random_metric_graph",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}
__all__ = sorted({name for name in globals() if not name.startswith("_")} - {"errors", "fields", "graph"}
                 | _HOME.keys() - _LAZY.keys())


def __getattr__(name: str):
    """Import a lazy submodule, or one of its public names, on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = module if name in _LAZY else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
