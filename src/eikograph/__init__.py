"""Eikonal and monotone Hamilton-Jacobi equations on finite metric graphs.

The package solves Dirichlet problems for |grad u| = f through the
shortest-path value formula, induces intrinsic metrics from chord distances,
and verifies the equivalent solution notions (Monge, curve-based,
slope-based-regularity) together with the comparison principle and
boundary-consistency conditions.
"""

from .errors import (
    CoercivityError,
    ConnectivityError,
    ConvergenceError,
    EikographError,
    FieldError,
    GraphError,
    HamiltonianError,
    MetricError,
    ProblemError,
    ValidationError,
)
from .fields import (
    FieldReport,
    ScalarField,
    constant_field,
    edge_costs,
    field_from_expression,
    field_from_function,
    field_on,
    lipschitz_constant,
    read_field_csv,
    validate_field,
    write_field_csv,
)
from .graph import (
    BallSet,
    ChordInput,
    ConsistencyProbe,
    Curve,
    InducedMetric,
    MetricGraph,
    ball,
    build_graph,
    chord_from_coords,
    curve_along,
    distances_from,
    edge_key,
    induce_intrinsic,
    intrinsic_distance,
    read_graph,
    refine,
    write_graph,
)
from .hamiltonians import (
    CounterexampleFixture,
    HamiltonianSpec,
    HamiltonianValidation,
    ReductionField,
    builtin_hamiltonian,
    check_hamiltonian_monge,
    counterexample_suite,
    expression_hamiltonian,
    reduce_field,
    reduce_h,
    solve_general,
    validate_hamiltonian,
)
from .slopes import (
    CheckReport,
    SlopeTriple,
    check_c_subsolution,
    check_c_supersolution,
    check_monge,
    check_regularity,
    default_check_tol,
    slopes,
)
from .solver import (
    BoundaryCertificate,
    DirichletProblem,
    ValueFunction,
    boundary_band,
    check_boundary_consistency,
    distance_to_boundary,
    solve_dirichlet,
)
from .verify import (
    ComparisonInstance,
    ComparisonReport,
    Fixture,
    SuiteReport,
    compare,
    equivalence_suite,
    fixture,
    random_comparison_instance,
    random_metric_graph,
)

__version__ = "0.1.0"
