"""Garbage-free Clifford+T integer squaring circuits.

Synthesis of the full netlist, exact simulation (classical basis
semantics for macro netlists, swept over all inputs at once as bit
planes, one Python int per wire; a sparse phase-checked statevector for
Clifford+T expansions up to the whole circuit), and closed-form
resource accounting with measured/closed-form reconciliation.
"""

from .ir import (
    AddInPlace,
    Gate,
    LogicalAnd,
    Netlist,
    UncomputeAnd,
    count_gates,
    expand,
    from_json,
    schedule_asap,
    to_json,
    to_qasm,
)
from .layout import (
    InputCopy,
    OperandGrid,
    PartialProduct,
    UnsupportedWidthError,
    ZERO,
    arrange,
    dump_grid,
    grid_value,
    partial_products,
)
from .blocks import (
    build_adder_in_place,
    build_logical_and,
    build_uncompute_and,
)
from .sim import (
    NonClassicalGateError,
    TermBudgetError,
    UncomputeMisuseError,
    lane_planes,
    run_basis_sweep,
    run_statevector,
    states_equal,
    verify_equivalence,
)
from .synth import SquarerCircuit, synthesize_squarer
from .costs import (
    CostReport,
    MetricValues,
    baseline_costs,
    built_metrics,
    proposed_costs,
    proposed_metrics,
    reconcile,
    reduction_ratios,
)

__version__ = "0.1.0"
