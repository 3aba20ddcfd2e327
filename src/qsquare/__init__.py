"""Garbage-free Clifford+T integer squaring circuits.

Synthesis of the full netlist, exact simulation (classical basis
semantics for macro netlists, swept over all inputs at once as bit
planes, one Python int per wire; for Clifford+T expansions up to the
whole circuit, a sparse statevector over Z[ω, 1/√2] in canonical form,
whose measurements must have dyadic probabilities), and closed-form
resource accounting with measured/closed-form reconciliation.

The ``ir``, ``layout``, ``blocks`` and ``synth`` names load with the
package.  The ``sim`` and ``costs`` modules and the names re-exported
from them load on first use (a module ``__getattr__``), so a program
that never simulates or costs a circuit never imports them.
"""

from importlib import import_module as _import_module

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
from .layout import UnsupportedWidthError, arrange, dump_grid, grid_value
from .blocks import (
    build_adder_in_place,
    build_logical_and,
    build_uncompute_and,
)
from .synth import synthesize_squarer

# module -> the names re-exported from it on first use
_ON_FIRST_USE = {
    "sim": (
        "NonClassicalGateError",
        "TermBudgetError",
        "UncomputeMisuseError",
        "check_squarer",
        "lane_planes",
        "run_basis_sweep",
        "run_statevector",
        "verify_equivalence",
    ),
    "costs": (
        "MetricValues",
        "baseline_costs",
        "built_metrics",
        "proposed_metrics",
        "reconcile",
        "reduction_ratios",
    ),
}

__version__ = "0.1.0"
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += [*_ON_FIRST_USE, *(name for names in _ON_FIRST_USE.values() for name in names)]


def __getattr__(name: str):
    for module, names in _ON_FIRST_USE.items():
        if name == module or name in names:
            value = _import_module(f"{__name__}.{module}")
            if name != module:
                value = globals()[name] = getattr(value, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
