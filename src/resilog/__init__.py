"""Exact ordinary, logarithmic, and excess residues of one-dimensional
holomorphic foliations on projective space tangent to a divisor, with global
identity checks, a degree bound, and log discrepancies of surface
singularities recovered from exceptional residues."""

from .algebra import MultiPoly, RatMatrix, det_exact, solve_linear
from .foliation import (
    ChartField,
    FoliationProblem,
    NotTangent,
    chart_field,
    chern_totals,
    make_problem,
)
from .parse import ParseError, SchemaError, parse_poly, parse_problem, print_poly
from .residue import (
    NumericConfig,
    ResidueRecord,
    SingularPoint,
    perturbed_residue,
    simple_residues,
)
from .aggregate import (
    enumerate_singularities,
    poincare_check,
    surface_report,
    verify_identities,
)
from .birational import (
    DiscrepancyProblem,
    cyclic_quotient_model,
    expected_exceptional_residues,
    solve_discrepancies,
)

__all__ = [
    "MultiPoly",
    "RatMatrix",
    "det_exact",
    "solve_linear",
    "ChartField",
    "FoliationProblem",
    "NotTangent",
    "chart_field",
    "chern_totals",
    "make_problem",
    "ParseError",
    "SchemaError",
    "parse_poly",
    "parse_problem",
    "print_poly",
    "NumericConfig",
    "ResidueRecord",
    "SingularPoint",
    "perturbed_residue",
    "simple_residues",
    "enumerate_singularities",
    "poincare_check",
    "surface_report",
    "verify_identities",
    "DiscrepancyProblem",
    "cyclic_quotient_model",
    "expected_exceptional_residues",
    "solve_discrepancies",
]

__version__ = "0.1.0"
