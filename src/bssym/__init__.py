"""Symmetry algebra of the lognormal pricing equation.

Exact construction and verification of the six-dimensional isovector algebra
of the pricing equation (plus its infinite solution ideal), the induced
one-parameter transformation groups acting on option-price surfaces, and a
numerical harness that certifies transformed solutions by interior PDE
residuals.

Layers:

- exact: :mod:`bssym.model`, :mod:`bssym.exppoly`, :mod:`bssym.forms`,
  :mod:`bssym.ideal`, :mod:`bssym.isovectors` (rational arithmetic
  throughout, no floats).
- numeric: :mod:`bssym.pricing`, :mod:`bssym.grids`, :mod:`bssym.transforms`
  (closed forms, finite differences, finite flows, residual certification).
  This layer, and numpy with it, loads on first use: ``import bssym`` loads
  only the exact layer, and a numeric name such as ``bssym.bs_price`` imports
  its submodule when it is first looked up.
- batch: :mod:`bssym.cli`.
"""

import importlib

from .model import ModelContext, make_context, parse_rational
from .exppoly import ExpPoly
from .forms import (
    DiffForm,
    contract,
    lie_derivative,
    structural_forms,
    wedge,
)
from .ideal import MembershipCertificate, ideal_membership
from .isovectors import (
    DispersionError,
    Generator,
    GHPair,
    Isovector,
    NotInFamilyError,
    SolutionSpec,
    VerificationReport,
    basis_isovector,
    bracket,
    bracket_gh,
    decompose,
    generator_of,
    gh_of,
    in_solution_ideal,
    isovector_from_constants,
    isovector_from_generator,
    pde_defect,
    pretty_combination,
    solution_isovector,
    structure_constants,
    verify_isovector,
)

# the numeric layer loads on first use (PEP 562): each of its public names,
# by the submodule that defines it
_NUMERIC = {
    **dict.fromkeys(
        ("ClosedFormSolution", "LogClosedForm", "OptionSpec", "bs_price"),
        "pricing",
    ),
    **dict.fromkeys(
        ("Grid", "GridSolution", "ResidualReport", "fd_solve", "make_grid",
         "read_csv", "residual_e", "residual_e2", "write_csv"),
        "grids",
    ),
    **dict.fromkeys(
        ("ActionSurface", "CertificationResult", "FiniteTransform", "Pipeline",
         "TransformDomainError", "apply_transform", "as_surface",
         "certify_transform", "compose", "infinitesimal_action",
         "sample_surface"),
        "transforms",
    ),
}


def __getattr__(name):
    if name in _NUMERIC.values():  # a numeric submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read from the submodule on every lookup, never cached here, so a
    # rebinding of the submodule's attribute is what callers see
    return getattr(importlib.import_module(f"{__name__}.{_NUMERIC[name]}"), name)


def __dir__():
    return sorted({*globals(), *_NUMERIC, *_NUMERIC.values()})


__version__ = "0.1.0"

__all__ = [
    "ModelContext", "make_context", "parse_rational",
    "ExpPoly",
    "DiffForm", "wedge", "contract", "lie_derivative",
    "structural_forms",
    "MembershipCertificate", "ideal_membership",
    "Isovector", "Generator", "GHPair", "SolutionSpec", "VerificationReport",
    "DispersionError", "NotInFamilyError",
    "basis_isovector", "solution_isovector", "isovector_from_constants",
    "isovector_from_generator", "generator_of", "verify_isovector",
    "bracket", "bracket_gh", "gh_of", "decompose", "structure_constants",
    "pretty_combination", "pde_defect", "in_solution_ideal",
    "OptionSpec", "ClosedFormSolution", "LogClosedForm",
    "bs_price",
    "Grid", "GridSolution", "ResidualReport", "make_grid", "fd_solve",
    "residual_e", "residual_e2", "read_csv", "write_csv",
    "FiniteTransform", "Pipeline", "TransformDomainError",
    "apply_transform", "compose", "as_surface", "sample_surface",
    "certify_transform", "CertificationResult",
    "ActionSurface", "infinitesimal_action",
    "__version__",
]
