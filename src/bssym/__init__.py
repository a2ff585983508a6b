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
- batch: :mod:`bssym.cli`.

``import bssym`` loads nothing until a name is used.  Every public name, of
either layer, resolves through one table (PEP 562): its first lookup imports
the submodule that defines it, and with it only what that submodule needs.
So ``bssym.make_context`` loads :mod:`bssym.model` alone, ``bssym.bs_price``
loads numpy but no exact-layer module beyond the model, and
``bssym.verify_isovector`` loads the exact layer but no numpy.
"""

import importlib

# each public name, by the submodule that defines it
_PUBLIC = {
    **dict.fromkeys(("ModelContext", "make_context", "parse_rational"), "model"),
    "ExpPoly": "exppoly",
    **dict.fromkeys(
        ("DiffForm", "contract", "lie_derivative", "structural_forms"),
        "forms",
    ),
    **dict.fromkeys(("MembershipCertificate", "ideal_membership"), "ideal"),
    **dict.fromkeys(
        ("DispersionError", "GHPair", "Isovector", "NotInFamilyError",
         "SolutionSpec", "VerificationReport",
         "basis_isovector", "bracket", "bracket_gh", "decompose",
         "generator_of", "gh_of", "in_solution_ideal",
         "isovector_from_constants", "isovector_from_generator", "pde_defect",
         "pretty_combination", "solution_isovector", "structure_constants",
         "verify_isovector"),
        "isovectors",
    ),
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
        ("ActionSurface", "CertificationResult", "FiniteTransform",
         "TransformDomainError", "apply_transform", "as_surface",
         "certify_transform", "compose", "infinitesimal_action",
         "sample_surface"),
        "transforms",
    ),
}


def __getattr__(name):
    if name in _PUBLIC.values():  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read from the submodule on every lookup, never cached here, so a
    # rebinding of the submodule's attribute is what callers see
    return getattr(importlib.import_module(f"{__name__}.{_PUBLIC[name]}"), name)


def __dir__():
    return sorted({*globals(), *_PUBLIC, *_PUBLIC.values()})


__version__ = "0.1.0"

__all__ = [*_PUBLIC, "__version__"]
