"""Membership solver for the ideal generated by the structural forms.

A 2-form gamma lies in the ideal I = <alpha, dalpha, beta> iff it can be
written as

    gamma = rho ^ alpha + xi * dalpha + omega * beta

with a 1-form rho and functions xi, omega.  Adding any multiple of alpha to
rho does not change rho ^ alpha, so rho is normalized to have no dphi
component (its dphi coefficient is forced to zero).  Under that normalization
the decomposition is unique when it exists: expanding against the ten
canonical 2-form slots gives a triangular system where six slots determine
the six unknowns

    rho = R1 dt + R2 dx + R3 dA + R4 dB,   xi = R5,   omega = R6

one at a time, and the remaining four slots (dt^dx, dx^dA, dx^dB, dA^dB)
become consistency checks.  The residue left in those four slots is returned
as the certificate remainder; it vanishes exactly iff gamma is in I.

The equation enters only through beta, read off the context's structural
forms: its dt^dx coefficient -eq = r*phi - rtilde*A - B, and its dt^dA
coefficient -sigma2/2.  Each unknown and each check slot is one sum of
products.  The only division performed is by that dt^dA coefficient, a
unit because ModelContext enforces sigma2 > 0, so the solve always decides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exppoly import ExpPoly, _ONE, _sum_of_products
from .forms import _A, _B, DiffForm, _forms_of
from .model import ModelContext

_SLOT_TX = (0, 1)
_SLOT_TPHI = (0, 2)
_SLOT_TA = (0, 3)
_SLOT_TB = (0, 4)
_SLOT_XPHI = (1, 2)
_SLOT_XA = (1, 3)
_SLOT_XB = (1, 4)
_SLOT_PHIA = (2, 3)
_SLOT_PHIB = (2, 4)
_SLOT_AB = (3, 4)


@dataclass(frozen=True)
class MembershipCertificate:
    """Multipliers and remainder produced by the ideal membership solve."""

    R1: ExpPoly
    R2: ExpPoly
    R3: ExpPoly
    R4: ExpPoly
    R5: ExpPoly  # xi, the dalpha multiplier
    R6: ExpPoly  # omega, the beta multiplier
    remainder: DiffForm

    @property
    def in_ideal(self) -> bool:
        return self.remainder.is_zero()

    def to_json(self) -> dict:
        return {
            # a schema-1 key, kept although every solve decides
            "status": "decided",
            "in_ideal": self.in_ideal,
            "multipliers": {
                f"R{i}": str(getattr(self, f"R{i}")) for i in range(1, 7)
            },
            "remainder": str(self.remainder),
        }


def ideal_membership(gamma: DiffForm, ctx: ModelContext) -> MembershipCertificate:
    """Decide membership of a 2-form in I and produce the certificate."""
    if not isinstance(gamma, DiffForm) or gamma.degree != 2:
        raise ValueError("ideal membership is defined for 2-forms")

    _, _, beta = _forms_of(ctx)
    minus_eq = beta.coeff(_SLOT_TX)
    # -sigma2/2, a nonzero constant
    beta_ta = beta.coeff(_SLOT_TA).constant_value()

    c = lambda slot: gamma.coeff(slot)

    # triangular solve; each line consumes one canonical slot
    R4 = -c(_SLOT_PHIB)
    R5 = _sum_of_products(((c(_SLOT_TB), _ONE),), ((_B, R4),))
    R2 = c(_SLOT_XPHI)
    R3 = -c(_SLOT_PHIA)
    R1 = c(_SLOT_TPHI)
    R6 = _sum_of_products(((c(_SLOT_TA), _ONE),), ((_B, R3),)) * (1 / beta_ta)

    rem = {
        _SLOT_TX: _sum_of_products(
            ((c(_SLOT_TX), _ONE), (_A, R1)), ((_B, R2), (R6, minus_eq))
        ),
        _SLOT_XA: _sum_of_products(((c(_SLOT_XA), _ONE),), ((_A, R3), (R5, _ONE))),
        _SLOT_XB: _sum_of_products(((c(_SLOT_XB), _ONE),), ((_A, R4),)),
        _SLOT_AB: c(_SLOT_AB),
    }
    remainder = DiffForm._canonical(2, rem)
    return MembershipCertificate(R1, R2, R3, R4, R5, R6, remainder)
