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

The only division performed is by sigma2/2, a unit because ModelContext
enforces sigma2 > 0, so the solve always decides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exppoly import ExpPoly
from .forms import DiffForm
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

    A = ExpPoly.var("A")
    B = ExpPoly.var("B")
    phi = ExpPoly.var("phi")
    eq = B + ctx.rtilde * A - ctx.r * phi

    c = lambda slot: gamma.coeff(slot)

    # triangular solve; each line consumes one canonical slot
    R4 = -c(_SLOT_PHIB)
    R5 = c(_SLOT_TB) - B * R4
    R2 = c(_SLOT_XPHI)
    R3 = -c(_SLOT_PHIA)
    R1 = c(_SLOT_TPHI)

    R6 = (B * R3 - c(_SLOT_TA)) * (2 / ctx.sigma2)

    rem = {
        _SLOT_TX: c(_SLOT_TX) - (-A * R1 + B * R2 - R6 * eq),
        _SLOT_XA: c(_SLOT_XA) - (A * R3 + R5),
        _SLOT_XB: c(_SLOT_XB) - A * R4,
        _SLOT_AB: c(_SLOT_AB),
    }
    remainder = DiffForm(2, rem)
    return MembershipCertificate(R1, R2, R3, R4, R5, R6, remainder)
