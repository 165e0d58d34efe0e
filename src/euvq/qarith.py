"""Bit-exact emulation of the reversible-arithmetic primitives, and their Toffoli counts.

Comparators, the uniform-superposition amplitude encoding of an integer, the
sum-of-squares radius test, and the many-particle all-bound predicate are
emulated on registers small enough that every output can be checked against
plain integer arithmetic. No count depends on a register's value, so each
counted block's Toffolis are a function of its widths, written term by term
apart from the closed forms in :mod:`euvq.planewave`. Blocks that
measure-and-fixup uncomputes cost no Toffolis and are not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PlaneWaveSpec, ValidationError


@dataclass(frozen=True)
class BitRegister:
    """Fixed-width register; two's-complement reading when ``signed``."""

    width: int
    value: int
    signed: bool = False

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValidationError("width must be >= 1")
        if not 0 <= self.value < 2**self.width:
            raise ValidationError(f"value {self.value} does not fit in {self.width} bits")

    @property
    def as_int(self) -> int:
        if self.signed and self.value >= 2 ** (self.width - 1):
            return self.value - 2**self.width
        return self.value

    @classmethod
    def from_int(cls, value: int, width: int, signed: bool = False) -> "BitRegister":
        lo = -(2 ** (width - 1)) if signed else 0
        hi = 2 ** (width - 1) if signed else 2**width
        if not lo <= value < hi:
            raise ValidationError(f"{value} out of range for {width}-bit register")
        return cls(width=width, value=value & (2**width - 1), signed=signed)


def comp(a: BitRegister, b: BitRegister) -> int:
    """Comparator bit b(beta < alpha) for |alpha>|beta>|0>; costs n Toffolis."""
    if a.width != b.width:
        raise ValidationError("comparator operands must have equal widths")
    return int(b.value < a.value)


def be_x_amplitude(alpha: int, width: int) -> tuple[float, float]:
    """Amplitudes of the uniform-comparator block encoding of an integer.

    Follows unif -> comp -> unif(dagger) branch by branch: unif spreads beta
    evenly over its 2^n values, the comparator and the X on the flag mark each
    branch with flag = NOT(beta < alpha), and unif(dagger) projected on
    beta = 0 gives each flag the count of its branches over 2^n. The alpha
    register stays classical, so no statevector is built. Returns
    (flag0, flag1) = (alpha/2^n, (2^n - alpha)/2^n); the flag is flipped
    after the comparator so that flag 0 carries the encoded value.
    ``alpha`` may equal 2^n (full-range boundary convention).
    """
    if width > 6:
        raise ValidationError("width capped at 6: the 2^width comparator branches are enumerated")
    if not 0 <= alpha <= 2**width:
        raise ValidationError("alpha out of range")
    size = 2**width

    # state indexed [beta, flag] in units of 1/sqrt(size); the alpha register
    # stays classical and every branch coefficient is the integer 1
    flags = [int(beta < alpha) ^ 1 for beta in range(size)]  # comp, then X on the flag
    # unif(dagger) projects beta onto |0>: amplitude = (branch count)/size,
    # exact in binary floating point because size is a power of two
    count1 = sum(flags)
    amp0 = (size - count1) / size
    amp1 = count1 / size
    return amp0, amp1


def radius_threshold(r_cutoff: float, n_bits: int, box: float) -> int:
    """Classical constant of the sphere test: the largest integer below (R_c 2^n / L)^2.

    That is ceil(c) - 1 for c = (R_c 2^n / L)^2, found in integers from the
    exact binary fractions of R_c and L, so no rounding decides a tie and
    an underflow cannot drop the origin out of the sphere.
    """
    if r_cutoff <= 0 or box <= 0:
        raise ValidationError("r_cutoff and box must be positive")
    (r_num, r_den), (box_num, box_den) = r_cutoff.as_integer_ratio(), box.as_integer_ratio()
    # c = num / den with positive integers, whose largest integer below is (num - 1) // den
    num, den = (r_num * box_den * 2**n_bits) ** 2, (r_den * box_num) ** 2
    return (num - 1) // den


def radius_test(q: tuple[BitRegister, BitRegister, BitRegister], r_cutoff: float,
                box: float) -> int:
    """Sphere-membership bit: 1 when q_x^2 + q_y^2 + q_z^2 < (R_c 2^n / L)^2.

    The sum of squares is compared with :func:`radius_threshold` by <=, which
    is the strict inequality exactly, ties with an exact-integer constant
    included: a particle on the sphere is outside. Its Toffolis are
    :func:`radius_test_toffolis` of the coordinate width.
    """
    widths = {reg.width for reg in q}
    if len(widths) != 1:
        raise ValidationError("coordinate registers must share one width")
    n = widths.pop()
    q2 = sum(reg.as_int**2 for reg in q)
    return int(q2 <= radius_threshold(r_cutoff, n, box))


def radius_test_toffolis(n: int) -> int:
    """Toffolis of the radius test on n-bit coordinates; its uncomputation is not counted."""
    return (3 * n * (3 * n - 3)    # momentum-to-position transform
            + 3 * n * n - n - 1    # sum of squares
            + 2 * n + 2)           # comparator


def all_bound(qs: list[tuple[BitRegister, BitRegister, BitRegister]], r_cutoff: float,
              box: float) -> int:
    """Product of per-particle bound bits over eta particles."""
    if not qs:
        raise ValidationError("need at least one particle register")
    return min(radius_test(particle, r_cutoff, box) for particle in qs)


def all_bound_toffolis(n: int, eta: int) -> int:
    """Toffolis of the all-bound predicate on eta particles with n-bit coordinates.

    Each particle pays a radius test and, for eta > 1, a ceil(log2 eta)-bit
    count; the sum is :func:`euvq.planewave.continuum_projector_cost`.
    """
    counter = math.ceil(math.log2(eta)) if eta > 1 else 0
    return eta * (radius_test_toffolis(n) + counter)


def position_be_toffolis(spec: PlaneWaveSpec) -> int:
    """Toffolis of the block encoding of the summed position operator.

    The inequality test and the uncomputation of these blocks ride the
    measure-and-fixup path and are not counted, so the sum equals the
    closed-form encoding cost exactly.
    """
    n, eta = spec.n_bits, spec.eta
    uniform = math.ceil(math.log2(3 * eta)) + 2 * max(0, math.ceil(math.log2(1.0 / spec.epsilon_be)))
    return (uniform            # uniform superposition
            + 3 * eta * n      # controlled swaps
            + n * (n - 1))     # phase-gradient transform
