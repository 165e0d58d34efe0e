"""Bit-exact emulation of the reversible-arithmetic primitives with Toffoli ledgers.

Comparators, the uniform-superposition amplitude encoding of an integer, the
sum-of-squares radius test, and the many-particle all-bound predicate are
emulated on registers small enough that every output can be checked against
plain integer arithmetic. Each primitive charges its Toffoli count to a
ledger; blocks uncomputed by measure-and-fixup cost nothing in the default
accounting mode and are charged in ``Full`` mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class ToffoliLedger:
    """Itemized Toffoli counts with measure-and-fixup accounting.

    ``entries`` are always charged; ``fixup_entries`` are the blocks that
    measure-and-fixup uncomputes for free, charged only in ``Full`` mode.
    """

    entries: list[tuple[str, int]] = field(default_factory=list)
    fixup_entries: list[tuple[str, int]] = field(default_factory=list)

    def charge(self, label: str, count: int, fixup: bool = False) -> None:
        if count < 0:
            raise ValidationError("cannot charge a negative gate count")
        (self.fixup_entries if fixup else self.entries).append((label, count))

    def total(self, mode: str = "MeasureFixup") -> int:
        if mode not in ("MeasureFixup", "Full"):
            raise ValidationError("mode must be MeasureFixup or Full")
        charged = sum(count for _, count in self.entries)
        if mode == "Full":
            charged += sum(count for _, count in self.fixup_entries)
        return charged


def comp(a: BitRegister, b: BitRegister, ledger: ToffoliLedger | None = None) -> int:
    """Comparator bit b(beta < alpha) for |alpha>|beta>|0>; charges n Toffolis."""
    if a.width != b.width:
        raise ValidationError("comparator operands must have equal widths")
    if ledger is not None:
        ledger.charge("comp", a.width)
    return int(b.value < a.value)


def be_x_amplitude(alpha: int, width: int) -> tuple[float, float]:
    """Amplitudes of the uniform-comparator block encoding of an integer.

    Simulates unif -> comp -> unif(dagger) on an explicit statevector over
    2^(2n+1) basis states and reads off the |alpha>|0>|flag> amplitudes.
    Returns (flag0, flag1) = (alpha/2^n, (2^n - alpha)/2^n); the flag is
    flipped after the comparator so that flag 0 carries the encoded value.
    ``alpha`` may equal 2^n (full-range boundary convention).
    """
    if width > 6:
        raise ValidationError("statevector emulation capped at width 6")
    if not 0 <= alpha <= 2**width:
        raise ValidationError("alpha out of range")
    size = 2**width

    # state indexed [beta, flag] in units of 1/sqrt(size); the alpha register
    # stays classical and every branch coefficient is the integer 1
    flags = np.zeros(size, dtype=np.int64)
    for beta in range(size):
        flags[beta] = int(beta < alpha) ^ 1       # comp, then X on the flag
    # unif(dagger) projects beta onto |0>: amplitude = (branch count)/size,
    # exact in binary floating point because size is a power of two
    count1 = int(np.sum(flags))
    amp0 = (size - count1) / size
    amp1 = count1 / size
    return amp0, amp1


def radius_threshold(r_cutoff: float, n_bits: int, box: float) -> int:
    """Classical constant floor((R_c * 2^n / L)^2) for the sphere test."""
    if r_cutoff <= 0 or box <= 0:
        raise ValidationError("r_cutoff and box must be positive")
    return math.floor((r_cutoff * 2**n_bits / box) ** 2)


def radius_test(q: tuple[BitRegister, BitRegister, BitRegister], r_cutoff: float,
                box: float, ledger: ToffoliLedger | None = None) -> int:
    """Sphere-membership bit: 1 when q_x^2 + q_y^2 + q_z^2 < (R_c 2^n / L)^2.

    The comparison runs against the floored squared constant, ties included,
    which reproduces the real-valued strict inequality whenever the constant
    is not an exact integer. Charges sum-of-squares (3n^2 - n - 1) and
    comparator (2n + 2) Toffolis, plus the 3n(3n-3) momentum-to-position
    transform.
    """
    widths = {reg.width for reg in q}
    if len(widths) != 1:
        raise ValidationError("coordinate registers must share one width")
    n = widths.pop()
    if ledger is not None:
        ledger.charge("qft", 3 * n * (3 * n - 3))
        ledger.charge("sum-of-squares", 3 * n * n - n - 1)
        ledger.charge("comparator", 2 * n + 2)
        ledger.charge("uncompute qft", 3 * n * (3 * n - 3), fixup=True)
        ledger.charge("uncompute sum-of-squares", 3 * n * n - n - 1, fixup=True)
    q2 = sum(reg.as_int**2 for reg in q)
    return int(q2 <= radius_threshold(r_cutoff, n, box))


def all_bound(qs: list[tuple[BitRegister, BitRegister, BitRegister]], r_cutoff: float,
              box: float, ledger: ToffoliLedger | None = None) -> int:
    """Product of per-particle bound bits over eta particles (Eq.-style counter).

    The default-mode ledger total is eta (12 n^2 - 8 n + ceil(log2 eta) + 1),
    the closed form of :func:`euvq.planewave.continuum_projector_cost`.
    """
    if not qs:
        raise ValidationError("need at least one particle register")
    eta = len(qs)
    counter_bits = math.ceil(math.log2(eta)) if eta > 1 else 0
    bit = 1
    for particle in qs:
        inside = radius_test(particle, r_cutoff, box, ledger=ledger)
        if ledger is not None and counter_bits:
            ledger.charge("bound counter", counter_bits)
        bit &= inside
    return bit


def position_be_ledger(spec: PlaneWaveSpec) -> ToffoliLedger:
    """Ledger for the block encoding of the summed position operator.

    Charged entries: uniform superposition ceil(log2(3 eta)) + 2 ceil(log2(1/eps)),
    controlled swaps 3 eta n, phase-gradient transform n(n-1). The inequality
    test (n) and the uncomputation of the compute blocks ride the
    measure-and-fixup path, so the default-mode total equals the closed-form
    encoding cost exactly.
    """
    n, eta = spec.n_bits, spec.eta
    uniform = math.ceil(math.log2(3 * eta)) + 2 * max(0, math.ceil(math.log2(1.0 / spec.epsilon_be)))
    ledger = ToffoliLedger()
    ledger.charge("uniform superposition", uniform)
    ledger.charge("controlled swaps", 3 * eta * n)
    ledger.charge("phase-gradient qft", n * (n - 1))
    ledger.charge("inequality test", n, fixup=True)
    ledger.charge("uncompute swaps", 3 * eta * n, fixup=True)
    ledger.charge("uncompute qft", n * (n - 1), fixup=True)
    ledger.charge("uncompute uniform", uniform, fixup=True)
    return ledger
