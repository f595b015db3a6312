"""Bit-exact GF(2) model of the two-hop interference network.

Conventions used across the whole package:

* A link of strength ``k`` delivers the top ``k`` levels of the transmitted
  vector, bottom-aligned at the receiver (lower-shift matrix model).
* Level index 0 is the top (most significant) level.  This is the paper-style
  "level 1" of the figures, shifted to 0-based indexing.
* Hop-1 vectors have length ``q = max(m, n)``; hop-2 vectors have length
  ``qbar = max(mbar, nbar, f)``.

All operations are pure functions on immutable values.  ``GfVec`` is the
checked public type; schedules and runs apply the private geometry to tuples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction


class ChannelDomainError(ValueError):
    """Vector lengths or link parameters outside the model's domain."""


@dataclass(frozen=True)
class ChannelParams:
    """The five link strengths (bits per channel use).

    m / n: hop-1 cross and direct links (source -> relay).
    mbar / nbar: backward cross and direct links (relay -> source).
    f: forward link of the second hop (relay -> destination).
    """

    m: int
    n: int
    mbar: int
    nbar: int
    f: int

    def __post_init__(self) -> None:
        for name in ("m", "n", "mbar", "nbar", "f"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ChannelDomainError(
                    f"{name} must be a non-negative integer, got {value!r}"
                )

    @property
    def q(self) -> int:
        """Hop-1 vector length."""
        return max(self.m, self.n)

    @property
    def qbar(self) -> int:
        """Hop-2 vector length."""
        return max(self.mbar, self.nbar, self.f)

    @property
    def alpha(self):
        """Interference ratio m/n.

        Exact Fraction for n > 0, ``math.inf`` for n = 0 < m, and None for
        the degenerate m = n = 0 channel.
        """
        if self.n > 0:
            return Fraction(self.m, self.n)
        return math.inf if self.m > 0 else None

    def short(self) -> str:
        return (
            f"m={self.m} n={self.n} mbar={self.mbar} "
            f"nbar={self.nbar} f={self.f}"
        )


_LEVEL_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_TEXT_LEVEL = bytes.maketrans(b"01", b"\x00\x01")     # its inverse


def _vec_str(levels) -> str:
    """The trace encoding of a vector: '0'/'1' top-first, '-' for empty.

    Every level must be the int 0 or 1, as in every ``GfVec`` and every
    engine row.  ``bytes`` then holds one byte per level, and one
    ``translate`` turns the whole vector into text in C, with no Python-level
    pass per level.
    """
    return bytes(levels).translate(_LEVEL_TEXT).decode() or "-"


class GfVec(tuple):
    """Fixed-length binary column vector over GF(2).

    Immutable value type; arithmetic is componentwise XOR and requires equal
    lengths.  Index 0 is the top level.
    """

    def __new__(cls, bits=()):
        vec = super().__new__(cls, tuple(int(b) for b in bits))
        if any(b not in (0, 1) for b in vec):
            raise ChannelDomainError("GfVec levels must be 0 or 1")
        return vec

    @classmethod
    def zeros(cls, length: int) -> "GfVec":
        if length < 0:
            raise ChannelDomainError("length must be non-negative")
        return cls((0,) * length)

    @classmethod
    def from_string(cls, text: str) -> "GfVec":
        """Parse the trace encoding written by ``_vec_str``.

        ``strip`` leaves text over exactly when a character is not ``0`` or
        ``1``; that check comes first, with ``""``, which ``_vec_str`` never
        writes.  The text is then ASCII ``0``/``1``, one byte per level, so
        one ``translate`` turns it into the levels in C, and the tuple is
        made directly from them, without ``__new__``'s per-level checks.
        """
        if text == "-":
            return cls()
        if not text or text.strip("01"):
            raise ChannelDomainError(f"bad vector string {text!r}")
        return tuple.__new__(cls, text.encode().translate(_TEXT_LEVEL))

    def __xor__(self, other):
        if not isinstance(other, tuple) or len(other) != len(self):
            raise ChannelDomainError("XOR requires equal-length vectors")
        return GfVec(a ^ b for a, b in zip(self, other))

    def flip(self, level: int) -> "GfVec":
        """Copy with one level inverted (fault injection helper)."""
        if not 0 <= level < len(self):
            raise ChannelDomainError(f"level {level} outside vector")
        return GfVec(b ^ 1 if i == level else b for i, b in enumerate(self))

    __str__ = _vec_str

    def __repr__(self) -> str:
        return f"GfVec({str(self)!r})"


def _superpose(zero, *terms):
    """Shift each ``(levels, k)`` term by S^(L-k) and XOR the results.

    Works on any level type with ``^``: ``int`` bits in the value engine,
    ``frozenset`` payload-reference sets in the schedule builder; ``zero`` is
    that type's empty level.  All terms have the same length L.  The XOR is
    one ``map(operator.xor, ...)`` over the levels, so it runs in C for both
    types; a frozenset level XORed with an empty one comes back as an equal
    new set.
    """
    out = None
    for levels, k in terms:
        shifted = (zero,) * (len(levels) - k) + tuple(levels[:k])
        out = shifted if out is None else tuple(map(operator.xor, out, shifted))
    return out


def _first_hop(x_s1, x_s2, p: ChannelParams, zero):
    return (_superpose(zero, (x_s1, p.n), (x_s2, p.m)),
            _superpose(zero, (x_s1, p.m), (x_s2, p.n)))


def _second_hop(x_r1, x_r2, p: ChannelParams, zero):
    return (_superpose(zero, (x_r1, p.f)),
            _superpose(zero, (x_r2, p.f)),
            _superpose(zero, (x_r1, p.nbar), (x_r2, p.mbar)),
            _superpose(zero, (x_r2, p.nbar), (x_r1, p.mbar)))


def shift(x: GfVec, k: int) -> GfVec:
    """Multiply by the lower-shift matrix S^(L-k).

    The top k levels of ``x`` survive, in order, bottom-aligned; everything
    above them is zero.  ``k = L`` is the identity, ``k = 0`` the zero map.
    """
    length = len(x)
    if not 0 <= k <= length:
        raise ChannelDomainError(f"shift amount {k} outside [0, {length}]")
    return GfVec(_superpose(0, (x, k)))


def first_hop(x_s1: GfVec, x_s2: GfVec, p: ChannelParams):
    """Hop-1 superposition: returns (y_r1, y_r2).

    y_r1 = shift(x_s1, n) + shift(x_s2, m) and symmetrically for y_r2.
    """
    q = p.q
    if len(x_s1) != q or len(x_s2) != q:
        raise ChannelDomainError(f"hop-1 inputs must have length q={q}")
    return tuple(GfVec(y) for y in _first_hop(x_s1, x_s2, p, 0))


def second_hop(x_r1: GfVec, x_r2: GfVec, p: ChannelParams):
    """Hop-2 broadcast: returns (y_d1, y_d2, y_s1, y_s2).

    Each destination sees only its own relay through the f-link; each source
    overhears both relays through the backward interference channel.
    """
    qbar = p.qbar
    if len(x_r1) != qbar or len(x_r2) != qbar:
        raise ChannelDomainError(f"hop-2 inputs must have length qbar={qbar}")
    return tuple(GfVec(y) for y in _second_hop(x_r1, x_r2, p, 0))
