"""Stretch access rights.

§6.1: "Protection is carried out at stretch granularity — every
protection domain provides a mapping from the set of valid stretches to
a subset of {read, write, execute, meta}. A domain which holds the meta
right is authorised to modify protections and mappings on the relevant
stretch."
"""

from enum import Enum

from repro.hw.mmu import AccessKind


class Right(Enum):
    """One access right a protection domain may hold on a stretch."""

    READ = "r"
    WRITE = "w"
    EXECUTE = "x"
    META = "m"


_ACCESS_TO_RIGHT = {
    AccessKind.READ: Right.READ,
    AccessKind.WRITE: Right.WRITE,
    AccessKind.EXECUTE: Right.EXECUTE,
}


class Rights:
    """An immutable subset of {r, w, x, m}.

    Construct from :class:`Right` members or parse from a compact string
    (``Rights.parse("rwm")``). Set algebra is supported (``|``, ``&``,
    ``in``) because protection-domain manipulation reads naturally that
    way.
    """

    __slots__ = ("_bits",)

    _ORDER = (Right.READ, Right.WRITE, Right.EXECUTE, Right.META)

    def __init__(self, *rights):
        bits = frozenset()
        for right in rights:
            if not isinstance(right, Right):
                raise TypeError("expected Right, got %r" % (right,))
            bits = bits | {right}
        self._bits = bits

    @classmethod
    def parse(cls, text):
        """Parse ``"rwxm"``-style strings (order and repeats ignored)."""
        by_char = {r.value: r for r in Right}
        rights = []
        for char in text:
            if char == "-":
                continue
            if char not in by_char:
                raise ValueError("unknown right %r in %r" % (char, text))
            rights.append(by_char[char])
        return cls(*rights)

    @classmethod
    def none(cls):
        """The empty rights set."""
        return _NONE

    def permits(self, access):
        """True if this rights set allows the given access.

        Accepts an :class:`~repro.hw.mmu.AccessKind` (for MMU checks) or
        a :class:`Right` (for meta checks).
        """
        if isinstance(access, AccessKind):
            return _ACCESS_TO_RIGHT[access] in self._bits
        if isinstance(access, Right):
            return access in self._bits
        raise TypeError("expected AccessKind or Right, got %r" % (access,))

    @property
    def meta(self):
        """True if the meta right is held."""
        return Right.META in self._bits

    def __contains__(self, right):
        return right in self._bits

    @classmethod
    def _from_bits(cls, bits):
        new = cls()
        new._bits = bits
        return new

    def __or__(self, other):
        return Rights._from_bits(self._bits | other._bits)

    def __and__(self, other):
        return Rights._from_bits(self._bits & other._bits)

    def __sub__(self, other):
        return Rights._from_bits(self._bits - other._bits)

    def __eq__(self, other):
        return isinstance(other, Rights) and self._bits == other._bits

    def __hash__(self):
        return hash(self._bits)

    def __bool__(self):
        return bool(self._bits)

    def __iter__(self):
        return iter(r for r in self._ORDER if r in self._bits)

    def __str__(self):
        return "".join(r.value if r in self._bits else "-" for r in self._ORDER)

    def __repr__(self):
        return "Rights(%s)" % self


_NONE = Rights()

RW = Rights.parse("rw")
RWM = Rights.parse("rwm")
R = Rights.parse("r")
ALL = Rights.parse("rwxm")
