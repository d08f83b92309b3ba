"""Exact ground fields: the rationals and prime fields F_p.

Scalars are plain Python values, the field's native scalars, one per
value: over Q an ``int`` when the value is integral and otherwise a
``fractions.Fraction`` (lowest terms, denominator > 1), never a float or a
bool; over F_p an ``int`` in ``[0, p)``.  Integral rationals thus take
Python's C-level int arithmetic and truthiness.  The ``linalg`` kernel
works on native scalars with Python operators, tests zero by truthiness and
ends each entry with the field's one normalisation (``% p`` in
characteristic p; an integral ``Fraction`` becomes its numerator over Q);
it calls ``coerce`` only on values that enter through its public boundary.
The ``Field`` methods serve parsing, formatting, inversion and code outside
the kernel.

``Field`` states the arithmetic once: ``add``, ``sub``, ``mul``, ``neg`` and
``format`` apply the Python operator and then the field's ``normal``.  A
subclass defines only what differs: its constants, ``normal``, ``coerce``,
``inv`` and its tag.

Serialization: rationals print as ``a/b`` (gcd(a,b)=1, b>0, just ``a`` when
b=1); prime-field residues print as their decimal value.
"""

from __future__ import annotations

from fractions import Fraction


# Moduli from here on are refused: eigenvalue searches test every residue,
# so their cost grows with p.  The package's own checks use p <= 101.
MAX_MODULUS = 2**16


class FieldError(ValueError):
    """Malformed scalar strings, bad moduli, division by zero."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """Common interface; instances are immutable and compare by value."""

    characteristic: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def coerce(self, x):
        """Bring an int (or already-exact scalar) into this field."""
        raise NotImplementedError

    def normal(self, x):
        """The native scalar equal to ``x``, an exact result of Python
        operators on native scalars."""
        raise NotImplementedError

    def add(self, a, b):
        return self.normal(a + b)

    def sub(self, a, b):
        return self.normal(a - b)

    def mul(self, a, b):
        return self.normal(a * b)

    def neg(self, a):
        return self.normal(-a)

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text: str):
        """A scalar from the text ``a`` or ``a/b`` with integers a, b."""
        if not isinstance(text, str):
            raise FieldError(f"scalar {text!r} for field {self.spec} must be a string")
        num, slash, den = text.strip().partition("/")
        try:
            num, den = int(num), int(den) if slash else 1
        except ValueError:
            raise FieldError(f"bad scalar {text!r} for field {self.spec}") from None
        if not self.from_int(den):
            raise FieldError(f"zero denominator in {text!r} for field {self.spec}")
        return self.div(self.from_int(num), self.from_int(den))

    def format(self, a) -> str:
        return str(self.normal(a))

    def elements(self):
        """All field elements; only available for prime fields."""
        raise FieldError("cannot enumerate an infinite field")

    @property
    def spec(self) -> str:
        raise NotImplementedError

    @staticmethod
    def from_spec(spec: str) -> "Field":
        """Parse a field tag: ``"Q"`` or ``"Fp:<p>"``."""
        if spec == "Q":
            return QQ
        if spec.startswith("Fp:"):
            try:
                p = int(spec[3:])
            except ValueError:
                raise FieldError(f"bad field spec {spec!r}") from None
            return PrimeField(p)
        raise FieldError(f"bad field spec {spec!r}")


class Rationals(Field):
    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return int(n)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return self.normal(x)
        if isinstance(x, int):  # bools too
            return int(x)
        raise FieldError(f"cannot coerce {x!r} into Q")

    def normal(self, x):
        return x.numerator if type(x) is Fraction and x.denominator == 1 else x

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return self.normal(Fraction(1) / a)

    @property
    def spec(self):
        return "Q"

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= MAX_MODULUS:
            raise FieldError(f"modulus {p} is too large: prime fields need p < {MAX_MODULUS}")
        if not _is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator % self.p
        raise FieldError(f"cannot coerce {x!r} into F_{self.p}")

    def normal(self, x):
        return x % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return list(range(self.p))

    @property
    def spec(self):
        return f"Fp:{self.p}"

    def __repr__(self):
        return f"FF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = Rationals()


def FF(p: int) -> PrimeField:
    return PrimeField(p)
