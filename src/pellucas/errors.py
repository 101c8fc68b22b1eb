"""Exception types shared across the package."""


class NotInvertibleError(ValueError):
    """Modular inverse does not exist; carries the offending gcd.

    The gcd may expose a nontrivial factor of the modulus, so callers
    performing tests usually convert this into a composite verdict.
    """

    def __init__(self, a, n, gcd):
        super().__init__(f"{a} is not invertible mod {n} (gcd {gcd})")
        self.gcd = gcd


class MixedContextError(ValueError):
    """Arithmetic attempted between values from different rings/conics."""


class NotOnConicError(ValueError):
    """Pair (x, y) fails the membership congruence x^2 - d y^2 = 1 mod n."""


class PhiUndefinedError(ValueError):
    """Parametrization denominator a^2 - d shares a factor with n."""

    def __init__(self, a, d, n, gcd):
        super().__init__(
            f"phi({a}) undefined mod {n}: gcd(a^2 - {d}, n) = {gcd}"
        )
        self.gcd = gcd


class EnumerationBoundError(ValueError):
    """Exhaustive point counting was asked for a modulus above its bound."""


class DegenerateDError(ValueError):
    """P = 2 gives discriminant P^2 - 4 = 0, which no test accepts."""


class ZeroPError(ValueError):
    """2x = 0 mod n cannot be lifted to a positive Lucas parameter P."""
