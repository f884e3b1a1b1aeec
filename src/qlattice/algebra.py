"""Exact arithmetic: small finite fields F_q and integer polynomials in q.

Field elements are the integers 0..q-1.  For q = p^e with e > 1 the integer
encodes the coefficient vector of the polynomial basis in base p, low degree
least significant, so 2 always encodes the generator x.  All field arithmetic
is table lookup; the tables are built once per cardinality.

Polynomials in the indeterminate q (class:`QPoly`) carry exact integer
coefficients.  Coefficients are kept inside the signed 64-bit range: any
operation that would leave it raises OverflowError instead of growing or
wrapping silently.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotPrimePowerError, UnsupportedFieldError

#: The supported fields are q in {2,3,4,5,7,8,9}.  Each extension field is
#: reduced modulo its pinned irreducible, low degree first (x^2+x+1, x^3+x+1,
#: x^2+1), so every field table and every output is byte-reproducible.
_IRREDUCIBLE = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1)}
_MAX_Q = 9

_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)


def _factor_prime_power(q):
    """Return (p, e) with q = p^e <= _MAX_Q; NotPrimePowerError when q is
    not a prime power, else UnsupportedFieldError when q exceeds _MAX_Q.
    Only the divisors up to _MAX_Q are tried, so a q with no prime factor
    that small is refused as too large without trial division to sqrt(q)."""
    if q < 2:
        raise NotPrimePowerError(f"{q} is not a prime power")
    for p in range(2, _MAX_Q + 1):  # the first divisor found is prime
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise NotPrimePowerError(f"{q} is not a prime power")
            break
    if q > _MAX_Q:  # every q in [2, _MAX_Q] has a divisor in that range
        raise UnsupportedFieldError(
            f"q={q} exceeds the supported bound {_MAX_Q}")
    return p, e


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul_modp(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, coefficients mod p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        _poly_trim(a)
    return a


class GF:
    """The finite field with q elements, q a prime power.

    Elements are plain ints in [0, q).  Instances compare and hash by q, so
    fields obtained from :func:`gf` or built directly are interchangeable.
    """

    __slots__ = ("q", "p", "e", "irreducible", "_add", "_mul", "_neg", "_inv")

    def __init__(self, q):
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.irreducible = _IRREDUCIBLE.get(q, ())
        if e == 1:
            add = [[(a + b) % p for b in range(q)] for a in range(q)]
            mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            digits = [tuple((v // p**i) % p for i in range(e)) for v in range(q)]
            enc = {d: v for v, d in enumerate(digits)}

            def pack(coeffs):
                c = list(coeffs) + [0] * e
                return enc[tuple(c[:e])]

            add = [[pack((x + y) % p for x, y in zip(digits[a], digits[b]))
                    for b in range(q)] for a in range(q)]
            mul = [[pack(_poly_mod(_poly_mul_modp(list(digits[a]),
                                                  list(digits[b]), p),
                                   self.irreducible, p))
                    for b in range(q)] for a in range(q)]
        self._add = tuple(tuple(r) for r in add)
        self._mul = tuple(tuple(r) for r in mul)
        self._neg = tuple(next(b for b in range(q) if add[a][b] == 0)
                          for a in range(q))
        self._inv = (0,) + tuple(next(b for b in range(q) if mul[a][b] == 1)
                                 for a in range(1, q))

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._inv[a]

    def div(self, a, b):
        return self._mul[a][self.inv(b)]

    # The row kernel, the one place where entries of F_q rows are combined:
    # table lookups per entry, no method call.  The methods above are scalar.

    def sub_scaled(self, r, c, s, lo=0):
        """r[t] -= c * s[t] for every t >= lo, in place on the list r."""
        add, row = self._add, self._mul[self._neg[c]]
        for t in range(lo, len(r)):
            r[t] = add[r[t]][row[s[t]]]

    def scale(self, c, r, lo=0):
        """r[t] *= c for every t >= lo, in place on the list r."""
        row = self._mul[c]
        for t in range(lo, len(r)):
            r[t] = row[r[t]]

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def __eq__(self, other):
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self):
        return hash(("GF", self.q))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def gf(q):
    """Cached field constructor; gf(q) is gf(q)."""
    return GF(q)


def _checked(coeffs):
    for c in coeffs:
        if not _INT64_MIN <= c <= _INT64_MAX:
            raise OverflowError("polynomial coefficient exceeds 64-bit range")
    return coeffs


class QPoly:
    """Polynomial in q with exact integer coefficients, low degree first.

    The coefficient tuple is canonical: no trailing zeros, the zero
    polynomial is the empty tuple.  Arithmetic mixes freely with ints.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(_checked(c))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, k):
        """q^k"""
        return cls((0,) * k + (1,))

    @classmethod
    def geometric(cls, lo, hi):
        """q^lo + q^(lo+1) + ... + q^hi"""
        if hi < lo:
            return cls()
        return cls((0,) * lo + (1,) * (hi - lo + 1))

    @staticmethod
    def _coerce(other):
        if isinstance(other, QPoly):
            return other
        if isinstance(other, int):
            return QPoly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    out[i + j] += x * y
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = QPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, q0):
        """Exact integer evaluation at q = q0."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
            if not _INT64_MIN <= acc <= _INT64_MAX:
                raise OverflowError("evaluation exceeds 64-bit range")
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def to_list(self):
        """Serialized form: coefficient list, low degree first."""
        return list(self.coeffs)

    def __repr__(self):
        return f"QPoly({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = [(k, c) for k, c in enumerate(self.coeffs) if c]
        # Ascending by degree, unless that would lead with a negative term
        # while a positive one exists; then descend so the output starts
        # positive ("q^3 - q" rather than "-q + q^3").
        if terms[0][1] < 0 and any(c > 0 for _, c in terms):
            terms.reverse()
        parts = []
        for k, c in terms:
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

