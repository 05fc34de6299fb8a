"""Exact rational polynomials and characteristic polynomials.

A characteristic polynomial is built from the power sums of its roots by
Newton's identities (``poly_from_power_sums``), which only ever divide by
integers and are therefore exact over the rationals. ``char_poly`` feeds it
tr(m^k); Lloyd's test feeds it tr(A_i^k) = v (L_i^k)_00, read off the
intersection numbers, so no v x v characteristic polynomial is formed.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .ratmat import RationalMatrix


class Polynomial:
    """Polynomial with exact rational coefficients, ascending degree order.

    Trailing zero coefficients are stripped; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        data = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while data and data[-1] == 0:
            data.pop()
        object.__setattr__(self, "coeffs", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def from_roots(cls, roots: Sequence) -> "Polynomial":
        p = cls([1])
        for r in roots:
            p = p * cls([-Fraction(r), 1])
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial(merged)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        if len(rem) < len(div):
            return Polynomial([]), Polynomial(rem)
        quot = [Fraction(0)] * (len(rem) - len(div) + 1)
        lead = div[-1]
        for k in range(len(quot) - 1, -1, -1):
            q = rem[k + len(div) - 1] / lead
            quot[k] = q
            if q != 0:
                for j, d in enumerate(div):
                    rem[k + j] -= q * d
        return Polynomial(quot), Polynomial(rem)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            coef = "" if mag == 1 and i > 0 else str(mag)
            var = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            sign = "-" if c < 0 else ("+" if terms else "")
            terms.append(f"{sign}{coef}{var}" if not terms else f" {sign} {coef}{var}")
        return "Polynomial(" + "".join(terms) + ")"


def poly_divides(p: Polynomial, q: Polynomial) -> bool:
    """True iff q = p * r for some polynomial r, by exact division."""
    if p.is_zero:
        raise ValueError("divisibility by the zero polynomial is undefined")
    _, rem = divmod(q, p)
    return rem.is_zero


def poly_from_power_sums(sums: Sequence) -> Polynomial:
    """Monic polynomial of degree n = len(sums) whose roots have power sums
    sums[k-1] = sum_r r^k, k = 1..n, by Newton's identities.

    With e_0 = 1, k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i, and the
    coefficient of x^(n-k) is (-1)^k e_k. Only divides by integers, so it is
    exact over the rationals; integer power sums of algebraic integers (the
    traces of powers of an integer matrix) keep it in plain int arithmetic.
    """
    n = len(sums)
    e = [1]
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * sums[i - 1]
                  for i in range(1, k + 1))
        e.append(acc // k if acc % k == 0 else Fraction(acc) / k)
    return Polynomial([(-1) ** (n - j) * e[n - j] for j in range(n + 1)])


def char_poly(m: RationalMatrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - m), exact.

    The power sums of the eigenvalues are tr(m^k), k = 1..n, which
    ``poly_from_power_sums`` turns into coefficients. Integer matrices keep
    the powers in plain int arithmetic, which avoids a gcd per operation.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    rows = [[int(x) if x.denominator == 1 else x for x in row] for row in m.rows]
    power, sums = rows, []
    for k in range(1, n + 1):
        sums.append(sum(power[i][i] for i in range(n)))
        if k < n:
            power = [[sum(power[i][l] * rows[l][j] for l in range(n))
                      for j in range(n)] for i in range(n)]
    return poly_from_power_sums(sums)


def integer_roots(p: Polynomial, bound: int | None = None
                  ) -> tuple[dict[int, int], Polynomial]:
    """Integer roots (with multiplicity) of a monic integer polynomial.

    Returns ({root: multiplicity}, remaining factor after deflation); the
    polynomial splits over the rationals iff the remainder is constant.
    ``bound`` limits the root search range; by default the Cauchy bound
    1 + max|c_i| is used, so pass a sharper bound (e.g. a Gershgorin row-sum
    bound) when one is known.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every root")
    if not p.is_monic or any(c.denominator != 1 for c in p.coeffs):
        raise ValueError("integer root extraction expects a monic integer polynomial")
    roots: dict[int, int] = {}
    q = p
    while q.degree > 0 and q.coeffs[0] == 0:
        roots[0] = roots.get(0, 0) + 1
        q = Polynomial(q.coeffs[1:])
    if bound is None:
        bound = 1 + max((abs(int(c)) for c in q.coeffs[:-1]), default=0)
    for r in range(-bound, bound + 1):
        if r == 0:
            continue
        while q.degree > 0 and q(r) == 0:
            roots[r] = roots.get(r, 0) + 1
            q, rem = divmod(q, Polynomial([-r, 1]))
            assert rem.is_zero
    return roots, q
