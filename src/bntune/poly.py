"""Multivariate polynomials over named parameters, and axis-aligned parameter boxes.

Coefficients are exact rationals so that symbolic identities (row sums, state
elimination) hold without rounding; evaluation reads a float argument at its
exact binary value and rounds the exact result once to a float.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import BadRegion, UnboundParameter, UnsupportedDegree

#: A monomial maps parameter names to positive exponents, stored as a sorted
#: tuple of (name, exponent) pairs.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[str, int], ...]

Rational = Union[int, Fraction]

#: Largest decimal exponent magnitude that :func:`as_fraction` accepts.
_MAX_EXPONENT = 10_000
_EXPONENT_RE = re.compile(r"[eE][+-]?(\d+)\s*$")


def as_fraction(value: int | float | str | Fraction) -> Fraction:
    """Exact rational from a number.

    Floats are converted through their shortest round-tripping decimal form,
    so ``as_fraction(0.3) == Fraction(3, 10)`` — the value the literal meant,
    not the nearest binary double.  Strings accept plain decimals, scientific
    notation, and ``a/b``, without ``_`` digit separators (which ``Fraction``
    accepts from Python 3.11 on only), so every supported Python reads the
    same strings; a ``_`` or a decimal exponent above 10 000 in magnitude
    raises :class:`ValueError`, the latter since its exact value would take
    seconds to build.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        if "_" in value:
            raise ValueError(f"invalid literal for an exact rational: {value!r}")
        exponent = _EXPONENT_RE.search(value)
        if exponent is not None:
            digits = exponent.group(1).lstrip("0")
            if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
                raise ValueError(f"decimal exponent exceeds {_MAX_EXPONENT} in magnitude")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _exact_point(names: frozenset[str], u: Mapping[str, Rational | float]) -> tuple[dict, bool]:
    """The arguments in ``u`` of the parameters ``names``, each float read at
    its exact binary value, and whether any of them was a float."""
    rounded, point = False, {}
    for name in names & u.keys():
        value = u[name]
        if isinstance(value, float):
            value, rounded = Fraction(value), True
        point[name] = value
    return point, rounded


def _binary_fraction(value: int | float | str | Fraction) -> Fraction:
    """Exact rational from a number, keeping a float's exact binary value."""
    if isinstance(value, float):
        return Fraction(value)
    return as_fraction(value)


@dataclass(frozen=True)
class Polynomial:
    """An immutable multivariate polynomial with exact rational coefficients.

    ``terms`` maps monomials to nonzero coefficients and is kept in a sorted
    canonical form, so two polynomials are equal iff they are structurally
    identical.
    """

    terms: tuple[tuple[Monomial, Fraction], ...]

    # -- construction ------------------------------------------------------

    @staticmethod
    def _normalize(raw: Mapping[Monomial, Fraction]) -> "Polynomial":
        cleaned = {m: c for m, c in raw.items() if c != 0}
        return Polynomial(tuple(sorted(cleaned.items())))

    @classmethod
    def constant(cls, value: int | float | str | Fraction) -> "Polynomial":
        c = as_fraction(value)
        constant = cls((((), c),) if c else ())  # what _normalize gives, built directly
        # Filled as the cached property would fill it: readers of every edge's
        # parameters, such as PMC.lowered, then pay nothing for a constant.
        vars(constant)["parameters"] = frozenset()
        return constant

    @classmethod
    def parameter(cls, name: str) -> "Polynomial":
        return cls._normalize({((name, 1),): Fraction(1)})

    # -- inspection --------------------------------------------------------

    @cached_property
    def parameters(self) -> frozenset[str]:
        return frozenset(name for mono, _ in self.terms for name, _ in mono)

    @property
    def is_constant(self) -> bool:
        return all(mono == () for mono, _ in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero if there are no terms)."""
        if not self.is_constant:
            raise UnsupportedDegree(f"{self} is not constant")
        return self.terms[0][1] if self.terms else Fraction(0)

    @property
    def is_multiaffine(self) -> bool:
        return all(exp <= 1 for mono, _ in self.terms for _, exp in mono)

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial | Rational") -> "Polynomial":
        other = _coerce(other)
        merged = dict(self.terms)
        for mono, coeff in other.terms:
            merged[mono] = merged.get(mono, Fraction(0)) + coeff
        return Polynomial._normalize(merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Polynomial | Rational") -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Polynomial | Rational") -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Polynomial | Rational") -> "Polynomial":
        other = _coerce(other)
        product: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                mono = _merge_monomials(m1, m2)
                product[mono] = product.get(mono, Fraction(0)) + c1 * c2
        return Polynomial._normalize(product)

    __rmul__ = __mul__

    # -- evaluation --------------------------------------------------------

    def evaluate(self, u: Mapping[str, Rational | float]) -> Fraction | float:
        """Substitute values for parameters.

        A float argument is read at its exact binary value.  The result is the
        exact value as a ``Fraction``, or, when some argument of a parameter
        that occurs here is a float, that value rounded once to a float.  A
        NaN or infinite float raises (``ValueError``, ``OverflowError``), and
        parameters missing from ``u`` raise :class:`UnboundParameter`.
        """
        point, rounded = _exact_point(self.parameters, u)
        num, den = self._exact(point)
        return num / den if rounded else Fraction(num, den)

    def evaluate_rounded(self, u: Mapping[str, Rational]) -> float:
        """The exact value at the rational point ``u``, rounded once to a float.

        The result is within half a unit in the last place of the true value,
        which :meth:`evaluate_numeric` cannot promise: its ``c - c*x`` loses
        relative accuracy as ``x`` nears 1.  Python's int/int division rounds
        correctly, so the result equals ``float`` of the exact ``Fraction``.
        Parameters missing from ``u`` raise :class:`UnboundParameter`.
        """
        num, den = self._exact(u)
        return num / den

    def _exact(self, u: Mapping[str, Rational]) -> tuple[int, int]:
        """The exact value at the rational point ``u`` as one integer numerator
        over one positive integer denominator, not reduced."""
        num, den = 0, 1
        try:
            for mono, coeff in self.terms:
                term_num, term_den = coeff.numerator, coeff.denominator
                for name, exp in mono:
                    value = u[name]
                    term_num *= value.numerator**exp
                    term_den *= value.denominator**exp
                num = num * term_den + term_num * den
                den *= term_den
        except KeyError:
            missing = sorted(self.parameters - u.keys())
            raise UnboundParameter(f"no value for parameter(s) {missing}") from None
        return num, den

    def evaluate_numeric(self, u: Mapping[str, float]):
        """Float Horner evaluation that broadcasts over numpy arrays passed as
        values; only the reference grid search (:mod:`bntune.oracle`) uses it."""
        total = 0.0
        for mono, coeff in self.terms:
            term = float(coeff)
            for name, exp in mono:
                value = u[name]
                term = term * (value if exp == 1 else value**exp)
            total = total + term
        return total

    # -- interval bounds ---------------------------------------------------

    def bounds(self, box: "Region") -> tuple[Fraction, Fraction]:
        """Tight [lo, hi] of the polynomial over ``box``.

        Requires multi-affine form, where extrema are attained at vertices of
        the sub-box spanned by the parameters that actually occur.
        """
        if not self.is_multiaffine:
            raise UnsupportedDegree(f"{self} has degree above one in some parameter")
        names = sorted(self.parameters)
        if not names:
            value = self.constant_value()
            return value, value
        lo = hi = None
        for vertex in box.restrict(names).vertices():
            value = self.evaluate(vertex)
            lo = value if lo is None or value < lo else lo
            hi = value if hi is None or value > hi else hi
        assert lo is not None and hi is not None
        return lo, hi

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms,
            key=lambda item: (-sum(e for _, e in item[0]), item[0]),
        )
        pieces: list[str] = []
        for mono, coeff in ordered:
            factors = ["*".join(_factor(n, e) for n, e in mono)] if mono else []
            if not mono:
                body = _coeff_str(abs(coeff))
            elif abs(coeff) == 1:
                body = factors[0]
            else:
                body = _coeff_str(abs(coeff)) + "*" + factors[0]
            if not pieces:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polynomial({self})"


def _coerce(value: "Polynomial | Rational") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    raise TypeError(f"cannot combine a polynomial with {value!r}")


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[str, int] = dict(m1)
    for name, exp in m2:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted(exps.items()))


def _factor(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


ZERO = Polynomial.constant(0)
ONE = Polynomial.constant(1)


@dataclass(frozen=True)
class Region:
    """An axis-aligned closed box over named parameters.

    Bounds are exact rationals in (0, 1); an axis may be degenerate
    (``lb == ub``).  The parameter order is significant and matches the
    declaration order of the owning network or chain.
    """

    params: tuple[str, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]

    #: The declared intervals (a chain's ``params`` object) that this box is
    #: known to lie within, or None: :func:`lifting.substitute` marks a box
    #: that it has checked, and :meth:`split` hands the mark to both halves.
    #: Not a field, so equality, hashing and ``repr`` ignore it.
    _within = None

    def __post_init__(self):
        if len(self.params) != len(self.intervals):
            raise BadRegion("parameter list and interval list differ in length")
        if len(set(self.params)) != len(self.params):
            raise BadRegion("duplicate parameter in region")
        for name, (lb, ub) in zip(self.params, self.intervals):
            if not (0 < lb <= ub < 1):
                problem = "is empty" if lb > ub else "is not within (0, 1)"
                raise BadRegion(f"interval [{lb}, {ub}] for {name} {problem}")

    @classmethod
    def from_bounds(
        cls,
        bounds: Mapping[str, tuple] | Iterable[tuple[str, tuple]],
        order: Sequence[str] | None = None,
    ) -> "Region":
        """Build a region from ``{name: (lb, ub)}`` using a float's exact binary value."""
        mapping = dict(bounds)
        names = tuple(order) if order is not None else tuple(mapping)
        ivs = tuple(
            (_binary_fraction(mapping[n][0]), _binary_fraction(mapping[n][1])) for n in names
        )
        return cls(names, ivs)

    # -- lookups -----------------------------------------------------------

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.params)}

    def interval(self, name: str) -> tuple[Fraction, Fraction]:
        return self.intervals[self._index[name]]

    def volume(self) -> Fraction:
        """Product of widths over the non-degenerate axes (1 if all degenerate)."""
        vol = Fraction(1)
        for lb, ub in self.intervals:
            if ub > lb:
                vol *= ub - lb
        return vol

    def center(self) -> dict[str, Fraction]:
        return {n: (lb + ub) / 2 for n, (lb, ub) in zip(self.params, self.intervals)}

    # -- geometry ----------------------------------------------------------

    def restrict(self, names: Sequence[str]) -> "Region":
        return Region(tuple(names), tuple(self.interval(n) for n in names))

    def vertices(self) -> Iterator[dict[str, Fraction]]:
        """All corner points, low bound first per axis; degenerate axes contribute one value."""
        axes = [
            (lb,) if lb == ub else (lb, ub) for lb, ub in self.intervals
        ]
        for corner in itertools.product(*axes):
            yield dict(zip(self.params, corner))

    def split(self, axis: int) -> tuple["Region", "Region"]:
        """Bisect at the midpoint of the given axis.

        The midpoint ``(a/b + c/d) / 2`` is ``(a*d + c*b) / (2*b*d)``, built
        as one :class:`Fraction` from integers.  Both halves lie within the
        declared intervals that this box was checked against, so they keep
        its mark (see :func:`lifting.substitute`).
        """
        lb, ub = self.intervals[axis]
        (a, b), (c, d) = lb.as_integer_ratio(), ub.as_integer_ratio()
        if a * d == c * b:
            raise BadRegion(f"cannot split degenerate axis {self.params[axis]}")
        mid = Fraction(a * d + c * b, 2 * b * d)
        left = self.intervals[:axis] + ((lb, mid),) + self.intervals[axis + 1 :]
        right = self.intervals[:axis] + ((mid, ub),) + self.intervals[axis + 1 :]
        return self._half(left), self._half(right)

    def _half(self, intervals: tuple[tuple[Fraction, Fraction], ...]) -> "Region":
        """A box over the same parameters, lookup index and declared-box mark,
        built unchecked: lb < mid < ub keeps both halves of a valid box valid,
        and inside whatever declared box held this one."""
        half = object.__new__(Region)
        vars(half).update(
            params=self.params, intervals=intervals, _index=self._index, _within=self._within
        )
        return half

    def __str__(self) -> str:
        parts = ", ".join(
            f"{n} in [{float(lb):.6g}, {float(ub):.6g}]"
            for n, (lb, ub) in zip(self.params, self.intervals)
        )
        return f"Region({parts})"
