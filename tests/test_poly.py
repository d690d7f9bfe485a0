"""Polynomial arithmetic, evaluation, interval bounds, and box geometry."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bntune import ONE, ZERO, Polynomial, Region, as_fraction
from bntune.errors import BadRegion, UnboundParameter, UnsupportedDegree
from bntune.poly import _binary_fraction

X1 = Polynomial.parameter("x1")
X2 = Polynomial.parameter("x2")


def test_eval_quadratic():
    f = Polynomial.constant(2) * X1 * X1 + X2
    assert f.evaluate({"x1": 3, "x2": 2}) == 20


def test_eval_constant_ignores_instantiation():
    assert ONE.evaluate({}) == 1
    assert ONE.evaluate({"x1": 5}) == 1
    assert ZERO.evaluate({"x1": 5}) == 0


def test_eval_complement_is_exact_on_decimals():
    f = ONE - Polynomial.parameter("p")
    assert f.evaluate({"p": as_fraction("0.72")}) == Fraction(28, 100)


def test_eval_missing_parameter():
    with pytest.raises(UnboundParameter):
        (X1 + X2).evaluate({"x1": 1})


def random_polynomial(rng: random.Random) -> Polynomial:
    """Up to four terms over x1..x3 with exponents up to 2 and signed coefficients."""
    total = ZERO
    for _ in range(rng.randint(0, 4)):
        term = Polynomial.constant(Fraction(rng.randint(-60, 60), rng.randint(1, 40)))
        for name in rng.sample(["x1", "x2", "x3"], rng.randint(0, 3)):
            for _ in range(rng.randint(1, 2)):
                term = term * Polynomial.parameter(name)
        total = total + term
    return total


def random_argument(rng: random.Random) -> int | Fraction:
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return Fraction(rng.randint(-2**20, 2**20), 2 ** rng.randint(0, 60))  # dyadic
    return Fraction(rng.randint(-10**6, 10**6), 10 ** rng.randint(0, 9))  # decimal


def reference_value(f: Polynomial, u) -> Fraction:
    """The exact value of ``f`` at the rational point ``u``, term by term."""
    total = Fraction(0)
    for mono, coeff in f.terms:
        term = coeff
        for name, exp in mono:
            term *= Fraction(u[name]) ** exp
        total += term
    return total


def test_evaluate_rounded_is_the_exact_value_rounded_once():
    rng = random.Random(2024)
    polys = [ZERO, Polynomial.constant(Fraction(-7, 3)), X1 * X1 - X2 * X1 + Polynomial.constant(1)]
    polys += [random_polynomial(rng) for _ in range(2000)]
    for f in polys:
        u = {name: random_argument(rng) for name in ("x1", "x2", "x3")}
        exact = reference_value(f, u)
        value = f.evaluate_rounded(u)
        assert type(value) is float
        assert value == float(exact)
        assert type(f.evaluate(u)) is Fraction and f.evaluate(u) == exact
        # A float argument is read at its exact binary value and the exact
        # result is rounded once, bit for bit.
        floats = {name: float(v) for name, v in u.items()}
        value = f.evaluate(floats)
        if f.parameters:
            assert type(value) is float
            assert value == float(reference_value(f, {n: Fraction(v) for n, v in floats.items()}))
        else:
            assert value == exact
    assert ZERO.evaluate_rounded({}) == 0.0
    with pytest.raises(UnboundParameter):
        (X1 + X2).evaluate_rounded({"x1": Fraction(1, 2)})
    # Float Horner gives 2.3333333309949467e-07 here: c - c*x cancels near 1.
    near_one = (ONE - X1) * Polynomial.constant(Fraction(7, 3))
    assert near_one.evaluate({"x1": 0.9999999}) == 2.3333333321051697e-07
    with pytest.raises(ValueError):
        near_one.evaluate({"x1": math.nan})
    with pytest.raises(OverflowError):
        near_one.evaluate({"x1": math.inf})


def test_eval_float_inputs_stay_floating():
    f = Polynomial.constant(Fraction(1, 2)) * X1
    assert f.evaluate({"x1": 0.5}) == pytest.approx(0.25)


def test_arithmetic_identities():
    f = X1 * X2 + Polynomial.constant(3)
    assert f - f == ZERO
    assert f * ONE == f
    assert f + ZERO == f
    assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2


def test_structural_equality_is_order_free():
    assert X1 + X2 == X2 + X1
    assert X1 * X2 == X2 * X1


def test_degree_and_multiaffine():
    f = X1 * X2
    assert f.is_multiaffine
    assert not (X1 * X1).is_multiaffine


def test_parameters_and_constant_value():
    assert (X1 * X2).parameters == frozenset({"x1", "x2"})
    assert ONE.parameters == frozenset()
    assert Polynomial.constant(Fraction(3, 7)).constant_value() == Fraction(3, 7)


def test_a_constant_is_built_in_canonical_form_with_its_parameters_known():
    for value in (0, Fraction(3, 7), "0.25", 1):
        built = Polynomial.constant(value)
        assert built == Polynomial._normalize({(): as_fraction(value)})
        # Known before any read, so a chain's lowering never computes it.
        assert vars(built)["parameters"] == frozenset()
    assert Polynomial.constant(0).terms == ()


def test_str_rendering():
    c = Polynomial.constant
    f = c(34900) * Polynomial.parameter("p") * Polynomial.parameter("q")
    f = f + c(8758) * Polynomial.parameter("q") + c(361)
    assert str(f) == "34900*p*q + 8758*q + 361"


def test_bounds_affine_monotone():
    f = Polynomial.constant(Fraction(3, 10)) + Polynomial.constant(Fraction(4, 10)) * X1
    box = Region.from_bounds({"x1": (Fraction(1, 2), Fraction(3, 4))})
    assert f.bounds(box) == (Fraction(1, 2), Fraction(3, 5))


def test_bounds_product_of_positives():
    f = X1 * X2
    box = Region.from_bounds(
        {"x1": (Fraction(2, 10), Fraction(5, 10)), "x2": (Fraction(1, 10), Fraction(3, 10))}
    )
    assert f.bounds(box) == (Fraction(2, 100), Fraction(15, 100))


def test_bounds_complement():
    f = ONE - Polynomial.parameter("t")
    box = Region.from_bounds({"t": (Fraction(75, 10000), Fraction(125, 10000))})
    assert f.bounds(box) == (Fraction(9875, 10000), Fraction(9925, 10000))


def test_bounds_constant_and_unused_axes():
    box = Region.from_bounds({"x1": (Fraction(1, 4), Fraction(3, 4))})
    assert Polynomial.constant(Fraction(2, 5)).bounds(box) == (Fraction(2, 5), Fraction(2, 5))
    assert ONE.bounds(box) == (1, 1)


def test_bounds_rejects_higher_degree():
    box = Region.from_bounds({"x1": (Fraction(1, 4), Fraction(3, 4))})
    with pytest.raises(UnsupportedDegree):
        (X1 * X1).bounds(box)


NAMES = ("a", "b", "c")


@st.composite
def multiaffine(draw):
    coeffs = {}
    for subset in ((), ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"), ("a", "b", "c")):
        num = draw(st.integers(min_value=-9, max_value=9))
        if num:
            coeffs[subset] = Fraction(num, draw(st.integers(min_value=1, max_value=5)))
    f = ZERO
    for subset, coeff in coeffs.items():
        term = Polynomial.constant(coeff)
        for name in subset:
            term = term * Polynomial.parameter(name)
        f = f + term
    return f


@st.composite
def boxes(draw):
    bounds = {}
    for name in NAMES:
        lo = draw(st.fractions(min_value=Fraction(1, 64), max_value=Fraction(7, 8), max_denominator=128))
        width = draw(st.fractions(min_value=0, max_value=Fraction(1, 16), max_denominator=128))
        bounds[name] = (lo, lo + width)
    return Region.from_bounds(bounds, order=NAMES)


@st.composite
def box_points(draw, box):
    point = {}
    for name in box.params:
        lb, ub = box.interval(name)
        frac = draw(st.fractions(min_value=0, max_value=1, max_denominator=32))
        point[name] = lb + (ub - lb) * frac
    return point


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bounds_sandwich_property(data):
    f = data.draw(multiaffine())
    box = data.draw(boxes())
    lo, hi = f.bounds(box)
    for _ in range(5):
        u = data.draw(box_points(box))
        assert lo <= f.evaluate(u) <= hi


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_arithmetic_agrees_with_evaluation(data):
    f = data.draw(multiaffine())
    g = data.draw(multiaffine())
    u = {name: data.draw(st.fractions(min_value=0, max_value=1, max_denominator=50)) for name in NAMES}
    assert (f + g).evaluate(u) == f.evaluate(u) + g.evaluate(u)
    assert (f * g).evaluate(u) == f.evaluate(u) * g.evaluate(u)
    assert (f - g).evaluate(u) == f.evaluate(u) - g.evaluate(u)


def test_as_fraction_decimal_strings_and_floats():
    assert as_fraction("0.3") == Fraction(3, 10)
    assert as_fraction(0.3) == Fraction(3, 10)
    assert as_fraction("1e-6") == Fraction(1, 10**6)
    assert as_fraction("3/7") == Fraction(3, 7)
    assert as_fraction(Fraction(2, 5)) == Fraction(2, 5)
    assert as_fraction(1) == 1


def test_as_fraction_bounds_the_decimal_exponent():
    assert as_fraction("1e10000") == 10**10000
    assert as_fraction("1e-10000") == Fraction(1, 10**10000)
    assert as_fraction("2.5E+0_0010") == 25 * 10**9
    for text in ("1e-3000000", "1E10001", "1e-1_0001", " 5e99999999999999999999 "):
        with pytest.raises(ValueError, match="exponent"):
            as_fraction(text)


def test_binary_fraction_keeps_float_bits():
    assert _binary_fraction(0.1) == Fraction(0.1)
    assert _binary_fraction(Fraction(1, 10)) == Fraction(1, 10)
    assert _binary_fraction("0.1") == Fraction(1, 10)


def test_region_accessors():
    box = Region.from_bounds(
        {"p": (Fraction(1, 4), Fraction(1, 2)), "q": (Fraction(1, 5), Fraction(1, 5))}
    )
    assert box.params == ("p", "q")
    assert box.interval("q") == (Fraction(1, 5), Fraction(1, 5))
    assert box.volume() == Fraction(1, 4)
    assert box.center() == {"p": Fraction(3, 8), "q": Fraction(1, 5)}


def test_region_vertices_and_split():
    box = Region.from_bounds(
        {"p": (Fraction(1, 4), Fraction(1, 2)), "q": (Fraction(1, 5), Fraction(1, 5))}
    )
    verts = list(box.vertices())
    assert verts == [
        {"p": Fraction(1, 4), "q": Fraction(1, 5)},
        {"p": Fraction(1, 2), "q": Fraction(1, 5)},
    ]
    left, right = box.split(0)
    assert left.interval("p") == (Fraction(1, 4), Fraction(3, 8))
    assert right.interval("p") == (Fraction(3, 8), Fraction(1, 2))
    assert left.interval("q") == box.interval("q")
    with pytest.raises(BadRegion):
        box.split(1)


def test_split_halves_equal_boxes_built_by_the_constructor():
    rng = random.Random(11)
    for _ in range(200):
        params = tuple(f"p{i}" for i in range(rng.randint(1, 4)))
        intervals = tuple(
            tuple(sorted(Fraction(rng.randrange(1, 64), 64) for _ in "lu")) for _ in params
        )
        box = Region(params, intervals)
        for axis in (i for i, (lb, ub) in enumerate(intervals) if lb < ub):
            for half in box.split(axis):
                checked = Region(params, half.intervals)
                assert half == checked and hash(half) == hash(checked)
                assert [half.interval(n) for n in params] == list(checked.intervals)
                assert half.split(axis) == checked.split(axis)


def test_region_restrict_preserves_order():
    box = Region.from_bounds(
        {"p": (Fraction(1, 4), Fraction(1, 2)), "q": (Fraction(1, 5), Fraction(2, 5))}
    )
    sub = box.restrict(["q"])
    assert sub.params == ("q",)
    assert sub.interval("q") == (Fraction(1, 5), Fraction(2, 5))


def test_region_rejects_bounds_outside_open_unit_interval():
    with pytest.raises(BadRegion, match=r"interval \[1/2, 1\] for p is not within"):
        Region.from_bounds({"p": (Fraction(1, 2), Fraction(1))})
    with pytest.raises(BadRegion):
        Region.from_bounds({"p": (Fraction(0), Fraction(1, 2))})
    with pytest.raises(BadRegion, match=r"interval \[2/3, 1/3\] for p is empty"):
        Region.from_bounds({"p": (Fraction(2, 3), Fraction(1, 3))})
