"""Discrete Bayesian networks with (optionally parametric) probability tables.

A :class:`ParamBN` is the one network type, and a plain :class:`BayesNet` is
a ``ParamBN`` without parameters.  Validity is decided once, when an object
is built: a :class:`CPT` checks each of its rows by one row rule, and a
network checks only how its tables fit together.  Selected entries
can be turned into named parameters with :func:`parametrize`; the remaining
entries of each touched row co-vary proportionally, so every row stays a
probability distribution for all parameter values in (0, 1).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadOrder,
    NotWellFormed,
    UnboundParameter,
    UnknownValue,
    UnsupportedDegree,
    UnsupportedMultiEntryRow,
    ZeroEntry,
)
from .poly import Polynomial, Region, _binary_fraction, as_fraction

#: Identifies one table entry: (variable, parent values in parent order, value index).
EntryCoord = tuple[str, tuple[str, ...], int]

#: A parameter instantiation: one real value per parameter name.
Instantiation = Mapping[str, float | Fraction | int]

DEFAULT_DELTA = Fraction(1, 10**6)

#: Constant table rows may miss an exact unit sum by this much (written
#: decimals round) and are kept as written; rows that contain parameters must
#: sum to one exactly.
ROW_SUM_TOLERANCE = Fraction(1, 10**9)


@dataclass(frozen=True)
class Variable:
    """A discrete variable: name, ordered value labels, ordered parent names."""

    name: str
    values: tuple[str, ...]
    parents: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.values) < 2:
            raise NotWellFormed(f"variable {self.name} needs at least two values")
        if len(set(self.values)) != len(self.values):
            raise NotWellFormed(f"variable {self.name} has duplicate value labels")
        if len(set(self.parents)) != len(self.parents):
            raise NotWellFormed(f"variable {self.name} lists a parent twice")

    def value_index(self, label: str) -> int:
        try:
            return self.values.index(label)
        except ValueError:
            raise NotWellFormed(f"variable {self.name} has no value {label!r}") from None


@dataclass(frozen=True)
class CPT:
    """A conditional probability table: one row per parent evaluation.

    Each row holds one polynomial entry per value of the owning variable
    (constant polynomials in a plain network).  Construction checks each row,
    in order, by the row rule (:func:`_check_row`); rows are kept as written.
    ``_fits`` (not a field) is the ``variables`` tuple object that
    :func:`_check_tables` last found the table's row keys and lengths to fit,
    so a network built from the same tuple does not check the table again
    (a list of variables never marks a table).
    """

    owner: str
    rows: tuple[tuple[tuple[str, ...], tuple[Polynomial, ...]], ...]

    _fits = None

    def __post_init__(self):
        for key, row in self.rows:
            _check_row(self.owner, key, row)

    @cached_property
    def _row_map(self) -> dict[tuple[str, ...], tuple[Polynomial, ...]]:
        return dict(self.rows)

    def row(self, parent_values: Sequence[str]) -> tuple[Polynomial, ...]:
        key = tuple(parent_values)
        try:
            return self._row_map[key]
        except KeyError:
            raise NotWellFormed(f"table of {self.owner} has no row for parents {key}") from None

    def entries(self) -> Iterable[tuple[tuple[str, ...], int, Polynomial]]:
        for key, row in self.rows:
            for index, entry in enumerate(row):
                yield key, index, entry

    @cached_property
    def parameters(self) -> frozenset[str]:
        return frozenset(p for _, _, e in self.entries() for p in e.parameters)


def _check_tables(variables: tuple[Variable, ...], cpts: tuple[CPT, ...]) -> None:
    """How the tables fit together: names, parents, no cycle, alignment, row keys and lengths.

    The net-wide checks always run.  A table's row keys and lengths are
    checked once per ``variables`` tuple: the table then keeps that tuple as
    its mark (``CPT._fits``), and as tuples and variables are immutable, a
    table marked with this same object still fits it.  Any other sequence,
    such as a list that may change between two networks, checks every table.
    """
    by_name = {v.name: v for v in variables}
    if len(by_name) != len(variables):
        raise NotWellFormed("duplicate variable name")
    for v in variables:
        for parent in v.parents:
            if parent not in by_name:
                raise NotWellFormed(f"variable {v.name} references unknown parent {parent}")
    _toposort(variables)  # raises on cycles
    if tuple(c.owner for c in cpts) != tuple(v.name for v in variables):
        raise NotWellFormed("tables must be aligned with the variable list, one per variable")
    markable = type(variables) is tuple
    for v, table in zip(variables, cpts):
        if not (markable and table._fits is variables):
            _check_table(v, table, by_name)
            if markable:
                object.__setattr__(table, "_fits", variables)


def _check_table(v: Variable, table: CPT, by_name: Mapping[str, Variable]) -> None:
    """One table's row keys: each parent evaluation once; and row lengths."""
    expected = set(itertools.product(*(by_name[p].values for p in v.parents)))
    seen = [key for key, _ in table.rows]
    if len(seen) != len(set(seen)):
        raise NotWellFormed(f"table of {v.name} repeats a row")
    if set(seen) != expected:
        raise NotWellFormed(f"table of {v.name} does not cover each parent evaluation exactly once")
    for key, row in table.rows:
        if len(row) != len(v.values):
            raise NotWellFormed(f"row {key} of {v.name} has {len(row)} entries, expected {len(v.values)}")


def _check_row(owner: str, key: tuple[str, ...], row: tuple[Polynomial, ...]) -> None:
    """The row rule: multi-affine entries, constants in [0, 1], and a unit sum.

    A row of constants is checked in integers, on each entry's exact
    ``(numerator, denominator)`` pair n/d: the entry lies in [0, 1] when
    0 <= n <= d, and the row's sum N/D, kept over one common denominator, may
    miss one by ``ROW_SUM_TOLERANCE`` a/b, that is |N - D|*b <= a*D (the
    reported N/D is int/int division, which rounds as ``float`` of the exact
    sum does).  A row that holds a parameter must sum to one symbolically.
    Raises :class:`NotWellFormed` (or :class:`UnsupportedDegree`).
    """
    pairs = []
    for entry in row:
        terms = entry.terms
        if not terms:
            pairs.append((entry, 0, 1))
        elif len(terms) == 1 and not terms[0][0]:
            value = terms[0][1]
            pairs.append((entry, value.numerator, value.denominator))
        else:
            break
    else:
        num, den = 0, 1
        for entry, n, d in pairs:
            if not 0 <= n <= d:
                raise NotWellFormed(f"entry {entry} in table of {owner} is outside [0, 1]")
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        tolerance = ROW_SUM_TOLERANCE
        if abs(num - den) * tolerance.denominator > tolerance.numerator * den:
            raise NotWellFormed(f"row {key} of {owner} sums to {num / den}, not 1")
        return
    for entry in row:
        if not entry.is_multiaffine:
            raise UnsupportedDegree(f"entry in table of {owner} is not multi-affine")
        if not entry.parameters and not (0 <= entry.constant_value() <= 1):
            raise NotWellFormed(f"entry {entry} in table of {owner} is outside [0, 1]")
    total = sum(row[1:], row[0])
    if not (total.is_constant and total.constant_value() == 1):
        raise NotWellFormed(f"parametric row {key} of {owner} does not sum to 1 symbolically")


def _toposort(variables: tuple[Variable, ...]) -> tuple[str, ...]:
    """Topological order that follows declaration order among ready variables.

    Kahn's algorithm over a heap of declaration indices: the earliest-declared
    variable whose parents are all placed goes next.  A variable on a cycle,
    or below one, is never placed, and that raises :class:`NotWellFormed`.
    """
    index = {v.name: i for i, v in enumerate(variables)}
    waiting = [len(v.parents) for v in variables]
    children: list[list[int]] = [[] for _ in variables]
    for i, v in enumerate(variables):
        for parent in v.parents:  # all declared: _check_tables checks that first
            children[index[parent]].append(i)
    ready = [i for i, n in enumerate(waiting) if not n]  # ascending, so a heap
    order: list[str] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(variables[i].name)
        for child in children[i]:
            waiting[child] -= 1
            if not waiting[child]:
                heapq.heappush(ready, child)
    if len(order) != len(variables):
        raise NotWellFormed("the parent graph has a cycle")
    return tuple(order)


@dataclass(frozen=True)
class ParamBN:
    """A Bayesian network whose table entries are multi-affine polynomials.

    ``params`` fixes the parameter order and the closed interval each
    parameter may range over (no parameters by default); ``origin`` (when
    known) maps each parameter to the constant value it replaced, which may
    lie outside its interval.  Its tables have checked their own rows
    (:class:`CPT`); construction checks how they fit together: the tables
    match the variables, the parent graph is acyclic, every interval is
    non-empty and within (0, 1), and every entry's parameter is declared.
    """

    variables: tuple[Variable, ...]
    cpts: tuple[CPT, ...]
    params: tuple[tuple[str, tuple[Fraction, Fraction]], ...] = ()
    origin: tuple[tuple[str, Fraction], ...] | None = None

    #: The most recent tailored compilation of this network, or None:
    #: :func:`pmc.compile_tailored` keeps its query's key, chain and target
    #: set here.  Not a field, so equality, hashing and ``repr`` ignore it.
    _tailored = None

    def __post_init__(self):
        _check_tables(self.variables, self.cpts)
        names = [name for name, _ in self.params]
        if len(set(names)) != len(names):
            raise NotWellFormed("duplicate parameter name")
        for name, (lb, ub) in self.params:
            if not (0 < lb <= ub < 1):
                problem = "is empty" if lb > ub else "is not within (0, 1)"
                raise NotWellFormed(f"interval [{lb}, {ub}] of parameter {name} {problem}")
        used = frozenset(p for c in self.cpts for p in c.parameters)
        undeclared = used - set(names)
        if undeclared:
            raise UnboundParameter(f"entries use undeclared parameter(s) {sorted(undeclared)}")

    @cached_property
    def variable_map(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}

    @cached_property
    def cpt_map(self) -> dict[str, CPT]:
        return {c.owner: c for c in self.cpts}

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.params)

    def interval(self, name: str) -> tuple[Fraction, Fraction]:
        for pname, iv in self.params:
            if pname == name:
                return iv
        raise UnboundParameter(f"unknown parameter {name}")

    def space(self) -> Region:
        """The full declared parameter box."""
        return Region(self.parameter_names, tuple(iv for _, iv in self.params))

    def origin_instantiation(self) -> dict[str, Fraction]:
        if self.origin is None:
            raise NotWellFormed("this network does not record original parameter values")
        return dict(self.origin)


@dataclass(frozen=True)
class BayesNet(ParamBN):
    """A :class:`ParamBN` without parameters: every table entry is a constant.

    Its one own check is that it declares no parameter and no origin; the
    tables are checked as for any ``ParamBN``, so an entry that names a
    parameter raises :class:`UnboundParameter`.
    """

    def __post_init__(self):
        if self.params or self.origin is not None:
            raise NotWellFormed("a BayesNet declares no parameters and no origin")
        super().__post_init__()


def _check_comparison(spec) -> None:
    """The comparison rule's checks, one for :class:`Constraint` and
    :class:`pmc.ReachSpec` alike (frozen, with ``direction`` and
    ``threshold`` fields): the direction is ``<=`` or ``>=``, and the
    threshold, stored as :func:`as_fraction` reads it, lies in [0, 1]."""
    if spec.direction not in ("<=", ">="):
        raise NotWellFormed(f"direction must be '<=' or '>=', got {spec.direction!r}")
    object.__setattr__(spec, "threshold", as_fraction(spec.threshold))
    if not (0 <= spec.threshold <= 1):
        raise NotWellFormed(f"threshold {spec.threshold} is outside [0, 1]")


@dataclass(frozen=True)
class Constraint:
    """``Pr(hypothesis | evidence) <= threshold`` (or ``>=``).

    Hypothesis and evidence are conjunctions of (variable, value) literals over
    disjoint variable sets; evidence may be empty.  The threshold is stored as
    :func:`as_fraction` reads it: a float ``0.1`` is ``Fraction(1, 10)``.
    """

    hypothesis: tuple[tuple[str, str], ...]
    evidence: tuple[tuple[str, str], ...]
    direction: str
    threshold: Fraction

    def __post_init__(self):
        _check_comparison(self)
        if not self.hypothesis:
            raise NotWellFormed("the hypothesis needs at least one literal")
        hyp_vars = [v for v, _ in self.hypothesis]
        ev_vars = [v for v, _ in self.evidence]
        if len(set(hyp_vars)) != len(hyp_vars) or len(set(ev_vars)) != len(ev_vars):
            raise NotWellFormed("a variable may appear at most once per literal list")
        if set(hyp_vars) & set(ev_vars):
            raise NotWellFormed("hypothesis and evidence must mention disjoint variables")

    def check_against(self, net: ParamBN) -> None:
        for var, value in self.hypothesis + self.evidence:
            if var not in net.variable_map:
                raise UnknownValue(f"unknown variable {var!r}")
            if value not in net.variable_map[var].values:
                raise UnknownValue(f"variable {var} has no value {value!r}")

    def satisfied_by(self, probability: float | Fraction) -> bool:
        if self.direction == "<=":
            return probability <= self.threshold
        return probability >= self.threshold


def net_from_tables(
    variables: Sequence[tuple[str, Sequence[str], Sequence[str]]],
    tables: Mapping[str, Mapping[tuple[str, ...], Sequence]],
) -> BayesNet:
    """Convenience constructor from plain literals.

    ``variables`` lists (name, values, parents); ``tables[name]`` maps parent
    value tuples to entry sequences.  Numeric entries are converted exactly via
    their decimal form (:func:`as_fraction`), so rows written as decimals sum
    to one symbolically.  Each distinct literal, told apart by its type and
    value, is converted once per call, and every entry that repeats it shares
    one constant :class:`Polynomial`; a :class:`Polynomial` entry is kept.
    """
    var_objs = tuple(Variable(n, tuple(vals), tuple(parents)) for n, vals, parents in variables)
    declared = {v.name for v in var_objs}
    stray = sorted(set(tables) - declared)
    if stray:
        raise NotWellFormed(f"tables given for undeclared variable(s) {stray}")
    missing = sorted(declared - set(tables))
    if missing:
        raise NotWellFormed(f"no table given for variable(s) {missing}")
    constants: dict[tuple[type, object], Polynomial] = {}

    def entry(e) -> Polynomial:
        if isinstance(e, Polynomial):
            return e
        key = (type(e), e)  # 0.1 == Fraction(0.1), yet as_fraction reads 0.1 as 1/10
        constant = constants.get(key)
        if constant is None:
            constant = constants[key] = Polynomial.constant(e)
        return constant

    cpts = []
    for v in var_objs:
        rows = tuple((tuple(key), tuple(map(entry, entries))) for key, entries in tables[v.name].items())
        cpts.append(CPT(v.name, rows))
    return BayesNet(var_objs, tuple(cpts))


def parametrize(
    bn: BayesNet,
    modif: Iterable[EntryCoord],
    names: Mapping[EntryCoord, str] | None = None,
    intervals: Mapping[str, tuple] | None = None,
    delta: Fraction | float = DEFAULT_DELTA,
) -> ParamBN:
    """Turn the given table entries into parameters with proportional co-variation.

    Each selected entry with original value t becomes a fresh parameter x; the
    other entries r of the same row co-vary in proportion to their share of
    the rest of the row, r * (1 - x) / S with S the sum of those entries.  So
    every parametrized row sums to one symbolically, zeros stay zero, and the
    original table comes back at x = t.  An exact row has S = 1 - t; a row
    that misses one by up to ``ROW_SUM_TOLERANCE`` parametrizes to an exact
    unit sum.  Two selected entries may share a name (via ``names``) only
    when their original values are equal, which models one quantity reused
    in several rows.

    Raises :class:`ZeroEntry` for entries at 0 or 1 and for rows whose other
    entries sum to 0, :class:`UnsupportedMultiEntryRow` when two selected
    entries share a row, and :class:`NotWellFormed` for an ``intervals`` key
    that names no selected parameter.
    """
    modif = list(modif)
    if names is None:
        names = {}
    coord_names: dict[EntryCoord, str] = {}
    auto = 0
    taken = set(names.values())
    for coord in modif:
        if coord in names:
            coord_names[coord] = names[coord]
        else:
            auto += 1
            candidate = f"x{auto}"
            while candidate in taken:
                auto += 1
                candidate = f"x{auto}"
            taken.add(candidate)
            coord_names[coord] = candidate

    rows_touched: dict[tuple[str, tuple[str, ...]], EntryCoord] = {}
    for coord in modif:
        var, key, index = coord
        if var not in bn.variable_map:
            raise NotWellFormed(f"unknown variable {var!r} in entry selection")
        row = bn.cpt_map[var].row(key)
        if not (0 <= index < len(row)):
            raise NotWellFormed(f"entry index {index} out of range for {var}{key}")
        row_id = (var, key)
        if row_id in rows_touched:
            raise UnsupportedMultiEntryRow(
                f"entries {rows_touched[row_id]} and {coord} share the row {var}{key}"
            )
        rows_touched[row_id] = coord

    delta = as_fraction(delta)
    touched = {var for var, _ in rows_touched}
    origin: dict[str, Fraction] = {}
    param_order: list[str] = []
    new_cpts: list[CPT] = []
    for v, table in zip(bn.variables, bn.cpts):
        new_rows = []
        for key, row in table.rows:
            coord = rows_touched.get((v.name, key))
            if coord is None:
                new_rows.append((key, row))
                continue
            index = coord[2]
            values = [e.constant_value() for e in row]
            pivot = values[index]
            rest = sum(values) - pivot
            if pivot == 0 or pivot == 1 or rest == 0:
                raise ZeroEntry(
                    f"entry {v.name}{key}[{index}] has value {pivot} and the rest of its row "
                    f"sums to {rest}; cannot co-vary"
                )
            name = coord_names[coord]
            if name in origin:
                if origin[name] != pivot:
                    raise NotWellFormed(
                        f"parameter {name} is shared by entries with different original values "
                        f"({float(origin[name])} vs {float(pivot)})"
                    )
            else:
                origin[name] = pivot
                param_order.append(name)
            x = Polynomial.parameter(name)
            new_row = tuple(
                x if i == index else (Polynomial.constant(1) - x) * (values[i] / rest)
                for i in range(len(row))
            )
            new_rows.append((key, new_row))
        new_cpts.append(CPT(v.name, tuple(new_rows)) if v.name in touched else table)

    stray = sorted(set(intervals or ()) - set(param_order))
    if stray:
        raise NotWellFormed(f"intervals given for {stray}, which name no selected parameter")
    param_intervals: list[tuple[str, tuple[Fraction, Fraction]]] = []
    for name in param_order:
        if intervals and name in intervals:
            lb, ub = intervals[name]
            param_intervals.append((name, (as_fraction(lb), as_fraction(ub))))
        else:
            param_intervals.append((name, (delta, 1 - delta)))

    return ParamBN(
        variables=bn.variables,
        cpts=tuple(new_cpts),
        params=tuple(param_intervals),
        origin=tuple((n, origin[n]) for n in param_order),
    )


def instantiate(pbn: ParamBN, u: Instantiation) -> BayesNet:
    """Evaluate every table entry at ``u``, producing a plain network.

    ``u`` must cover exactly the declared parameters.  A table without
    parameters is shared, not rebuilt, as :func:`parametrize` shares the
    tables it leaves alone.  The evaluated tables obey the row rule
    (:class:`CPT`), so an entry that evaluates outside [0, 1] raises
    :class:`NotWellFormed`.
    """
    declared = set(pbn.parameter_names)
    missing = declared - set(u)
    extra = set(u) - declared
    if missing:
        raise UnboundParameter(f"instantiation is missing parameter(s) {sorted(missing)}")
    if extra:
        raise UnboundParameter(f"instantiation has unknown parameter(s) {sorted(extra)}")
    exact_u = {name: _binary_fraction(value) for name, value in u.items()}

    new_cpts = []
    for table in pbn.cpts:
        if not table.parameters:
            new_cpts.append(table)
            continue
        rows = ((key, tuple(Polynomial.constant(e.evaluate(exact_u)) for e in row)) for key, row in table.rows)
        new_cpts.append(CPT(table.owner, tuple(rows)))
    return BayesNet(pbn.variables, tuple(new_cpts))


def topological_order(
    net: ParamBN, preferred: Sequence[str] | None = None
) -> tuple[str, ...]:
    """The declaration-order topological sort, or check a user-supplied order."""
    if preferred is None:
        return _toposort(net.variables)
    order = tuple(preferred)
    if sorted(order) != sorted(v.name for v in net.variables):
        raise BadOrder("order must list every variable exactly once")
    seen: set[str] = set()
    for name in order:
        for parent in net.variable_map[name].parents:
            if parent not in seen:
                raise BadOrder(f"{name} appears before its parent {parent}")
        seen.add(name)
    return order
