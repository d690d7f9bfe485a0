"""Tests for the text formats: network files, parameter files, constraints."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bntune import bn
from bntune.bn import instantiate, parametrize
from bntune.errors import (
    NotWellFormed,
    ParseError,
    UnknownValue,
    UnsupportedMultiEntryRow,
    ZeroEntry,
)
from bntune.formats import (
    float17,
    parse_constraint,
    parse_network,
    parse_param_spec,
)

from conftest import COVID_NET_TEXT, COVID_PARAMS_TEXT, CP, CQ, ROOT


# ---------------------------------------------------------------------------
# network files
# ---------------------------------------------------------------------------


def test_parse_network_matches_programmatic_net(covid_net):
    assert parse_network(COVID_NET_TEXT) == covid_net


def test_parse_network_reads_numbers_exactly():
    net = parse_network(COVID_NET_TEXT)
    row = net.cpt_map["Antigen"].row(("yes", "yes"))
    assert row[0].constant_value() == Fraction(72, 100)
    assert row[1].constant_value() == Fraction(28, 100)


def test_parse_network_comments_and_whitespace(covid_net):
    noisy = COVID_NET_TEXT.replace(
        "cpt PCR {", "cpt PCR { # trailing comment\n# full-line comment\n"
    )
    assert parse_network(noisy) == covid_net


@pytest.mark.parametrize(
    "text, position",
    [
        # a comment at the end of a line
        ("var A { values: a, b; } # note: a, b\ncpt A { (): 0.5, 0.5 ! }", (2, 22)),
        # full-line comments, one indented
        ("# header\n  # indented\nvar A { values: a, b; }\ncpt A { (): 0.5 0.5; }", (4, 17)),
        # a comment right after a number, with no space
        ("var A { values: a, b; }\ncpt A { (): 0.5#x, 0.5; }", (2, 26)),
        ("var A { values: a, b; }\ncpt A { (): 0.5#x\n, 0.6; }", (2, 9)),
        # CRLF line ends
        ("var A { values: a, b; } # c\r\ncpt A { (): 0.5, 0.5; }\r\n  cpt A { (): 1, 0; }\r\n", (3, 3)),
        ("var A { values: a, b; }\r\n# c\r\ncpt A { (): 0.5, 0.5 ; } $", (3, 26)),
        # a final comment with no newline
        ("var A { values: a, b; }\ncpt A { (): 0.5, 0.5; # unfinished", (2, 35)),
    ],
    ids=["end-of-line", "full-line", "no-space", "no-space-newline", "crlf", "crlf-full-line",
         "final-no-newline"],
)
def test_parse_errors_count_comments_as_text(text, position):
    with pytest.raises(ParseError) as excinfo:
        parse_network(text)
    assert (excinfo.value.line, excinfo.value.column) == position


def test_parse_network_numeric_value_labels():
    text = """
    var Bit { values: 0, 1; }
    cpt Bit { (): 0.25, 0.75; }
    """
    net = parse_network(text)
    assert net.variable_map["Bit"].values == ("0", "1")


def test_parse_network_keeps_a_near_unit_row_as_written():
    # The row misses one by 1e-10, within ROW_SUM_TOLERANCE: kept exactly.
    text = "var A { values: a, b; } cpt A { (): 0.3333333333, 0.6666666666; }"
    row = parse_network(text).cpt_map["A"].row(())
    assert [p.constant_value() for p in row] == [
        Fraction(3333333333, 10**10),
        Fraction(6666666666, 10**10),
    ]


@pytest.mark.parametrize("numbers", ["0.5, 0.6", "0.25, 0.749999998"], ids=["far-off", "2e-9"])
def test_parse_network_rejects_a_row_off_by_more_than_the_tolerance(numbers):
    text = f"var A {{ values: a, b; }}\ncpt A {{\n  (): {numbers};\n}}"
    with pytest.raises(ParseError, match="sums to") as excinfo:
        parse_network(text)
    assert (excinfo.value.line, excinfo.value.column) == (3, 3)
    assert isinstance(excinfo.value.__cause__, NotWellFormed)


def test_the_row_rule_runs_once_per_built_row(monkeypatch):
    calls = []
    check_row = bn._check_row

    def counted(*args):
        calls.append(args)
        check_row(*args)

    monkeypatch.setattr(bn, "_check_row", counted)
    net = parse_network((ROOT / "demos" / "files" / "diagnostic.net").read_text())
    assert len(calls) == 9  # each of the 9 rows, once
    pbn = parse_param_spec((ROOT / "demos" / "files" / "diagnostic.params").read_text(), net)
    assert len(calls) == 15  # plus the 6 rows of the two rebuilt tables
    for owner in ("COVID-19", "Symptoms"):
        assert pbn.cpt_map[owner] is net.cpt_map[owner]


def test_instantiate_shares_the_tables_without_parameters(monkeypatch):
    net = parse_network((ROOT / "demos" / "files" / "diagnostic.net").read_text())
    pbn = parse_param_spec((ROOT / "demos" / "files" / "diagnostic.params").read_text(), net)
    calls = []
    check_row = bn._check_row

    def counted(*args):
        calls.append(args)
        check_row(*args)

    monkeypatch.setattr(bn, "_check_row", counted)
    back = instantiate(pbn, pbn.origin_instantiation())
    assert len(calls) == 6  # the 6 rows of the two parametrized tables
    for owner in ("COVID-19", "Symptoms"):
        assert back.cpt_map[owner] is net.cpt_map[owner]
    assert back == net


def test_parse_network_duplicate_table():
    text = """
    var A { values: a, b; }
    cpt A { (): 0.5, 0.5; }
    cpt A { (): 0.4, 0.6; }
    """
    with pytest.raises(ParseError, match="duplicate table"):
        parse_network(text)


def test_parse_network_missing_table():
    with pytest.raises(ParseError, match="no table") as excinfo:
        parse_network("var A { values: a, b; }")
    assert (excinfo.value.line, excinfo.value.column) == (1, 5)


def test_parse_network_undeclared_table():
    text = """
    var A { values: a, b; }
    cpt A { (): 0.5, 0.5; }
    cpt B { (): 0.5, 0.5; }
    """
    with pytest.raises(ParseError, match="undeclared") as excinfo:
        parse_network(text)
    assert (excinfo.value.line, excinfo.value.column) == (4, 9)


def test_parse_network_errors_of_the_built_net_are_parse_errors():
    cycle = """
    var A { values: a, b; parents: B; }
    var B { values: a, b; parents: A; }
    cpt A { (a): 0.5, 0.5; (b): 0.5, 0.5; }
    cpt B { (a): 0.5, 0.5; (b): 0.5, 0.5; }
    """
    with pytest.raises(ParseError, match="cycle") as excinfo:
        parse_network(cycle)
    assert isinstance(excinfo.value.__cause__, NotWellFormed)
    missing_row = """
    var A { values: a, b; }
    var B { values: a, b; parents: A; }
    cpt A { (): 0.5, 0.5; }
    cpt B { (a): 0.5, 0.5; }
    """
    with pytest.raises(ParseError, match="parent evaluation") as excinfo:
        parse_network(missing_row)
    assert isinstance(excinfo.value.__cause__, NotWellFormed)
    with pytest.raises(ParseError, match="duplicate value") as excinfo:
        parse_network("var A { values: a, a; }\ncpt A { (): 0.5, 0.5; }")
    assert (excinfo.value.line, excinfo.value.column) == (1, 5)


def test_parse_network_error_carries_position():
    text = "var A { values: a, b; }\ncpt A ! ():"
    with pytest.raises(ParseError) as excinfo:
        parse_network(text)
    assert excinfo.value.line == 2
    assert excinfo.value.column == 7
    assert "line 2" in str(excinfo.value)


def test_parse_network_rejects_a_huge_exponent():
    text = "var A { values: a, b; }\ncpt A { (): 1e-3000000, 1; }"
    with pytest.raises(ParseError, match="exponent") as excinfo:
        parse_network(text)
    assert (excinfo.value.line, excinfo.value.column) == (2, 13)


def test_parse_network_rejects_stray_keyword():
    with pytest.raises(ParseError, match="'var' or 'cpt'"):
        parse_network("table A { }")


def test_parse_network_var_without_values():
    with pytest.raises(ParseError, match="no values") as excinfo:
        parse_network("var A { parents: B; }")
    assert (excinfo.value.line, excinfo.value.column) == (1, 5)


# ---------------------------------------------------------------------------
# parameter files
# ---------------------------------------------------------------------------


def test_parse_param_spec_matches_programmatic(covid_net):
    pbn = parse_param_spec(COVID_PARAMS_TEXT, covid_net)
    assert pbn == parametrize(covid_net, [CP, CQ], {CP: "p", CQ: "q"})
    assert pbn.parameter_names == ("p", "q")


def test_parse_param_spec_interval_clause(covid_net):
    text = """
    param p {
      entry: Antigen(yes, yes): pos;
      interval: 0.5, 0.9;
    }
    """
    pbn = parse_param_spec(text, covid_net)
    assert pbn.interval("p") == (Fraction(1, 2), Fraction(9, 10))


def test_parse_param_spec_rejects_a_huge_exponent(covid_net):
    text = "param p {\n  entry: Antigen(yes, yes): pos;\n  interval: 0.5, 1e-3000000;\n}"
    with pytest.raises(ParseError, match="exponent") as excinfo:
        parse_param_spec(text, covid_net)
    assert (excinfo.value.line, excinfo.value.column) == (3, 18)


def test_parse_param_spec_default_interval_uses_delta(covid_net):
    text = "param p { entry: Antigen(yes, yes): pos; }"
    pbn = parse_param_spec(text, covid_net, delta=Fraction(1, 100))
    assert pbn.interval("p") == (Fraction(1, 100), Fraction(99, 100))


def test_parse_param_spec_shared_entries(covid_net):
    # Two entries with equal original values may share one parameter name.
    text = """
    param s {
      entry: Symptoms(no): yes;
      entry: Antigen(no, no): pos;
    }
    """
    # Symptoms(no)->yes is 0.1 but Antigen(no,no)->pos is 0.01: unequal pivots.
    with pytest.raises(ParseError, match="different original values") as excinfo:
        parse_param_spec(text, covid_net)
    assert isinstance(excinfo.value.__cause__, NotWellFormed)
    equal = """
    param s {
      entry: PCR(yes): pos;
      entry: PCR(yes): pos;
    }
    """
    with pytest.raises(ParseError) as excinfo:
        # Selecting the same entry twice collides on its row.
        parse_param_spec(equal, covid_net)
    assert isinstance(excinfo.value.__cause__, UnsupportedMultiEntryRow)


def test_parse_param_spec_zero_entry_is_a_parse_error():
    net = parse_network("var A { values: a, b; }\ncpt A { (): 1, 0; }")
    with pytest.raises(ParseError, match="cannot co-vary") as excinfo:
        parse_param_spec("param p { entry: A(): a; }", net)
    assert isinstance(excinfo.value.__cause__, ZeroEntry)


def test_parse_param_spec_unknown_covariation(covid_net):
    text = """
    param p {
      entry: Antigen(yes, yes): pos;
      covariation: softmax;
    }
    """
    with pytest.raises(ParseError, match="linear-proportional"):
        parse_param_spec(text, covid_net)


def test_parse_param_spec_duplicate_block(covid_net):
    text = """
    param p { entry: Antigen(yes, yes): pos; }
    param p { entry: PCR(yes): pos; }
    """
    with pytest.raises(ParseError, match="duplicate") as excinfo:
        parse_param_spec(text, covid_net)
    assert (excinfo.value.line, excinfo.value.column) == (3, 11)


def test_parse_param_spec_empty_block(covid_net):
    with pytest.raises(ParseError, match="no entry") as excinfo:
        parse_param_spec("param p { covariation: linear-proportional; }", covid_net)
    assert (excinfo.value.line, excinfo.value.column) == (1, 7)


def test_parse_param_spec_unknown_variable(covid_net):
    with pytest.raises(ParseError, match="Serology") as excinfo:
        parse_param_spec("param p { entry: Serology(yes): pos; }", covid_net)
    assert (excinfo.value.line, excinfo.value.column) == (1, 18)


def test_parse_param_spec_unknown_value(covid_net):
    with pytest.raises(ParseError, match="maybe") as excinfo:
        parse_param_spec("param p { entry: PCR(yes): maybe; }", covid_net)
    assert (excinfo.value.line, excinfo.value.column) == (1, 28)


def test_parse_param_spec_entry_key_names_no_row(covid_net):
    for key in ("maybe", "yes, yes", ""):
        with pytest.raises(ParseError, match="no row for parents") as excinfo:
            parse_param_spec(f"param p {{\n  entry: PCR({key}): pos;\n}}", covid_net)
        assert (excinfo.value.line, excinfo.value.column) == (2, 10)
        assert isinstance(excinfo.value.__cause__, NotWellFormed)


def test_parse_param_spec_reversed_interval_is_empty(covid_net):
    with pytest.raises(ParseError, match=r"interval \[1/2, 2/5\] of parameter p is empty"):
        parse_param_spec("param p { entry: PCR(yes): pos; interval: 0.5, 0.4; }", covid_net)
    with pytest.raises(ParseError, match=r"interval \[1/2, 1\] of parameter p is not within"):
        parse_param_spec("param p { entry: PCR(yes): pos; interval: 0.5, 1; }", covid_net)


def test_parse_param_spec_unknown_clause(covid_net):
    with pytest.raises(ParseError, match="prior"):
        parse_param_spec(
            "param p { entry: PCR(yes): pos; prior: uniform; }", covid_net
        )


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------


def test_parse_constraint_full_form(covid_net):
    constraint = parse_constraint(
        "P(COVID-19=no | Antigen=pos & PCR=pos) <= 0.009", covid_net
    )
    assert constraint.hypothesis == (("COVID-19", "no"),)
    assert constraint.evidence == (("Antigen", "pos"), ("PCR", "pos"))
    assert constraint.direction == "<="
    assert constraint.threshold == Fraction(9, 1000)


def test_parse_constraint_without_evidence():
    constraint = parse_constraint("P(A=a) >= 0.25")
    assert constraint.hypothesis == (("A", "a"),)
    assert constraint.evidence == ()
    assert constraint.direction == ">="
    assert constraint.threshold == Fraction(1, 4)


def test_parse_constraint_conjunction_in_hypothesis():
    constraint = parse_constraint("P(A=a & B=b | C=c) <= 0.5")
    assert constraint.hypothesis == (("A", "a"), ("B", "b"))
    assert constraint.evidence == (("C", "c"),)


def test_parse_constraint_scientific_threshold():
    assert parse_constraint("P(A=a) <= 1e-3").threshold == Fraction(1, 1000)


def test_parse_constraint_bad_shape():
    for text in (
        "Pr(A=a) <= 0.5",
        "P(A=a) < 0.5",
        "P(A=a) <= ",
        "P(A=a | B=b | C=c) <= 0.5",
        "P(A) <= 0.5",
    ):
        with pytest.raises(ParseError):
            parse_constraint(text)


def test_parse_constraint_bad_threshold_number():
    with pytest.raises(ParseError, match="threshold"):
        parse_constraint("P(A=a) <= 0.5.2")


def test_parse_constraint_rejects_a_huge_exponent():
    with pytest.raises(ParseError, match="threshold"):
        parse_constraint("P(A=a) <= 1e-3000000")


def test_parse_constraint_threshold_above_one():
    with pytest.raises(ParseError, match="outside") as excinfo:
        parse_constraint("P(A=a) <= 1.5")
    assert isinstance(excinfo.value.__cause__, NotWellFormed)


def test_parse_constraint_checks_names_against_net(covid_net):
    for text in ("P(COVID-19=no | Serology=pos) <= 0.5", "P(COVID-19=maybe) <= 0.5"):
        with pytest.raises(ParseError) as excinfo:
            parse_constraint(text, covid_net)
        assert isinstance(excinfo.value.__cause__, UnknownValue)
    # Without a net, names are taken on faith.
    parse_constraint("P(COVID-19=maybe) <= 0.5")


# ---------------------------------------------------------------------------
# float rendering
# ---------------------------------------------------------------------------


def test_float17_round_trips():
    for value in (0.1, 1 / 3, 0.008993168210347551, 2**-52, 123456.789):
        assert float(float17(value)) == value


def test_float17_accepts_fractions():
    assert float(float17(Fraction(1, 3))) == 1 / 3
