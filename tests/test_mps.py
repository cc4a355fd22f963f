"""MPS reader/writer tests: semantics, diagnostics, round trips."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structprop.model import INF, Integrality, LinearRow, MipModel, Variable, models_equal
from structprop.mps import MpsParseError, MpsWriteError, parse_mps, write_mps

SAMPLE = """\
NAME test1
ROWS
 N  COST
 L  cap
 G  need
 E  bal
COLUMNS
    x  COST  3  cap  2
    x  need  1
    MARK1  'MARKER'  'INTORG'
    y  cap  1  bal  1
    MARK2  'MARKER'  'INTEND'
    z  bal  -1  need  2
RHS
    RHS  cap  10  need  2
    RHS  bal  0
BOUNDS
 UP BND x 4
ENDATA
"""


def row_named(model, name):
    (row,) = [row for row in model.rows if row.name == name]
    return row


def test_parse_sections_and_senses():
    m = parse_mps(SAMPLE)
    assert m.name == "test1"
    assert [v.name for v in m.variables] == ["x", "y", "z"]
    x, y, z = m.variables
    assert (x.lower, x.upper, x.integrality) == (0.0, 4.0, Integrality.CONTINUOUS)
    assert (y.lower, y.upper, y.integrality) == (0.0, 1.0, Integrality.BINARY)
    assert z.integrality is Integrality.CONTINUOUS
    cap = row_named(m, "cap")
    assert (cap.lhs, cap.rhs) == (-INF, 10.0)
    need = row_named(m, "need")
    assert (need.lhs, need.rhs) == (2.0, INF)
    bal = row_named(m, "bal")
    assert (bal.lhs, bal.rhs) == (0.0, 0.0)
    assert dict(m.objective) == {0: 3.0}


def test_parse_ranges_semantics():
    text = """\
NAME rng
ROWS
 N obj
 L lrow
 G grow
 E erow
 E erow2
COLUMNS
    x lrow 1 grow 1
    x erow 1 erow2 1
RHS
    RHS lrow 8 grow 2 erow 5 erow2 5
RANGES
    RNG lrow 3 grow 4 erow 2 erow2 -2
ENDATA
"""
    m = parse_mps(text)
    assert (row_named(m, "lrow").lhs, row_named(m, "lrow").rhs) == (5.0, 8.0)
    assert (row_named(m, "grow").lhs, row_named(m, "grow").rhs) == (2.0, 6.0)
    assert (row_named(m, "erow").lhs, row_named(m, "erow").rhs) == (5.0, 7.0)
    assert (row_named(m, "erow2").lhs, row_named(m, "erow2").rhs) == (3.0, 5.0)


def test_parse_bound_types():
    text = """\
NAME bnd
ROWS
 N obj
 L r
COLUMNS
    a r 1
    b r 1
    c r 1
    d r 1
    MARK 'MARKER' 'INTORG'
    e r 1
    f r 1
    MARK 'MARKER' 'INTEND'
    g r 1
BOUNDS
 FX BND a 2.5
 FR BND b
 MI BND c
 UP BND d 7
 UI BND e 8
 BV BND f
 LI BND g -3
 UP BND g -1
ENDATA
"""
    m = parse_mps(text)
    a, b, c, d, e, f, g = m.variables
    assert (a.lower, a.upper) == (2.5, 2.5)
    assert (b.lower, b.upper) == (-INF, INF)
    assert (c.lower, c.upper) == (-INF, INF) or c.lower == -INF
    assert (d.lower, d.upper) == (0.0, 7.0)
    assert (e.lower, e.upper, e.integrality) == (0.0, 8.0, Integrality.INTEGER)
    assert (f.lower, f.upper, f.integrality) == (0.0, 1.0, Integrality.BINARY)
    # LI marks g integer and sets its lower bound, so the negative UP keeps it
    assert (g.lower, g.upper, g.integrality) == (-3.0, -1.0, Integrality.INTEGER)


def test_integer_default_bounds_and_flag():
    text = """\
NAME intdef
ROWS
 N obj
 L r
COLUMNS
    MARK 'MARKER' 'INTORG'
    k r 1
    MARK 'MARKER' 'INTEND'
ENDATA
"""
    k = parse_mps(text).variables[0]
    assert (k.lower, k.upper, k.integrality) == (0.0, 1.0, Integrality.BINARY)


def test_objsense_max_normalized():
    text = """\
NAME mx
OBJSENSE
    MAX
ROWS
 N obj
 L r
COLUMNS
    x obj 5 r 1
RHS
    RHS r 3
ENDATA
"""
    m = parse_mps(text)
    assert m.objective_sense == "max"
    assert dict(m.objective) == {0: -5.0}
    again = parse_mps(write_mps(m))
    assert models_equal(m, again)


@pytest.mark.parametrize("sense", ["MIN", "MAX"])
def test_objsense_on_the_header_line(sense):
    text = f"""\
NAME hdr
OBJSENSE {sense}
ROWS
 N obj
 L r
COLUMNS
    x obj 5 r 1
RHS
    RHS r 3
ENDATA
"""
    m = parse_mps(text)
    assert m.objective_sense == sense.lower()
    assert dict(m.objective) == {0: 5.0 if sense == "MIN" else -5.0}
    assert models_equal(parse_mps(write_mps(m)), m)


@pytest.mark.parametrize(
    "snippet,fragment",
    [
        ("NAME x\nROWS\n Z r\n", "row sense"),
        ("NAME x\nROWS\n N obj\nCOLUMNS\n    c nosuch 1\n", "unknown row"),
        ("NAME x\nROWS\n N obj\n L r\nCOLUMNS\n    c r\n", "row/value pairs"),
        ("NAME x\nROWS\n N obj\n L r\nCOLUMNS\n    c r one\n", "number"),
        ("NAME x\nSOS\n S1 s 1\n", "unsupported section"),
        ("NAME x\nROWS\n N obj\n L r\nCOLUMNS\n    c r 1\nBOUNDS\n SC BND c 1\n", "semicontinuous"),
        ("NAME x\nROWS\n N obj\n L r\n L r\n", "duplicate row"),
        ("NAME x\nGARBAGE\n", "unknown section"),
        ("random text\n", "unknown section"),
        ("NAME x\nROWS\n N obj\n", "missing COLUMNS"),
        ("NAME x\nCOLUMNS\n    c r 1\n", "COLUMNS section before ROWS"),
        ("NAME x\nROWS\n N obj\nCOLUMNS\n    c obj 1\n    c obj 2\n",
         "duplicate objective entry for 'c'"),
        ("NAME x\nROWS\n N obj\nCOLUMNS\n    M 'MARKER' 'SOSORG'\n",
         "line 5: unknown marker \"'SOSORG'\""),
        ("NAME x\nROWS\n N obj\n L r\nCOLUMNS\n    c r 1\n    c r 2\n",
         "line 7: duplicate coefficient for 'c' in row 'r'"),
    ],
)
def test_parse_errors_carry_line_numbers(snippet, fragment):
    with pytest.raises(MpsParseError) as excinfo:
        parse_mps(snippet)
    assert fragment in str(excinfo.value)
    assert excinfo.value.line >= 1


NON_FINITE = """\
NAME nonfinite
ROWS
 N OBJ
 L c1
COLUMNS
    x OBJ 1 c1 {coeff}
RHS
    RHS c1 {rhs}
BOUNDS
 UP BND x 3
ENDATA
"""


def test_parse_skips_comments_free_rows_and_objective_constants():
    # a second N row is a free row: its COLUMNS and RHS entries are dropped,
    # as is an RHS entry on the objective; a BOUNDS line may name a column
    # COLUMNS never did, which becomes a continuous column with no entries
    text = """\
* a comment before any section

NAME skip
ROWS
 N obj
 N spare
 L r
COLUMNS
  * an indented comment
    x obj 2 spare 7
    x r 1

RHS
    RHS obj 5 spare 3
    RHS r 4
BOUNDS
 UP BND x 9
 UP BND w 6
ENDATA
"""
    m = parse_mps(text)
    assert [r.name for r in m.rows] == ["r"]
    assert [(v.name, v.lower, v.upper, v.integrality) for v in m.variables] == [
        ("x", 0.0, 9.0, Integrality.CONTINUOUS),
        ("w", 0.0, 6.0, Integrality.CONTINUOUS),
    ]
    assert (m.rows[0].terms, m.rows[0].lhs, m.rows[0].rhs) == (((0, 1.0),), -INF, 4.0)
    assert m.objective == ((0, 2.0),)


def test_nan_coefficient_is_a_parse_error():
    with pytest.raises(MpsParseError, match="got 'nan'") as excinfo:
        parse_mps(NON_FINITE.format(coeff="nan", rhs="2"))
    assert excinfo.value.line == 6


def test_nan_rhs_is_a_parse_error():
    with pytest.raises(MpsParseError, match="got 'nan'") as excinfo:
        parse_mps(NON_FINITE.format(coeff="1", rhs="nan"))
    assert excinfo.value.line == 8


def test_infinite_coefficient_is_rejected():
    with pytest.raises(MpsParseError, match="finite number, got 'inf'") as excinfo:
        parse_mps(NON_FINITE.format(coeff="inf", rhs="2"))
    assert excinfo.value.line == 6
    objective = NON_FINITE.replace("x OBJ 1 c1", "x OBJ 1e400 c1")
    with pytest.raises(MpsParseError, match="finite number, got '1e400'") as excinfo:
        parse_mps(objective.format(coeff="1", rhs="2"))
    assert excinfo.value.line == 6
    # an infinite RHS would make the L row free, which the writer cannot emit
    with pytest.raises(MpsParseError, match="finite number, got 'inf'") as excinfo:
        parse_mps(NON_FINITE.format(coeff="1", rhs="inf"))
    assert excinfo.value.line == 8


ONE_ROW = """\
NAME onerow
ROWS
 N OBJ
 {sense} c1
COLUMNS
    x OBJ 1 c1 1
RHS
    RHS c1 {rhs}
{ranges}BOUNDS
 {bound}
ENDATA
"""


def one_row(sense="L", rhs="2", ranges="", bound="UP BND x 3"):
    return ONE_ROW.format(sense=sense, rhs=rhs, ranges=ranges, bound=bound)


@pytest.mark.parametrize(
    "sense, rhs",
    [("L", "inf"), ("G", "-inf"), ("E", "inf"), ("G", "inf"), ("L", "-inf"), ("E", "-inf")],
)
def test_infinite_rhs_is_a_parse_error(sense, rhs):
    with pytest.raises(MpsParseError, match=f"finite number, got '{rhs}'") as excinfo:
        parse_mps(one_row(sense=sense, rhs=rhs))
    assert excinfo.value.line == 8


@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_infinite_range_is_a_parse_error(value):
    with pytest.raises(MpsParseError, match="finite number") as excinfo:
        parse_mps(one_row(ranges=f"RANGES\n    RNG c1 {value}\n"))
    assert excinfo.value.line == 10


@pytest.mark.parametrize("bound", ["FX BND x inf", "LO BND x inf", "UP BND x -inf"])
def test_bound_at_the_wrong_infinity_is_rejected(bound):
    with pytest.raises(ValueError, match="wrong infinity"):
        parse_mps(one_row(bound=bound))


INTEGER_ROW = """\
NAME introw
ROWS
 N OBJ
 L c1
COLUMNS
    MARK1 'MARKER' 'INTORG'
    x OBJ 1 c1 1
    MARK2 'MARKER' 'INTEND'
RHS
    RHS c1 2
BOUNDS
{bounds}
ENDATA
"""


@pytest.mark.parametrize(
    "text, bounds, integrality",
    [
        (one_row(bound="UP BND x -2"), (-INF, -2.0), Integrality.CONTINUOUS),
        (INTEGER_ROW.format(bounds=" UP BND x -2"), (-INF, -2.0), Integrality.INTEGER),
        (one_row(bound="UI BND x -2"), (-INF, -2.0), Integrality.INTEGER),
        (INTEGER_ROW.format(bounds=" LO BND x 0\n UP BND x -2"), (0.0, -2.0),
         Integrality.INTEGER),
        (one_row(bound="MI BND x\n UP BND x -2"), (-INF, -2.0), Integrality.CONTINUOUS),
        (one_row(bound="UP BND x 0"), (0.0, 0.0), Integrality.CONTINUOUS),
    ],
    ids=["continuous", "integer", "ui", "explicit-lo", "mi", "zero"],
)
def test_negative_upper_bound_frees_a_default_lower_bound(text, bounds, integrality):
    (var,) = parse_mps(text).variables
    assert (var.lower, var.upper) == bounds
    assert var.integrality is integrality


def test_accepted_infinite_bounds_write_back():
    bounds = ("UP BND x inf", "LO BND x -inf", "MI BND x", "FR BND x", "MI BND x\n UP BND x 4")
    for bound in bounds:
        model = parse_mps(one_row(bound=bound))
        text = write_mps(model)
        assert models_equal(parse_mps(text), model)
    assert " MI BND x\n UP BND x 4\n" in text  # [-inf, 4], the last


def test_parser_is_total_on_garbage():
    junk = [
        "", "\x00\x01", "ENDATA", "ROWS\n N obj\n L r\nCOLUMNS\n x r 1 2",
        "NAME\nROWS\nCOLUMNS\nBOUNDS\nENDATA",
    ]
    for text in junk:
        try:
            parse_mps(text)
        except MpsParseError:
            pass


def _sample_model():
    variables = [
        Variable(0, "b0", 0.0, 1.0, Integrality.BINARY),
        Variable(1, "i1", -2.0, 5.0, Integrality.INTEGER),
        Variable(2, "c2", 0.0, INF),
        Variable(3, "free3", -INF, INF),
        Variable(4, "iso4", 1.0, 1.0, Integrality.INTEGER),
    ]
    rows = [
        LinearRow(0, "r_le", ((0, 2.0), (2, 1.0)), -INF, 9.0),
        LinearRow(1, "r_ge", ((1, 1.0), (3, -1.5)), 2.0, INF),
        LinearRow(2, "r_eq", ((0, 1.0), (1, 1.0)), 3.0, 3.0),
        LinearRow(3, "r_rng", ((2, 1.0), (3, 1.0)), 1.0, 4.0),
    ]
    return MipModel(variables, rows, [(0, 1.0), (1, -2.0)], "min", name="sample")


def test_round_trip_structural_equality():
    m = _sample_model()
    text = write_mps(m)
    again = parse_mps(text)
    assert models_equal(m, again)
    assert write_mps(again) == text


@pytest.mark.parametrize(
    "lhs, rhs, sense",
    [
        (-0.1, 2.73, "G"),
        (0.1, 0.7, "G"),
        (0.07, 3.2, "G"),
        (-2.5, 0.1, "L"),
        (-3.0, 4.0, "L"),
    ],
)
def test_two_sided_row_reads_back_both_sides(lhs, rhs, sense):
    # an L row's lower side is read back as rhs - R: -0.1 would come back
    # as -0.10000000000000009, so those rows are written as G rows instead
    row = LinearRow(0, "r", ((0, 1.0),), lhs, rhs)
    text = write_mps(MipModel([Variable(0, "x", -INF, INF)], [row]))
    assert f" {sense} r" in text.splitlines()
    again = parse_mps(text).rows[0]
    assert (again.lhs, again.rhs) == (lhs, rhs)


def test_pinned_binary_keeps_bounds_through_write():
    # BV would silently widen a binary tightened to [0, 0]
    variables = [
        Variable(0, "free", 0.0, 1.0, Integrality.BINARY),
        Variable(1, "off", 0.0, 0.0, Integrality.BINARY),
        Variable(2, "on", 1.0, 1.0, Integrality.BINARY),
    ]
    rows = [LinearRow(0, "r", ((0, 1.0), (1, 1.0), (2, 1.0)), -INF, 2.0)]
    again = parse_mps(write_mps(MipModel(variables, rows)))
    assert (again.variables[0].lower, again.variables[0].upper) == (0.0, 1.0)
    assert again.variables[0].integrality is Integrality.BINARY
    for vid, value in ((1, 0.0), (2, 1.0)):
        var = again.variables[vid]
        assert (var.lower, var.upper) == (value, value)
        assert var.is_integer


def test_writer_rejects_bad_names():
    v = [Variable(0, "with space", 0.0, 1.0)]
    r = [LinearRow(0, "r", ((0, 1.0),), 0.0, 1.0)]
    with pytest.raises(MpsWriteError):
        write_mps(MipModel(v, r))
    v = [Variable(0, "x" * 300, 0.0, 1.0)]
    with pytest.raises(MpsWriteError):
        write_mps(MipModel(v, r))


WHITESPACE = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]


def test_writer_rejects_every_whitespace_character_in_names():
    assert {"\t", "\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"} <= set(WHITESPACE)
    r = [LinearRow(0, "r", ((0, 1.0),), 0.0, 1.0)]
    for ch in WHITESPACE:
        for name in (ch, f"{ch}x", f"x{ch}y", f"x{ch}"):
            with pytest.raises(MpsWriteError, match="whitespace"):
                write_mps(MipModel([Variable(0, name, 0.0, 1.0)], r))
    # characters str.isspace rejects stay legal, the zero-width space among them
    for name in ("x\u200by", "\x00x", "\ufeff"):
        assert f" {name} " in write_mps(MipModel([Variable(0, name, 0.0, 1.0)], r))


@pytest.mark.parametrize(
    "names, message",
    [
        ((("x", "x"), ("r",)), "duplicate variable names"),
        ((("C0002", ""), ("r",)), "duplicate variable names"),
        ((("x",), ("r", "r")), "duplicate or reserved row names"),
        ((("x",), ("", "R0001")), "duplicate or reserved row names"),
        ((("x",), ("OBJ",)), "duplicate or reserved row names"),
        # the reader takes "x 'MARKER' 1" for a marker line
        ((("x",), ("'MARKER'",)), "duplicate or reserved row names"),
    ],
    ids=["vars", "var-autoname", "rows", "row-autoname", "reserved", "marker"],
)
def test_writer_rejects_duplicate_names(names, message):
    var_names, row_names = names
    v = [Variable(i, name, 0.0, 1.0) for i, name in enumerate(var_names)]
    r = [LinearRow(i, name, ((0, 1.0),), -INF, 1.0) for i, name in enumerate(row_names)]
    with pytest.raises(MpsWriteError, match=message):
        write_mps(MipModel(v, r))


def test_writer_rejects_a_column_name_the_reader_takes_for_a_comment():
    # "    *x r 1" would be skipped as a comment: *x would come back
    # continuous, in no row and out of the objective
    v = [Variable(0, "*x", 0.0, 3.0, Integrality.INTEGER)]
    r = [LinearRow(0, "r", ((0, 1.0),), -INF, 2.0)]
    with pytest.raises(MpsWriteError, match=r"column name '\*x' starts with '\*'"):
        write_mps(MipModel(v, r, ((0, -1.0),)))
    # a '*' later in a name is no comment mark
    v = [Variable(0, "x*", 0.0, 3.0, Integrality.INTEGER)]
    again = parse_mps(write_mps(MipModel(v, r, ((0, -1.0),))))
    assert again.variables[0].is_integer and again.objective == ((0, -1.0),)


def test_writer_rejects_double_free_row():
    v = [Variable(0, "x", 0.0, 1.0)]
    r = [LinearRow(0, "r", ((0, 1.0),), -INF, INF)]
    with pytest.raises(MpsWriteError):
        write_mps(MipModel(v, r))


def test_writer_rejects_a_range_that_overflows():
    # rhs - lhs is inf, which no RANGES value can hold
    v = [Variable(0, "x", 0.0, 1.0)]
    r = [LinearRow(0, "r", ((0, 1.0),), -1e308, 1e308)]
    with pytest.raises(MpsWriteError, match="row 'r' has a range too wide for a float"):
        write_mps(MipModel(v, r))


def test_writer_autonames_blank():
    v = [Variable(0, "", 0.0, 2.0)]
    r = [LinearRow(0, "", ((0, 1.0),), -INF, 1.0)]
    text = write_mps(MipModel(v, r))
    m = parse_mps(text)
    assert m.variables[0].name == "C0001"
    assert m.rows[0].name == "R0001"


name_st = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_random_models(data):
    n_vars = data.draw(st.integers(1, 6))
    variables = []
    for i in range(n_vars):
        kind = data.draw(st.sampled_from(list(Integrality)))
        if kind is Integrality.BINARY:
            lo, up = 0.0, 1.0
        else:
            lo = float(data.draw(st.integers(-5, 3)))
            up = lo + float(data.draw(st.integers(0, 6)))
            if data.draw(st.booleans()):
                up = INF
        variables.append(Variable(i, f"v{i}", lo, up, kind))
    n_rows = data.draw(st.integers(0, 5))
    rows = []
    for j in range(n_rows):
        support = data.draw(
            st.lists(st.integers(0, n_vars - 1), min_size=1, max_size=n_vars, unique=True)
        )
        terms = tuple(
            (v, float(data.draw(st.integers(-4, 4).filter(lambda c: c != 0))))
            for v in support
        )
        lo = float(data.draw(st.integers(-8, 8)))
        width = data.draw(st.sampled_from([0.0, 2.0, INF, -1.0]))
        if width == -1.0:
            lhs, rhs = -INF, lo
        elif width == INF:
            lhs, rhs = lo, INF
        else:
            lhs, rhs = lo, lo + width
        rows.append(LinearRow(j, f"r{j}", terms, lhs, rhs))
    objective = [
        (i, float(data.draw(st.integers(-3, 3))))
        for i in range(n_vars)
        if data.draw(st.booleans())
    ]
    sense = data.draw(st.sampled_from(["min", "max"]))
    model = MipModel(variables, rows, objective, sense, name="rt")
    again = parse_mps(write_mps(model))
    assert models_equal(model, again)
