"""Free-format MPS reading and writing.

The reader accepts whitespace-delimited MPS text: NAME, OBJSENSE, ROWS,
COLUMNS (with INTORG/INTEND markers), RHS, RANGES, BOUNDS, ENDATA.  Row
senses map to two-sided rows: L -> (-inf, rhs], G -> [rhs, inf), E ->
[rhs, rhs], with RANGES widening one side in the standard way.  Default
bounds are [0, inf) for continuous columns and [0, 1] for INTORG columns
unless an explicit bound line appears.  Maximization objectives are
normalized to minimization at parse time; the declared sense is kept on the
model so the writer can restore it.

Unsupported features (SOS sections, semicontinuous bounds) and malformed
input raise :class:`MpsParseError` carrying the offending line number; so
does an infinite RHS or RANGES value, which no row side can take.  An
``UP`` or ``UI`` bound below 0 on a column whose lower bound is still the
default 0 (no earlier LO, MI, FX, FR, BV or LI line) also sets the lower
bound to -inf, the free-MPS convention CPLEX documents and SCIP follows;
the writer always puts LO or MI before UP, so it never relies on this.
"""

from __future__ import annotations

import math

from .model import INF, Integrality, LinearRow, MipModel, Variable, _name_or_default

_BOUND_TYPES = {"UP", "LO", "FX", "FR", "MI", "PL", "BV", "UI", "LI"}
_UNSUPPORTED_BOUNDS = {"SC"}
_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_UNSUPPORTED_SECTIONS = {"SOS"}
MAX_NAME_LEN = 255


class MpsParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line = line_no


class MpsWriteError(ValueError):
    pass


class _ColumnState:
    __slots__ = (
        "name", "is_integer", "lower", "upper", "saw_bound", "lower_set", "binary_tagged"
    )

    def __init__(self, name: str, is_integer: bool) -> None:
        self.name = name
        self.is_integer = is_integer
        self.lower = 0.0
        self.upper = INF
        self.saw_bound = False
        self.lower_set = False  # an explicit bound line set the lower bound
        self.binary_tagged = False


def parse_mps(text: str) -> MipModel:
    """Parse free-format MPS text into a :class:`MipModel`."""
    model_name = "model"
    objsense = "min"
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    obj_name: str | None = None
    free_rows: set[str] = set()
    columns: dict[str, _ColumnState] = {}
    col_order: list[str] = []
    coeffs: dict[str, dict[str, float]] = {}
    obj_coeffs: dict[str, float] = {}
    rhs_values: dict[str, float] = {}
    range_values: dict[str, float] = {}

    section = None
    expect_objsense_value = False
    in_integer_block = False
    saw_rows = False
    saw_columns = False

    def err(line_no: int, msg: str) -> MpsParseError:
        return MpsParseError(line_no, msg)

    def parse_number(token: str, line_no: int) -> float:
        try:
            value = float(token)
        except ValueError:
            raise err(line_no, f"expected a number, got {token!r}") from None
        if math.isnan(value):
            raise err(line_no, f"expected a number, got {token!r}")
        return value

    def parse_finite(token: str, line_no: int) -> float:
        value = parse_number(token, line_no)
        if math.isinf(value):
            raise err(line_no, f"expected a finite number, got {token!r}")
        return value

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        tokens = raw.split()

        if is_header:
            keyword = tokens[0].upper()
            if keyword in _UNSUPPORTED_SECTIONS:
                raise err(line_no, f"unsupported section {keyword}")
            if keyword not in _SECTIONS:
                raise err(line_no, f"unknown section {tokens[0]!r}")
            section = keyword
            expect_objsense_value = False
            if keyword == "NAME":
                if len(tokens) > 1:
                    model_name = tokens[1]
            elif keyword == "OBJSENSE":
                if len(tokens) > 1:
                    objsense = _normalize_sense(tokens[1], line_no)
                else:
                    expect_objsense_value = True
            elif keyword == "ROWS":
                saw_rows = True
            elif keyword == "COLUMNS":
                if not saw_rows:
                    raise err(line_no, "COLUMNS section before ROWS")
                saw_columns = True
            elif keyword == "ENDATA":
                break
            continue

        if section is None:
            raise err(line_no, "data line before any section header")

        if section == "OBJSENSE":
            if expect_objsense_value:
                objsense = _normalize_sense(tokens[0], line_no)
                expect_objsense_value = False
            else:
                raise err(line_no, "unexpected extra OBJSENSE data")
        elif section == "NAME":
            raise err(line_no, "unexpected data in NAME section")
        elif section == "ROWS":
            if len(tokens) != 2:
                raise err(line_no, "ROWS lines need a sense and a name")
            sense, name = tokens[0].upper(), tokens[1]
            if name in row_sense or name in free_rows or name == obj_name:
                raise err(line_no, f"duplicate row name {name!r}")
            if sense == "N":
                if obj_name is None:
                    obj_name = name
                else:
                    free_rows.add(name)
            elif sense in ("L", "G", "E"):
                row_sense[name] = sense
                row_order.append(name)
            else:
                raise err(line_no, f"unknown row sense {tokens[0]!r}")
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                marker = tokens[2].strip("'")
                if marker == "INTORG":
                    in_integer_block = True
                elif marker == "INTEND":
                    in_integer_block = False
                else:
                    raise err(line_no, f"unknown marker {tokens[2]!r}")
                continue
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise err(line_no, "COLUMNS lines need a column then row/value pairs")
            col_name = tokens[0]
            state = columns.get(col_name)
            if state is None:
                state = _ColumnState(col_name, in_integer_block)
                columns[col_name] = state
                col_order.append(col_name)
            for i in range(1, len(tokens), 2):
                row_name, value = tokens[i], parse_number(tokens[i + 1], line_no)
                if row_name == obj_name:
                    if col_name in obj_coeffs:
                        raise err(line_no, f"duplicate objective entry for {col_name!r}")
                    obj_coeffs[col_name] = value
                elif row_name in row_sense:
                    row_coeffs = coeffs.setdefault(row_name, {})
                    if col_name in row_coeffs:
                        raise err(
                            line_no,
                            f"duplicate coefficient for {col_name!r} in row {row_name!r}",
                        )
                    row_coeffs[col_name] = value
                elif row_name in free_rows:
                    continue
                else:
                    raise err(line_no, f"unknown row {row_name!r}")
        elif section == "RHS":
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise err(line_no, "RHS lines need a set name then row/value pairs")
            for i in range(1, len(tokens), 2):
                row_name, value = tokens[i], parse_finite(tokens[i + 1], line_no)
                if row_name == obj_name or row_name in free_rows:
                    continue  # objective constants are not modeled
                if row_name not in row_sense:
                    raise err(line_no, f"unknown row {row_name!r}")
                rhs_values[row_name] = value
        elif section == "RANGES":
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise err(line_no, "RANGES lines need a set name then row/value pairs")
            for i in range(1, len(tokens), 2):
                row_name, value = tokens[i], parse_finite(tokens[i + 1], line_no)
                if row_name not in row_sense:
                    raise err(line_no, f"unknown row {row_name!r}")
                range_values[row_name] = value
        elif section == "BOUNDS":
            if len(tokens) < 3:
                raise err(line_no, "BOUNDS lines need a type, set name and column")
            btype = tokens[0].upper()
            if btype in _UNSUPPORTED_BOUNDS:
                raise err(line_no, f"unsupported bound type {btype} (semicontinuous)")
            if btype not in _BOUND_TYPES:
                raise err(line_no, f"unknown bound type {tokens[0]!r}")
            col_name = tokens[2]
            state = columns.get(col_name)
            if state is None:
                state = _ColumnState(col_name, False)
                columns[col_name] = state
                col_order.append(col_name)
            needs_value = btype in ("UP", "LO", "FX", "UI", "LI")
            if needs_value and len(tokens) < 4:
                raise err(line_no, f"bound type {btype} needs a value")
            value = parse_number(tokens[3], line_no) if needs_value else 0.0
            state.saw_bound = True
            if btype in ("UP", "UI") and value < 0 and not state.lower_set:
                state.lower = -INF
            elif btype not in ("UP", "UI", "PL"):
                state.lower_set = True
            if btype == "UP":
                state.upper = value
            elif btype == "LO":
                state.lower = value
            elif btype == "FX":
                state.lower = state.upper = value
            elif btype == "FR":
                state.lower, state.upper = -INF, INF
            elif btype == "MI":
                state.lower = -INF
            elif btype == "PL":
                state.upper = INF
            elif btype == "BV":
                state.lower, state.upper = 0.0, 1.0
                state.is_integer = True
                state.binary_tagged = True
            elif btype == "UI":
                state.upper = value
                state.is_integer = True
            elif btype == "LI":
                state.lower = value
                state.is_integer = True
        else:  # pragma: no cover - section set is closed above
            raise err(line_no, f"unhandled section {section}")

    if not saw_rows:
        raise MpsParseError(len(lines) or 1, "missing ROWS section")
    if not saw_columns:
        raise MpsParseError(len(lines) or 1, "missing COLUMNS section")

    variables = []
    col_ids = {}
    for idx, col_name in enumerate(col_order):
        state = columns[col_name]
        lower, upper = state.lower, state.upper
        default_binary = state.is_integer and not state.saw_bound
        if default_binary:
            upper = 1.0
        if state.binary_tagged or default_binary:
            integrality = Integrality.BINARY if (lower, upper) == (0.0, 1.0) else Integrality.INTEGER
        elif state.is_integer:
            integrality = Integrality.INTEGER
        else:
            integrality = Integrality.CONTINUOUS
        variables.append(Variable(idx, col_name, lower, upper, integrality))
        col_ids[col_name] = idx

    rows = []
    for idx, row_name in enumerate(row_order):
        sense = row_sense[row_name]
        rhs = rhs_values.get(row_name, 0.0)
        if sense == "L":
            lhs_val, rhs_val = -INF, rhs
        elif sense == "G":
            lhs_val, rhs_val = rhs, INF
        else:
            lhs_val = rhs_val = rhs
        if row_name in range_values:
            r = range_values[row_name]
            if sense == "L":
                lhs_val = rhs - abs(r)
            elif sense == "G":
                rhs_val = rhs + abs(r)
            elif r > 0:
                rhs_val = rhs + r
            elif r < 0:
                lhs_val = rhs + r
        terms = (
            (col_ids[col_name], value)
            for col_name, value in coeffs.get(row_name, {}).items()
        )
        rows.append(LinearRow(idx, row_name, terms, lhs_val, rhs_val))

    sign = -1.0 if objsense == "max" else 1.0
    objective = tuple((col_ids[c], sign * v) for c, v in obj_coeffs.items() if v != 0.0)
    return MipModel(variables, rows, objective, objsense, name=model_name)


def _normalize_sense(token: str, line_no: int) -> str:
    upper = token.upper()
    if upper in ("MAX", "MAXIMIZE"):
        return "max"
    if upper in ("MIN", "MINIMIZE"):
        return "min"
    raise MpsParseError(line_no, f"unknown objective sense {token!r}")


def _checked_name(name: str) -> str:
    if len(name) > MAX_NAME_LEN:
        raise MpsWriteError(f"name longer than {MAX_NAME_LEN} characters: {name[:40]!r}...")
    if name.split() != [name]:  # str.split breaks on exactly what str.isspace accepts
        raise MpsWriteError(f"name contains whitespace: {name!r}")
    return name


def write_mps(model: MipModel) -> str:
    """Serialize a model to free-format MPS text.

    Two-sided inequality rows become L rows with a RANGES entry.  Every
    variable gets explicit BOUNDS lines (BV for full-range binaries) so the
    text is self-describing regardless of the reader's integer-default
    policy.  A binary whose bounds were tightened below [0, 1] keeps its
    numeric bounds instead of BV, which would silently widen it.
    Unnamed variables and rows are auto-named C0001... / R0001...
    """
    var_names = [_checked_name(_name_or_default(v, "C")) for v in model.variables]
    row_names = [_checked_name(_name_or_default(r, "R")) for r in model.rows]
    if len(set(var_names)) != len(var_names):
        raise MpsWriteError("duplicate variable names")
    for name in var_names:
        if name.startswith("*"):  # the reader skips a line that starts with '*'
            raise MpsWriteError(f"column name {name!r} starts with '*'")
    # the reader takes a line naming row 'MARKER' for an INTORG/INTEND marker
    if len(set(row_names)) != len(row_names) or "OBJ" in row_names or "'MARKER'" in row_names:
        raise MpsWriteError("duplicate or reserved row names")

    # each section is joined once finished, so no two sections' line lists coexist
    lines = [f"NAME {_checked_name(model.name or 'model')}"]
    if model.objective_sense == "max":
        lines.append("OBJSENSE")
        lines.append("    MAX")
    lines.append("ROWS")
    lines.append(" N OBJ")
    ranges = []
    rhs_entries = []
    for row, name in zip(model.rows, row_names):
        if row.lhs == -INF and row.rhs == INF:
            raise MpsWriteError(f"row {name!r} has no finite side")
        if row.lhs == row.rhs:
            sense, rhs = "E", row.rhs
        elif row.lhs == -INF:
            sense, rhs = "L", row.rhs
        elif row.rhs == INF:
            sense, rhs = "G", row.lhs
        else:
            sense, rhs = "L", row.rhs
            ranges.append((name, row.rhs - row.lhs))
        lines.append(f" {sense} {name}")
        rhs_entries.append((name, rhs))
    sections = ["\n".join(lines)]

    sign = -1.0 if model.objective_sense == "max" else 1.0
    obj_by_var = {var: sign * coeff for var, coeff in model.objective}
    # column-major index of row positions: a row's vars increase, so the
    # k-th column that visits a row reads that row's k-th coefficient
    rows_of: list[list[int]] = [[] for _ in model.variables]
    for pos, row in enumerate(model.rows):
        for var in row.vars:
            rows_of[var].append(pos)
    coeffs = [row.coeffs for row in model.rows]
    seen = [0] * len(coeffs)

    lines = ["COLUMNS"]
    in_integer_block = False
    marker_count = 0
    for var in model.variables:
        wants_integer = var.is_integer
        if wants_integer and not in_integer_block:
            marker_count += 1
            lines.append(f"    M{marker_count:04d} 'MARKER' 'INTORG'")
            in_integer_block = True
        elif not wants_integer and in_integer_block:
            marker_count += 1
            lines.append(f"    M{marker_count:04d} 'MARKER' 'INTEND'")
            in_integer_block = False
        name = var_names[var.id]
        positions = rows_of[var.id]
        if var.id in obj_by_var or not positions:
            # declare isolated columns so bounds and markers apply on re-read
            lines.append(f"    {name} OBJ {_fmt(obj_by_var.get(var.id, 0.0))}")
        for pos in positions:
            lines.append(f"    {name} {row_names[pos]} {_fmt(coeffs[pos][seen[pos]])}")
            seen[pos] += 1
    if in_integer_block:
        marker_count += 1
        lines.append(f"    M{marker_count:04d} 'MARKER' 'INTEND'")
    sections.append("\n".join(lines))

    lines = ["RHS"]
    for name, value in rhs_entries:
        if value != 0.0:
            lines.append(f"    RHS {name} {_fmt(value)}")
    if ranges:
        lines.append("RANGES")
        for name, value in ranges:
            lines.append(f"    RNG {name} {_fmt(value)}")

    lines.append("BOUNDS")
    for var in model.variables:
        name = var_names[var.id]
        if var.integrality is Integrality.BINARY and (var.lower, var.upper) == (0.0, 1.0):
            lines.append(f" BV BND {name}")
            continue
        lo, up = var.lower, var.upper
        if lo == -INF and up == INF:
            lines.append(f" FR BND {name}")
            continue
        if lo == -INF:
            lines.append(f" MI BND {name}")
        elif lo == up:
            lines.append(f" FX BND {name} {_fmt(lo)}")
            continue
        else:
            lines.append(f" LO BND {name} {_fmt(lo)}")
        if up == INF:
            lines.append(f" PL BND {name}")
        else:
            lines.append(f" UP BND {name} {_fmt(up)}")
    lines.append("ENDATA\n")
    sections.append("\n".join(lines))
    return "\n".join(sections)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
