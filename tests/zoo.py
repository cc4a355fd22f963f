"""Textbook models that ``synth`` did not write, each with a feasible witness.

Three kinds, each sized and seeded by its arguments and read back through
an MPS round trip (``write_mps`` then ``parse_mps``), so detection sees
them as it sees a file:

* ``queens(n, seed)``: binaries ``x_r_c``, one row ``= 1`` per board row
  and per column, and one ``<= 1`` row per diagonal and anti-diagonal of
  two or more cells; seeded cell costs.
* ``minizinc_alldifferent(n, seed)``: integer ``x_i`` in [1, n] written as
  MiniZinc's linear library writes ``all_different`` (Belov et al., CP
  2016): ``x_i = sum_v v*b_i_v``, ``sum_v b_i_v = 1`` and
  ``sum_i b_i_v <= 1``; seeded costs on the ``x_i``.
* ``machine(n, seed)``: one machine, seeded processing times ``p_i`` and
  horizon ``H = sum p_i``, integer starts in [0, H - p_i], and per job pair
  ``i < j`` a binary ``y_i_j`` (1 when i runs first) with the two big-M
  rows of Manne (Oper. Res. 8, 1960), ``M = H``; seeded weights on the
  starts.

Each builder returns ``(model, witness)``, the witness a feasible value
per variable id.  The seed draws only costs and processing times.
"""

import random

from structprop.model import INF, Integrality, LinearRow, MipModel, Variable
from structprop.mps import parse_mps, write_mps


def _round_trip(variables, specs, objective, values):
    """The model through MPS text, and ``values`` (by name) keyed by id."""
    rows = [
        LinearRow(rid, name, terms, lhs, rhs)
        for rid, (name, terms, lhs, rhs) in enumerate(specs)
    ]
    model = parse_mps(write_mps(MipModel(variables, rows, objective)))
    return model, {v.id: values[v.name] for v in model.variables}


def _first_queens(n: int) -> list[int]:
    """Column of the queen in each row, the first placement backtracking finds."""
    cols: list[int] = []

    def place(r: int) -> bool:
        if r == n:
            return True
        for c in range(n):
            if all(c != pc and abs(c - pc) != r - pr for pr, pc in enumerate(cols)):
                cols.append(c)
                if place(r + 1):
                    return True
                cols.pop()
        return False

    place(0)
    return cols


def queens(n: int, seed: int = 0) -> tuple[MipModel, dict[int, float]]:
    """n-queens: 2n rows ``= 1`` and 2(2n - 3) diagonal rows ``<= 1``."""
    rng = random.Random(seed)

    def cell(r, c):
        return r * n + c

    variables = [
        Variable(cell(r, c), f"x_{r}_{c}", 0.0, 1.0, Integrality.BINARY)
        for r in range(n)
        for c in range(n)
    ]
    specs = [(f"row_{r}", [(cell(r, c), 1.0) for c in range(n)], 1.0, 1.0) for r in range(n)]
    specs += [(f"col_{c}", [(cell(r, c), 1.0) for r in range(n)], 1.0, 1.0) for c in range(n)]
    for d in range(-(n - 2), n - 1):  # r - c = d
        terms = [(cell(r, r - d), 1.0) for r in range(n) if 0 <= r - d < n]
        specs.append((f"diag_{d + n}", terms, -INF, 1.0))
    for s in range(1, 2 * n - 2):  # r + c = s
        terms = [(cell(r, s - r), 1.0) for r in range(n) if 0 <= s - r < n]
        specs.append((f"anti_{s}", terms, -INF, 1.0))
    objective = [(v.id, float(rng.randint(1, 9))) for v in variables]
    placed = {f"x_{r}_{c}" for r, c in enumerate(_first_queens(n))}
    values = {v.name: float(v.name in placed) for v in variables}
    return _round_trip(variables, specs, objective, values)


def minizinc_alldifferent(n: int, seed: int = 0) -> tuple[MipModel, dict[int, float]]:
    """n integers in [1, n], pairwise different: 3n rows over n + n*n columns."""
    rng = random.Random(seed)
    variables = [Variable(i, f"x_{i}", 1.0, float(n), Integrality.INTEGER) for i in range(n)]

    def b(i, v):
        return n + i * n + (v - 1)

    values_of = range(1, n + 1)
    variables += [
        Variable(b(i, v), f"b_{i}_{v}", 0.0, 1.0, Integrality.BINARY)
        for i in range(n)
        for v in values_of
    ]
    specs = [
        (f"link_{i}", [(i, 1.0)] + [(b(i, v), -float(v)) for v in values_of], 0.0, 0.0)
        for i in range(n)
    ]
    specs += [(f"item_{i}", [(b(i, v), 1.0) for v in values_of], 1.0, 1.0) for i in range(n)]
    specs += [(f"value_{v}", [(b(i, v), 1.0) for i in range(n)], -INF, 1.0) for v in values_of]
    objective = [(i, float(rng.randint(1, 9))) for i in range(n)]
    values = {f"x_{i}": float(i + 1) for i in range(n)}  # x_i = i + 1
    values.update({f"b_{i}_{v}": float(v == i + 1) for i in range(n) for v in values_of})
    return _round_trip(variables, specs, objective, values)


def machine(n: int, seed: int = 0) -> tuple[MipModel, dict[int, float]]:
    """n jobs on one machine: two big-M rows per job pair, n(n - 1) rows."""
    rng = random.Random(seed)
    p = [rng.randint(1, 5) for _ in range(n)]
    h = float(sum(p))  # the horizon, and the big M
    variables = [Variable(i, f"s_{i}", 0.0, h - p[i], Integrality.INTEGER) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    specs = []
    for k, (i, j) in enumerate(pairs):
        y = n + k
        variables.append(Variable(y, f"y_{i}_{j}", 0.0, 1.0, Integrality.BINARY))
        # y = 1: s_i + p_i <= s_j;  y = 0: s_j + p_j <= s_i
        specs.append((f"first_{i}_{j}", [(i, 1.0), (j, -1.0), (y, h)], -INF, h - p[i]))
        specs.append((f"second_{i}_{j}", [(j, 1.0), (i, -1.0), (y, -h)], -INF, -p[j]))
    objective = [(i, float(rng.randint(1, 5))) for i in range(n)]
    values = {f"s_{i}": float(sum(p[:i])) for i in range(n)}  # jobs in index order
    values.update({f"y_{i}_{j}": 1.0 for i, j in pairs})
    return _round_trip(variables, specs, objective, values)
