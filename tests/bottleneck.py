"""A small bottleneck model whose link rows may leave selectors out.

``bottleneck_model`` builds two exact-one groups ``{x0,x1,x2}`` and
``{x3,x4,x5}`` under a continuous ``z`` in [0, 3], with one link row
``w*x - z <= 0`` per selector given a weight.  With ``PARTIAL_WEIGHTS`` x2
has no link row, so the BottleneckExactOne evidence is incomplete.
"""

from structprop.model import INF, Integrality, LinearRow, MipModel, Variable

PARTIAL_WEIGHTS = {0: 5.0, 1: 7.0, 3: 2.0, 4: 4.0, 5: 6.0}  # x2 has no link


def bottleneck_model(weights: dict[int, float]) -> MipModel:
    """The two groups under z, one link row per selector in ``weights``."""
    variables = [Variable(v, f"x{v}", 0.0, 1.0, Integrality.BINARY) for v in range(6)]
    variables.append(Variable(6, "z", 0.0, 3.0, Integrality.CONTINUOUS))
    specs = [
        ([(0, 1.0), (1, 1.0), (2, 1.0)], 1.0, 1.0),
        ([(3, 1.0), (4, 1.0), (5, 1.0)], 1.0, 1.0),
    ]
    for x, w in sorted(weights.items()):
        specs.append(([(x, w), (6, -1.0)], -INF, 0.0))
    rows = [
        LinearRow(rid, f"r{rid}", tuple(terms), lhs, rhs)
        for rid, (terms, lhs, rhs) in enumerate(specs)
    ]
    return MipModel(variables, rows)
