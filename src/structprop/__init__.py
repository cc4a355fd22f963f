"""structprop: structure mining and bound-tightening propagation for MIP."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    DomainBox,
    Integrality,
    LinearRow,
    MipModel,
    PropagationOutcome,
    Variable,
    is_valid_reduction,
    tighten_row,
)
from .detect import DetectionReport, detect_all  # noqa: F401
from .propagate import (  # noqa: F401
    PropagatorConfig,
    propagate_record,
    run_fixpoint,
)
from .records import (  # noqa: F401
    Family,
    SemanticRecord,
    records_equal,
    records_from_json,
    records_to_json,
)
from .bench import (  # noqa: F401
    BenchReport,
    BenchRun,
    aggregate,
    run_benchmark,
    shifted_geometric_mean,
    write_report,
)
from .search import SearchConfig, SearchStats, dfs_solve, propagate_node  # noqa: F401
from .verify import (  # noqa: F401
    GateResult,
    enumerate_feasible,
    run_gate_ladder,
    verify_detector,
    verify_propagation,
)
