"""Behavior graphs for event logs with uncertain event data."""

from .model import (
    InvalidTraceError,
    UncertainEvent,
    UncertainLog,
    UncertainTrace,
    make_trace,
    precedes,
    validate_log,
    validate_trace,
)
from .graph import (
    BehaviorGraph,
    backend_name,
    build_baseline,
    build_sweep,
)
from .oracle import (
    SizeLimitError,
    covering_relation,
    enumerate_realizations,
    linear_extensions,
    possible_immediate_successor,
    udfg_bounds_log,
    udfg_bounds_trace,
)
from .loggen import (
    GenerationSpec,
    generate_certain_log,
    generate_log,
    inject_activity_uncertainty,
    inject_indeterminacy,
    inject_time_uncertainty,
)
from .logio import (
    LogFormatError,
    export_dot,
    import_certain_csv,
    read_log,
    write_log,
)
from .bench import (
    BenchmarkResult,
    EquivalenceError,
    ScalingFit,
    fit_scaling_exponent,
    run_experiment,
)

__version__ = "0.1.0"
