"""Process-pool experiment execution engine (see :mod:`repro.parallel.engine`).

Public surface::

    from repro.parallel import map_tasks, TaskOutcome, TaskError
    from repro.parallel import MaxPowerTask, BudgetTask, NetworkSpec
    from repro.parallel import FleetSweepChunkTask, MonteCarloChunkTask
    from repro.parallel import TaskProgressReporter
    from repro.parallel import WorkerTelemetry, set_default_telemetry, worker_callbacks
"""

from repro.parallel.engine import (
    ExperimentTask,
    TaskError,
    TaskFailedError,
    TaskOutcome,
    collect_values,
    map_tasks,
)
from repro.parallel.progress import TaskProgressReporter
from repro.parallel.telemetry import (
    WorkerTelemetry,
    set_default_telemetry,
    worker_callbacks,
    worker_run_logger,
)
from repro.parallel.tasks import (
    BudgetTask,
    FleetSweepChunkTask,
    MaxPowerTask,
    MonteCarloChunkTask,
    NetworkSpec,
)

__all__ = [
    "ExperimentTask",
    "TaskError",
    "TaskFailedError",
    "TaskOutcome",
    "collect_values",
    "map_tasks",
    "TaskProgressReporter",
    "BudgetTask",
    "FleetSweepChunkTask",
    "MaxPowerTask",
    "MonteCarloChunkTask",
    "NetworkSpec",
    "WorkerTelemetry",
    "set_default_telemetry",
    "worker_callbacks",
    "worker_run_logger",
]
