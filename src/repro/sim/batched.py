"""Deprecated batch API (removed in 3.0, see ``docs/api.md``): each
entry point warns once, then runs ``run_simulation`` per item."""

import warnings
from dataclasses import dataclass

from repro.sim.runner import run_simulation


class BatchCellError(Exception):
    """Batch member ``index`` failed; ``cause`` is dropped on pickling."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(f"batch member {index}: {message}")
        self.index, self.message = index, message
        self.cause = None

    def __reduce__(self):
        return (BatchCellError, (self.index, self.message))


@dataclass(frozen=True)
class BatchItem:
    """One batch member: the arguments ``run_simulation`` takes."""

    traces: list
    sim: object
    policy_factory: object = None
    policy_name: str = "none"
    telemetry: object = None


def _warn(name: str) -> None:
    warnings.warn(f"{name} is deprecated and will be removed in 3.0; "
                  f"use repro.run_simulation", DeprecationWarning, 3)


def run_batch(system, items: list, collect_errors: bool = False) -> list:
    """Run each item in order; with ``collect_errors`` a failing item
    yields a :class:`BatchCellError` in its slot instead of raising."""
    _warn("run_batch")
    outcomes = []
    for index, item in enumerate(items):
        try:
            outcome = run_simulation(system, item.traces, item.sim,
                                     item.policy_factory, item.policy_name,
                                     telemetry=item.telemetry)
        except Exception as exc:
            if not collect_errors:
                raise
            outcome = BatchCellError(index, f"{type(exc).__name__}: {exc}")
            outcome.cause = exc
        outcomes.append(outcome)
    return outcomes


def run_simulation_batched(*args, **kwargs):
    """``run_simulation`` under its deprecated batched name."""
    _warn("run_simulation_batched")
    return run_simulation(*args, **kwargs)
