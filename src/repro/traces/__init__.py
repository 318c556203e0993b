"""Traces, projections and the trace cpo (§3.1 of the paper)."""

from repro.traces.domain import TRACE_CPO, TraceCpo, trace_eq_upto
from repro.traces.projection import (
    fact_f4,
    fact_f5_witness,
    is_projection_of_prefix,
    project,
)
from repro.traces.trace import Trace, one_step_extensions

__all__ = [
    "TRACE_CPO",
    "Trace",
    "TraceCpo",
    "fact_f4",
    "fact_f5_witness",
    "is_projection_of_prefix",
    "one_step_extensions",
    "project",
    "trace_eq_upto",
]
