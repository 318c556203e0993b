"""The process catalog: §2's deterministic processes, §4's examples
and the alternating-bit protocol."""

from repro.processes import (
    alternating_bit,
    chaos,
    deterministic,
    fair_random,
    finite_ticks,
    fork,
    implication,
    lossy,
    merge,
    random_bit,
    random_number,
    ticks,
)
from repro.processes.network import Network
from repro.processes.process import DescribedProcess, Process

__all__ = [
    "DescribedProcess",
    "Network",
    "Process",
    "alternating_bit",
    "chaos",
    "deterministic",
    "fair_random",
    "finite_ticks",
    "fork",
    "implication",
    "lossy",
    "merge",
    "random_bit",
    "random_number",
    "ticks",
]
