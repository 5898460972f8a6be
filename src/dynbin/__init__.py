"""Deterministic simulation of fully dynamic bin packing with migrations.

Items with exact fractional sizes arrive and depart over continuous time;
a policy packs them into unit-capacity bins, paying for the total time
bins stay open. The package provides the event-driven engine, the
bounded-migration and migration-delay policies, exact offline optimum
oracles, reproducible instance generators, and an experiment harness.
"""

from .core import (
    Instance,
    Item,
    LongestPerBinResolver,
    UnresolvedDurationError,
    read_jsonl,
    validate,
    vol,
    with_durations,
    write_jsonl,
)
from .engine import (
    CapacityViolation,
    Engine,
    Policy,
    SimulationError,
    SimulationResult,
    simulate,
    verify_packing,
)
from .algorithms import (
    DelayPolicy,
    FirstFitPolicy,
    MultiClassPolicy,
    SingleClassPolicy,
    SizeCostPolicy,
    decompose_delay_run,
    make_policy,
    size_class,
)
from .oracles import OptReport, ffd_snapshot, opt_snapshot, opt_total
from .generators import (
    RNG_ID,
    gen_basic_lb,
    gen_delay_lb,
    gen_fig2,
    gen_tradeoff_lb,
    gen_uniform,
)
from .harness import ExperimentConfig, InvariantViolation, cmd_run

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "Item",
    "LongestPerBinResolver",
    "UnresolvedDurationError",
    "read_jsonl",
    "validate",
    "vol",
    "with_durations",
    "write_jsonl",
    "CapacityViolation",
    "Engine",
    "Policy",
    "SimulationError",
    "SimulationResult",
    "simulate",
    "verify_packing",
    "DelayPolicy",
    "FirstFitPolicy",
    "MultiClassPolicy",
    "SingleClassPolicy",
    "SizeCostPolicy",
    "decompose_delay_run",
    "make_policy",
    "size_class",
    "OptReport",
    "ffd_snapshot",
    "opt_snapshot",
    "opt_total",
    "RNG_ID",
    "gen_basic_lb",
    "gen_delay_lb",
    "gen_fig2",
    "gen_tradeoff_lb",
    "gen_uniform",
    "ExperimentConfig",
    "InvariantViolation",
    "cmd_run",
]
