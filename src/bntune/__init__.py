"""Tuning discrete Bayesian network parameters against conditional-probability
constraints, by compiling the network into a parametric Markov chain and
verifying parameter boxes soundly.

Typical flow: build or parse a network, pick tunable entries with
:func:`parametrize` (or a parameter file), state a :class:`Constraint`, and
call :func:`tune`; or work at the lower levels with :func:`compile_tailored`,
a :class:`RegionVerifier`, and :func:`partition`.
"""

from . import errors, oracle
from .bn import (
    CPT,
    DEFAULT_DELTA,
    ROW_SUM_TOLERANCE,
    BayesNet,
    Constraint,
    EntryCoord,
    Instantiation,
    ParamBN,
    Variable,
    instantiate,
    net_from_tables,
    parametrize,
    topological_order,
)
from .formats import float17, parse_constraint, parse_network, parse_param_spec
from .lifting import (
    MARGIN,
    BoundMDP,
    RegionVerifier,
    Verdict,
    extremal_reach,
    relax,
    substitute,
)
from .oracle import cd_exact, grid_min_distance, infer, joint_table
from .pmc import (
    PMC,
    ReachSpec,
    SensitivityFunction,
    StateLabel,
    compile_chain,
    compile_tailored,
    conditional_via_ratio,
    reach_prob,
    sensitivity_function,
    to_dot,
)
from .poly import ONE, ZERO, Polynomial, Region, as_fraction
from .refine import PartitionResult, boxes_csv, partition
from .tune import (
    Hyper,
    IterationStats,
    Status,
    TuneResult,
    d0_upper,
    distance_cd,
    distance_ec,
    expand_region_cd,
    expand_region_ec,
    minimal_instantiation,
    tune,
)

__version__ = "0.1.0"

__all__ = [
    "BayesNet",
    "BoundMDP",
    "CPT",
    "Constraint",
    "DEFAULT_DELTA",
    "EntryCoord",
    "Hyper",
    "Instantiation",
    "IterationStats",
    "MARGIN",
    "ONE",
    "PMC",
    "ParamBN",
    "PartitionResult",
    "Polynomial",
    "ROW_SUM_TOLERANCE",
    "ReachSpec",
    "Region",
    "RegionVerifier",
    "SensitivityFunction",
    "StateLabel",
    "Status",
    "TuneResult",
    "Variable",
    "Verdict",
    "ZERO",
    "as_fraction",
    "boxes_csv",
    "cd_exact",
    "compile_chain",
    "compile_tailored",
    "conditional_via_ratio",
    "d0_upper",
    "distance_cd",
    "distance_ec",
    "errors",
    "expand_region_cd",
    "expand_region_ec",
    "extremal_reach",
    "float17",
    "grid_min_distance",
    "infer",
    "instantiate",
    "joint_table",
    "minimal_instantiation",
    "net_from_tables",
    "oracle",
    "parametrize",
    "parse_constraint",
    "parse_network",
    "parse_param_spec",
    "partition",
    "reach_prob",
    "relax",
    "sensitivity_function",
    "substitute",
    "to_dot",
    "topological_order",
    "tune",
]
