"""The public contract: the exact set of names the package exports."""

from __future__ import annotations

import dataclasses

import bntune

EXPORTS = [
    "BayesNet", "BoundMDP", "CPT", "Constraint", "DEFAULT_DELTA", "EntryCoord", "Hyper",
    "Instantiation", "IterationStats", "MARGIN", "ONE", "PMC", "ParamBN", "PartitionResult",
    "Polynomial", "ROW_SUM_TOLERANCE", "ReachSpec", "Region", "RegionVerifier",
    "SensitivityFunction", "StateLabel", "Status", "TuneResult", "Variable",
    "Verdict", "ZERO", "as_fraction", "boxes_csv", "cd_exact", "compile_chain",
    "compile_tailored", "conditional_via_ratio", "d0_upper", "distance_cd", "distance_ec",
    "errors", "expand_region_cd", "expand_region_ec", "extremal_reach", "float17",
    "grid_min_distance", "infer", "instantiate", "joint_table", "minimal_instantiation",
    "net_from_tables", "oracle", "parametrize", "parse_constraint", "parse_network",
    "parse_param_spec", "partition", "reach_prob", "relax", "sensitivity_function",
    "substitute", "to_dot", "topological_order", "tune",
]


def test_all_is_exactly_the_public_contract():
    assert sorted(bntune.__all__) == EXPORTS


def test_every_exported_name_resolves():
    for name in bntune.__all__:
        assert getattr(bntune, name) is not None, name


def test_hyper_has_only_the_coverage_factor_and_the_guard():
    # The schedule is fixed; a new search knob must be argued for here.
    assert tuple(field.name for field in dataclasses.fields(bntune.Hyper)) == ("eta", "guard")
