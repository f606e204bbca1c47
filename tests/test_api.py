"""The package surface: ``reserve2d.__all__`` is built from the modules' own lists."""

import reserve2d
from reserve2d import analysis, core, rng, roster, rounding, solutions

MODULES = (core, rounding, roster, solutions, analysis)

# Every name the package exported before it built ``__all__`` from the
# modules' lists; none may be dropped.
EXPORTED = """
    __version__ ALGORITHM SplitStream
    BiasTable FairShareTable PeriodRangeError QuotaViolation ReservationProblem
    ReservationScheme ReservationTable Roster SolutionTrace bias_of
    build_fair_share_table is_monotone within_department_quota within_university_quota
    DecompositionStep ExtendedTable FractionCycle controlled_round decompose_once
    extend_table find_fraction_cycle
    FlowEdge FlowNetwork FlowStep IntegralBlock SchemeTable build_flow_network
    build_scheme_table decompose_flow_once draw_block draw_roster find_flow_cycle
    minimal_height
    EstimatedTable RosterLengthError SolutionConfig estimate_expected_table
    run_court run_government run_proposed run_solution
    AdversarialRun BiasSummary TailDiagnostic ViolationStats adversarial_sequence
    bias_trace prefer_first_category tail_diagnostic violation_stats
""".split()


def test_package_names_are_listed_once():
    assert len(reserve2d.__all__) == len(set(reserve2d.__all__))


def test_package_names_are_the_module_lists():
    listed = {"__version__", "ALGORITHM", "SplitStream"}
    for module in MODULES:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        listed.update(module.__all__)
    assert set(reserve2d.__all__) == listed


def test_every_package_name_is_its_module_object():
    owners = {name: module for module in MODULES for name in module.__all__}
    owners.update(ALGORITHM=rng, SplitStream=rng)
    for name in reserve2d.__all__:
        if name != "__version__":
            assert getattr(reserve2d, name) is getattr(owners[name], name), name
    assert reserve2d.__version__ == "0.1.0"


def test_no_exported_name_is_dropped():
    assert len(EXPORTED) == 53
    assert set(EXPORTED) <= set(reserve2d.__all__)
    assert "run_solution" in solutions.__all__
    added = set(reserve2d.__all__) - set(EXPORTED)
    assert added == {"source_vertex", "prefix_vertex", "row_vertex", "sink_vertex"}
