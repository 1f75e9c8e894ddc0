"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import os
import sys

import numpy as np

import oracle
import spans

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_self_time_subtracts_children_on_a_synthetic_tree():
    tree = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("a.child", 15, 25, 1),
        ("b", 50, 70, 0),
        ("root", 200, 230, -1),  # a second top-level span with no children
    ]
    assert spans.self_times(tree) == [50, 20, 10, 20, 30]


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    tree = [("p", 0, 50, -1), ("c", 40, 60, 0), ("d", 10, 30, 0), ("e", 20, 35, 0)]
    # covered: [10, 35) and [40, 50) -> 35 of 50
    assert spans.self_times(tree)[0] == 15


def test_summarize_rebases_a_window_of_whole_top_level_spans():
    tree = [
        ("cli.main", 0, 10, -1),
        ("cli.main", 20, 50, -1),
        ("codes.build", 25, 35, 1),
        ("codes.build", 27, 30, 2),
    ]
    table = spans.summarize(tree, first=1)
    assert table["cli.main"] == (1, 20 / 1e6)
    assert table["codes.build"] == (2, 10 / 1e6)
    assert table["verify.check_hiding"] == (0, 0.0)


def test_tracer_links_nested_calls_and_counts_at_the_boundary():
    class Register:
        amps = np.zeros(8)

    tracer = spans.Tracer()
    inner = tracer.wrap("states.apply_local_operator", lambda state: state, spans._amps_touched)
    outer = tracer.wrap("cli.main", lambda: inner(state=Register()))
    outer()
    (outer_label, _, _, outer_parent), (inner_label, _, _, inner_parent) = tracer.spans
    assert (outer_label, outer_parent) == ("cli.main", -1)
    assert (inner_label, inner_parent) == ("states.apply_local_operator", 0)
    assert tracer.counts["states.amps_touched"] == 8


def test_install_patches_every_lookup_and_uninstall_restores_them():
    sys.path.insert(0, SRC)
    try:
        import erasurelab.cli as cli
        import erasurelab.gates as gates
        import erasurelab.states as states

        originals = (cli.main, gates.apply_local_operator, states.PureState.__init__)
        tracer = spans.Tracer()
        assert tracer.install() == []
        assert gates.apply_local_operator is not originals[1]
        assert cli.main(["share-demo", "--code", "hiding:2", "--out", os.devnull]) == 0
        table = spans.summarize(tracer.spans)
        tracer.uninstall()
    finally:
        sys.path.remove(SRC)
    assert (cli.main, gates.apply_local_operator, states.PureState.__init__) == originals
    assert table["cli.main"][0] == 1
    assert table["codes.encode"][0] == 1
    assert table["gates.apply_circuit"][0] == 2  # encode, then the inverse
    assert tracer.counts["codes.basis_bytes"] == 4 * 16 * 16  # 4 states, 16 amplitudes


def test_install_reports_a_target_this_version_lacks(monkeypatch):
    sys.path.insert(0, SRC)
    try:
        import erasurelab.states  # noqa: F401

        monkeypatch.setattr(spans, "TARGETS", (("states.gone", "states", "gone", None),))
        tracer = spans.Tracer()
        assert tracer.install() == ["states.gone"]
        assert tracer._restore == []
    finally:
        sys.path.remove(SRC)


def test_oracle_verdicts():
    rng = np.random.default_rng(0)
    six = oracle.ghz_pair_basis(3)
    assert oracle.code_verdict(six) == [(True, True)] * 6
    assert oracle.code_verdict(oracle.locally_rotated(six, rng)) == [(True, True)] * 6
    assert oracle.code_verdict(oracle.w5_basis()) == [(True, True)] * 5
    assert oracle.code_verdict(oracle.ghz_pair_basis(1)) == [(False, False)] * 2
    assert oracle.code_verdict(oracle.random_subspace(6, 8, rng)) == [(False, False)] * 6
    nan_code = six.copy()
    nan_code[0, 0] = np.nan
    assert not any(c or h for c, h in oracle.code_verdict(nan_code))
