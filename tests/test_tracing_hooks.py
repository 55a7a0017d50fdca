"""The benchmark's tracer wraps library functions by module attribute.

``perfbench/tracing.py`` looks each name up with ``getattr``; a name the
library no longer has would only show as a crash of a traced benchmark
run. These tests install the tracer against the library, check that the
wrapped names are the ones the library calls, and that ``restore`` puts
every original back.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from vaguetalk import cli, games, ibr, scenarios

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
HEIGHTS = str(ROOT / "demos" / "data" / "heights3.json")


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_restore_puts_every_attribute_back(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_wrapped_names_are_in_use(tracing):
    tracer = tracing.Tracer()
    sc = scenarios.attendance_scenario()
    with tracing.traced_op(tracer, 0):
        scenarios.scenario_around_table1()
        kl_calls_in_report = tracer.counts["prob.kl_calls"]
        trace = ibr.iterate(sc.prior, sc.menu, sc.observations, sc.weights)
        S, L = trace.final
        ibr.expected_utility(S, L, sc.observations, sc.weights)
        # iterate runs its levels on utility tables, without speaker_response;
        # the softmax fixed-point check still calls it
        ibr.check_fixed_point(S, L, sc.prior, sc.menu, sc.observations, sc.weights,
                              mode="softmax", lam=4.0)
    names = {s.name for s in tracer.spans}
    assert {"listener.interpret", "listener.literal_update", "speaker.utility_table",
            "speaker.best_index", "ibr.speaker_response"} <= names
    by_id = {s.id: s for s in tracer.spans}
    assert {by_id[s.parent].name for s in tracer.spans
            if s.name == "ibr.speaker_response"} == {"ibr.check_fixed_point"}
    assert 0 < kl_calls_in_report < tracer.counts["prob.kl_calls"]


def test_games_names_are_in_use(tracing):
    tracer = tracing.Tracer()
    g = games.random_game([0, 1], 3, 3, 3)
    with tracing.traced_op(tracer, 0):
        candidates = games.generate_mixed_candidates(g, np.random.default_rng(0))
        games.mixed_dominance_check(g, candidates)
        # the dominance check verifies its candidates as one stack, without
        # is_nash, and counts the pure equilibria without listing them; the
        # CLI's check and enumerate commands still call those two
        assert cli.main(["game", HEIGHTS, "check", "--mixed"]) == 0
        assert cli.main(["game", HEIGHTS, "enumerate"]) == 0
    by_id = {s.id: s for s in tracer.spans}
    parents = {s.name: by_id[s.parent].name for s in tracer.spans if s.parent in by_id}
    assert parents["games.enumerate_pure_equilibria"] == "cli.main"
    assert parents["games.is_nash"] == "cli.main"
    assert tracer.counts["games.candidates"] == len(candidates) > 1
    assert tracer.counts["games.pure_equilibria"] > 0
