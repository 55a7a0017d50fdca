import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaguetalk import scenarios
from vaguetalk import (ATTENDANCE_GRID, HEIGHT_GRID, P_O_ATTENDANCE, P_O_TALL, SHORT,
                       TALL, Around, AtLeast, AtMost, Between, Dist, Exact, Message,
                       Observation, Scenario, attendance_scenario,
                       closed_form_posterior, concentration_pairs_ok,
                       default_t_priors, gaussian_prior,
                       joint_enumeration_posterior, literal_update,
                       optimality_search, ratio_inequality_pairs_ok,
                       run_named_scenario, scenario_around_table1,
                       scenario_tall_gaussian, scenario_tall_uniform,
                       tall_gaussian_scenario, tall_uniform_scenario, uniform)

TENT = [0.04, 0.08, 0.12, 0.16, 0.20, 0.16, 0.12, 0.08, 0.04]


class TestPresets:
    def test_attendance_menu(self):
        sc = attendance_scenario()
        assert len(sc.menu) == 54  # 45 precise + 9 around
        assert sc.unit == "persons"
        assert sum(1 for m in sc.menu if m.vague) == 9

    def test_attendance_observation(self):
        sc = attendance_scenario()
        o = sc.observation("o1")
        assert o.dist.probs.tolist() == list(P_O_ATTENDANCE)
        assert o.dist.p(40.0) == 0.64
        with pytest.raises(KeyError):
            sc.observation("o2")

    def test_tall_uniform_menu(self):
        sc = tall_uniform_scenario()
        labels = [m.label for m in sc.menu]
        assert labels[0] == "tall"
        assert "between 155 and 195" in labels
        assert "at least 170" in labels

    def test_gaussian_prior_shape(self):
        p = gaussian_prior(HEIGHT_GRID, 175.0, 10.0)
        assert p.mode() == 175.0
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)
        # symmetric around the mean on this grid
        assert p.p(170.0) == pytest.approx(p.p(180.0), abs=1e-15)

    def test_default_t_priors(self):
        t = default_t_priors(ATTENDANCE_GRID)
        assert t["around"].support.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert np.allclose(t["around"].probs, 0.2)
        assert t["threshold"].support.tolist() == ATTENDANCE_GRID.tolist()

    def test_scenario_validation(self):
        grid = np.arange(3.0)
        ok = dict(grid=grid, unit="u", x_prior=uniform(grid),
                  t_priors=default_t_priors(grid),
                  observations=(Observation("o", uniform(grid)),),
                  weights=(1.0,), menu=(Around(1.0),))
        Scenario(**ok)
        with pytest.raises(ValueError):
            Scenario(**{**ok, "x_prior": uniform([0.0, 1.0])})
        with pytest.raises(ValueError):
            Scenario(**{**ok, "weights": (0.5,)})
        with pytest.raises(ValueError):
            Scenario(**{**ok, "menu": ()})
        with pytest.raises(ValueError):
            Scenario(**{**ok, "lam": 0.0})
        with pytest.raises(ValueError):
            Scenario(**{**ok, "listener_mode": "fast"})

    @pytest.mark.parametrize("change", [
        {"lam": math.nan}, {"lam": math.inf}, {"lam": -math.inf},
        {"weights": (math.nan,)}, {"weights": (math.inf,)}, {"weights": (-0.5,)},
    ])
    def test_temperature_and_weights_must_be_finite(self, change):
        text = "lam must be positive" if "lam" in change else "weights must be nonnegative"
        with pytest.raises(ValueError, match=text):
            dataclasses.replace(attendance_scenario(), **change)

    def test_interpreter_modes_agree_on_table_case(self):
        a = attendance_scenario("auto").interpreter()(Around(40.0))
        b = attendance_scenario("bruteforce").interpreter()(Around(40.0))
        c = attendance_scenario("closedform").interpreter()(Around(40.0))
        assert a.probs.tobytes() == b.probs.tobytes() == c.probs.tobytes()
        assert np.max(np.abs(a.probs - TENT)) <= 1e-12


class TestTable1Report:
    def test_posteriors(self):
        rep = scenario_around_table1()
        assert rep["posterior_around"] == TENT
        expected_between = [0.0] + [1.0 / 7.0] * 7 + [0.0]
        assert np.max(np.abs(np.array(rep["posterior_between"]) -
                             expected_between)) <= 1e-12
        assert rep["closed_vs_brute_max_diff"] <= 1e-12

    def test_kl_pair(self):
        rep = scenario_around_table1()
        assert rep["kl_between"] == pytest.approx(0.89, abs=0.005)
        assert rep["kl_around"] == pytest.approx(0.65, abs=0.005)
        assert rep["kl_between_2dp"] == 0.89
        assert rep["kl_around_2dp"] == 0.65

    def test_winner(self):
        rep = scenario_around_table1()
        assert rep["winner"] == "around 40"
        assert rep["winner_strict"] is True
        assert rep["winner_margin"] > 0.1

    def test_menu_report_covers_everything(self):
        rep = scenario_around_table1()
        assert len(rep["messages"]) == 54
        by_label = {m["label"]: m for m in rep["messages"]}
        assert by_label["around 0"]["utility"] == -math.inf


class TestTallReports:
    def test_uniform_linear(self):
        rep = scenario_tall_uniform()
        assert rep["linear_form_max_diff"] == 0.0
        assert rep["posterior_tall"][-1] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert rep["winner_is_tall"] is True
        assert rep["winner"] == "tall"

    def test_uniform_utility_ordering(self):
        rep = scenario_tall_uniform()
        by_label = {m["label"]: m["utility"] for m in rep["messages"]}
        assert by_label["tall"] < 0
        assert by_label["tall"] > by_label["between 155 and 195"]
        # the non-covering half-line violates truthfulness
        assert by_label["at least 170"] == -math.inf

    def test_gaussian_ratio_and_mode(self):
        rep = scenario_tall_gaussian()
        assert rep["ratio_inequality_ok"] is True
        assert rep["mode_shifted_up"] is True
        assert rep["posterior_mode"] > rep["prior_mode"]
        assert rep["enumeration_max_diff"] <= 1e-12

    def test_gaussian_matches_enumeration_oracle(self):
        sc = tall_gaussian_scenario()
        post = literal_update(sc.prior, TALL)
        oracle = joint_enumeration_posterior(
            sc.x_prior, sc.t_priors["threshold"], TALL)
        assert post.approx_equal(oracle, tol=1e-12)


class TestPairwiseChecks:
    def test_ratio_inequality_on_gaussian(self):
        sc = tall_gaussian_scenario()
        post = literal_update(sc.prior, TALL)
        assert ratio_inequality_pairs_ok(sc.x_prior, post)

    def test_ratio_inequality_fails_on_no_update(self):
        p = uniform(np.arange(4.0))
        assert not ratio_inequality_pairs_ok(p, p)

    def test_concentration_on_tent(self):
        grid = ATTENDANCE_GRID
        prior = uniform(grid)
        post = Dist(grid, TENT)
        assert concentration_pairs_ok(prior, post, center_index=4)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=10.0),
                    min_size=3, max_size=12))
    def test_ratio_inequality_any_positive_prior(self, weights):
        # threshold update tilts posterior odds upward for every pair
        w = np.asarray(weights)
        grid = np.arange(len(w), dtype=float)
        x = Dist(grid, w / w.sum())
        post = joint_enumeration_posterior(x, uniform(grid), TALL)
        assert ratio_inequality_pairs_ok(x, post)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=10.0),
                    min_size=3, max_size=11))
    def test_concentration_any_positive_prior(self, weights):
        # around update concentrates posterior odds toward the center
        if len(weights) % 2 == 0:
            weights = weights[:-1]
        w = np.asarray(weights)
        n = (len(w) - 1) // 2
        grid = np.arange(len(w), dtype=float)
        x = Dist(grid, w / w.sum())
        t = uniform(np.arange(n + 1, dtype=float))
        post = joint_enumeration_posterior(x, t, Around(float(n)))
        assert concentration_pairs_ok(x, post, center_index=n)


class TestOptimalitySearch:
    def test_around_family_finds_witnesses(self):
        rep = optimality_search("around", n_samples=20, seed=0)
        assert rep["n_witnesses"] >= 1
        first = rep["witnesses"][0]
        assert first["index"] == 0  # the reference shape itself
        assert first["vague_message"] == "around 40"
        assert first["margin"] > 0

    def test_threshold_family_finds_witnesses(self):
        rep = optimality_search("threshold", n_samples=20, seed=0)
        assert rep["n_witnesses"] >= 1
        assert rep["witnesses"][0]["vague_message"] == "tall"

    def test_pointmass_family_never_wins(self):
        # a precise message matches a point mass exactly; vague cannot win
        rep = optimality_search("around", family="pointmass", seed=0)
        assert rep["n_witnesses"] == 0

    def test_seeded_reproducibility(self):
        a = optimality_search("around", n_samples=10, seed=5)
        b = optimality_search("around", n_samples=10, seed=5)
        assert a == b

    def test_margins_match_report(self):
        rep = optimality_search("around", n_samples=12, seed=3)
        for w in rep["witnesses"]:
            assert w["vague_utility"] - w["best_precise_utility"] == \
                pytest.approx(w["margin"], abs=1e-12)

    def test_cached_setup_still_verifies_every_witness(self, monkeypatch):
        optimality_search("around", n_samples=5, seed=0)  # the setup is cached now
        kl_rows = scenarios._kl_rows
        monkeypatch.setattr(scenarios, "_kl_rows", lambda p, rows: kl_rows(p, rows) - 1e-6)
        with pytest.raises(AssertionError,
                           match="^witness 0 failed independent verification; routes disagree$"):
            optimality_search("around", n_samples=5, seed=0)

    def test_cached_setup_is_read_only(self):
        grid, menu, L0, oracle, vague_mask = scenarios._search_setup("around")
        for array, index in ((grid, 0), (L0, (0, 0)), (vague_mask, 0)):
            with pytest.raises(ValueError, match="read-only"):
                array[index] = 1
        assert isinstance(menu, tuple) and isinstance(oracle, tuple)
        assert all(isinstance(row, tuple) for row in oracle)

    def test_unknown_kind(self):
        for kind in ("nosuch", ["around"]):
            with pytest.raises(ValueError, match="unknown vague kind"):
                optimality_search(kind)


class TestNamedDispatch:
    def test_names(self):
        for name in ("around-table1", "tall-uniform", "tall-gaussian"):
            rep = run_named_scenario(name)
            assert rep["name"] == name
        with pytest.raises(KeyError):
            run_named_scenario("table1")

    def test_search_report_has_both_kinds(self):
        rep = run_named_scenario("optimality-search", seed=0, n_samples=5)
        assert rep["around"]["kind"] == "around"
        assert rep["threshold"]["kind"] == "threshold"


class Tilde(Around):
    """A vague subclass that the closed forms and denotations accept as "around"."""


class Murky(Message):
    """A vague kind no denotation knows."""

    vague = True
    param_kind = "around"

    @property
    def label(self) -> str:
        return "murky"


class Exactly(Exact):
    """A precise subclass, which takes the per-message L0 route."""


@st.composite
def menu_scenarios(draw):
    """A scenario on an even or uneven grid, uniform or not, whose t priors
    are the defaults, random or missing, and whose menu mixes every message
    kind; plus messages to ask for, some of them outside the menu."""
    n = draw(st.integers(min_value=1, max_value=9))
    if draw(st.booleans()):
        grid = 10.0 * np.arange(n)
    else:
        grid = np.array(sorted(draw(st.sets(st.integers(0, 40), min_size=n, max_size=n))), float)
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0))

    def dist(support):
        if draw(st.booleans()):
            return uniform(support)
        w = np.array(draw(st.lists(weight, min_size=support.size, max_size=support.size)))
        w[draw(st.integers(0, support.size - 1))] += 0.5  # never all zero
        return Dist(support, w / w.sum())

    t_priors = {}
    for kind, default in default_t_priors(grid).items():
        choice = draw(st.sampled_from(["default", "random", "missing"]))
        if choice == "default":
            t_priors[kind] = default
        elif choice == "random":
            t_priors[kind] = dist(default.support)
    value = st.sampled_from(list(grid) + [-10.0, 5.0, 200.0])
    between = st.tuples(value, value).map(lambda b: Between(*sorted(b)))
    message = st.one_of(value.map(Exact), value.map(Exactly), value.map(AtLeast),
                        value.map(AtMost), between, value.map(Around), value.map(Tilde),
                        st.sampled_from([TALL, SHORT, Murky()]))
    sc = Scenario(grid=grid, unit="u", x_prior=dist(grid), t_priors=t_priors,
                  observations=(Observation("o", uniform(grid)),), weights=(1.0,),
                  menu=tuple(draw(st.lists(message, min_size=1, max_size=12))),
                  listener_mode=draw(st.sampled_from(scenarios.LISTENER_MODES)))
    return sc, draw(st.lists(message, max_size=6))


def one_message_route(sc, m):
    """The listener route of each message on its own: in mode "closedform" a
    vague message must pass the closed-form check, then every mode serves its
    literal_update posterior."""
    if m.vague and sc.listener_mode == "closedform":
        closed_form_posterior(sc.prior, m)
    return literal_update(sc.prior, m)


def outcome(route, m):
    try:
        post = route(m)
    except Exception as exc:
        return type(exc), str(exc)
    return post.support.tobytes(), post.probs.tobytes()


class TestMenuInterpreter:
    @given(menu_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_one_message_route_bit_for_bit(self, case):
        sc, extra = case
        interpret = sc.interpreter()
        asked = extra + list(sc.menu)  # the first call may come from outside the menu
        for m in asked + asked[::-1]:  # twice: a cached row or error comes back the same
            assert outcome(interpret, m) == outcome(lambda m: one_message_route(sc, m), m)

    def test_rows_are_read_only_views_served_from_the_cache(self):
        interpret = attendance_scenario().interpreter()
        post = interpret(Around(40.0))
        assert interpret(Around(40.0)) is post
        assert not post.probs.flags.writeable and not post.support.flags.writeable
        assert post.probs.tobytes() == literal_update(attendance_scenario().prior,
                                                      Around(40.0)).probs.tobytes()
