import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaguetalk import (Around, AtLeast, Between, DeadMessageNoFallback, Dist,
                       IndependentPrior, ListenerStrategy, Observation,
                       SpeakerStrategy, SupportMismatch, check_fixed_point,
                       expected_utility, iterate, kl_divergence, listener_response,
                       literal_listener_strategy, literal_update,
                       precise_alternatives, speaker_response, uniform,
                       vague_alternatives)
from vaguetalk.ibr import _utilities

GRID = np.arange(0.0, 81.0, 10.0)
P_O = (0.0, 0.01, 0.01, 0.16, 0.64, 0.16, 0.01, 0.01, 0.0)


def table_prior():
    return IndependentPrior(
        uniform(GRID),
        {"around": uniform(np.arange(0.0, 41.0, 10.0))},
    )


def full_menu():
    return precise_alternatives(GRID) + vague_alternatives(GRID, "around")


@st.composite
def stochastic_rows(draw, n_rows, n_cols):
    """Row-stochastic matrix with exact zeros (at least one positive per row)."""
    weight = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))
    rows = np.asarray(draw(st.lists(st.lists(weight, min_size=n_cols, max_size=n_cols),
                                    min_size=n_rows, max_size=n_rows)))
    for i in np.flatnonzero(rows.sum(axis=1) == 0):
        rows[i, draw(st.integers(min_value=0, max_value=n_cols - 1))] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


@st.composite
def speaker_listener_pairs(draw):
    """(menu, prior, observations, S, L) on a small grid, with zeros everywhere."""
    n = draw(st.integers(min_value=1, max_value=6))
    grid = np.arange(float(n))
    menu = precise_alternatives(grid)[:draw(st.integers(min_value=1, max_value=6))]
    n_obs = draw(st.integers(min_value=1, max_value=3))
    obs = [Observation(f"o{i}", Dist(grid, row))
           for i, row in enumerate(draw(stochastic_rows(n_obs, n)))]
    S = SpeakerStrategy(tuple(o.id for o in obs), draw(stochastic_rows(n_obs, len(menu))))
    L = ListenerStrategy(grid, draw(stochastic_rows(len(menu), n)))
    return menu, IndependentPrior(uniform(grid)), obs, S, L


@pytest.fixture
def setup():
    prior = table_prior()
    menu = full_menu()
    obs = [Observation("o1", Dist(GRID, P_O))]
    return prior, menu, obs, [1.0]


class TestLevelZero:
    def test_rows_are_literal_posteriors(self, setup):
        prior, menu, _, _ = setup
        L0 = literal_listener_strategy(prior, menu)
        for j, m in enumerate(menu):
            want = literal_update(prior, m)
            assert np.max(np.abs(L0.matrix[j] - want.probs)) == 0.0

    def test_row_accessor(self, setup):
        prior, menu, _, _ = setup
        L0 = literal_listener_strategy(prior, menu)
        d = L0.row(0)
        assert isinstance(d, Dist)
        assert d.support.tolist() == GRID.tolist()


class TestResponses:
    def test_speaker_picks_highest_row(self, setup):
        prior, menu, obs, _ = setup
        L0 = literal_listener_strategy(prior, menu)
        S1 = speaker_response(L0, obs, menu)
        j = S1.message_index("o1")
        assert str(menu[j]) == "around 40"

    def test_observation_on_another_grid_raises(self, setup):
        prior, menu, _, _ = setup
        L0 = literal_listener_strategy(prior, menu)
        other = Observation("elsewhere", uniform(GRID + 1.0))
        with pytest.raises(SupportMismatch):
            speaker_response(L0, [other], menu)

    @settings(max_examples=200)
    @given(speaker_listener_pairs())
    def test_utilities_match_scalar_kl_bit_for_bit(self, case):
        _, _, obs, _, L = case
        u = _utilities(obs, L)
        for i, o in enumerate(obs):
            for j in range(L.matrix.shape[0]):
                assert u[i, j].tobytes() == \
                    np.float64(-kl_divergence(o.dist, L.row(j))).tobytes()

    def test_softmax_speaker_rows(self, setup):
        prior, menu, obs, _ = setup
        L0 = literal_listener_strategy(prior, menu)
        S1 = speaker_response(L0, obs, menu, mode="softmax", lam=4.0)
        assert not S1.is_pure
        assert S1.matrix[0].sum() == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ValueError):
            speaker_response(L0, obs, menu, mode="softmax")

    def test_listener_bayes_update(self):
        # two observations, two messages, fully separating speaker
        grid = np.arange(3.0)
        o1 = Observation("a", Dist(grid, [0.8, 0.2, 0.0]))
        o2 = Observation("b", Dist(grid, [0.0, 0.5, 0.5]))
        S = SpeakerStrategy(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        L = listener_response(S, [o1, o2], [0.5, 0.5], fallback=None)
        assert np.allclose(L.matrix[0], o1.dist.probs)
        assert np.allclose(L.matrix[1], o2.dist.probs)

    def test_listener_pools_by_weight(self):
        grid = np.arange(2.0)
        o1 = Observation("a", Dist(grid, [1.0, 0.0]))
        o2 = Observation("b", Dist(grid, [0.0, 1.0]))
        S = SpeakerStrategy(("a", "b"), np.array([[1.0, 0.0], [1.0, 0.0]]))
        fallback = ListenerStrategy(grid, np.array([[0.5, 0.5], [0.5, 0.5]]))
        L = listener_response(S, [o1, o2], [0.75, 0.25], fallback)
        assert np.allclose(L.matrix[0], [0.75, 0.25])
        # message 1 is dead, falls back
        assert np.allclose(L.matrix[1], [0.5, 0.5])

    def test_dead_message_without_fallback_raises(self):
        grid = np.arange(2.0)
        o = Observation("a", Dist(grid, [1.0, 0.0]))
        S = SpeakerStrategy(("a",), np.array([[1.0, 0.0]]))
        with pytest.raises(DeadMessageNoFallback):
            listener_response(S, [o], [1.0], fallback=None)


class TestIterate:
    def test_attendance_converges_fast(self, setup):
        prior, menu, obs, weights = setup
        trace = iterate(prior, menu, obs, weights)
        assert trace.converged
        assert trace.fixed_point_level == 1
        assert not trace.cycle_detected
        assert trace.residuals[-1] < 1e-9

    def test_fixed_point_speaker_is_pure_vague(self, setup):
        prior, menu, obs, weights = setup
        trace = iterate(prior, menu, obs, weights)
        S, L = trace.final
        assert S.is_pure
        j = S.message_index("o1")
        assert menu[j].vague
        # the listener's reading of the sent message is the speaker's
        # own credal state, exactly
        assert np.max(np.abs(L.matrix[j] - obs[0].dist.probs)) == 0.0

    def test_level_zero_has_no_speaker(self, setup):
        prior, menu, obs, weights = setup
        trace = iterate(prior, menu, obs, weights)
        assert trace.levels[0][0] is None
        assert all(s is not None for s, _ in trace.levels[1:])

    def test_max_levels_respected(self, setup):
        prior, menu, obs, weights = setup
        trace = iterate(prior, menu, obs, weights, max_levels=1)
        assert len(trace.levels) == 2
        assert not trace.converged

    def test_bad_args(self, setup):
        prior, menu, obs, weights = setup
        with pytest.raises(ValueError):
            iterate(prior, menu, obs, weights, max_levels=0)
        with pytest.raises(ValueError):
            iterate(prior, menu, obs, weights, tol=0.0)

    def test_empty_menu_is_a_library_error(self, setup):
        prior, _, obs, weights = setup
        with pytest.raises(ValueError, match="^menu must be nonempty$"):
            iterate(prior, (), obs, weights)

    def test_no_fallback_mode_runs_when_nothing_dies(self):
        # single message menu: it is always sent, fallback never needed
        prior = table_prior()
        menu = [Between(10.0, 70.0)]
        obs = [Observation("o1", Dist(GRID, P_O))]
        trace = iterate(prior, menu, obs, [1.0], dead_message_fallback=False)
        assert trace.converged

    def test_softmax_mode_converges_on_synonyms(self):
        prior = IndependentPrior(
            uniform(GRID), {"around": uniform(np.arange(0.0, 41.0, 10.0))})
        menu = [AtLeast(0.0), Between(0.0, 80.0), Around(40.0)]
        obs = [Observation("flat", uniform(GRID))]
        trace = iterate(prior, menu, obs, [1.0], mode="softmax", lam=4.0)
        assert trace.converged
        S, _ = trace.final
        # all three messages end up interpreted as the flat credal state,
        # so the softmax response splits evenly
        assert np.allclose(S.matrix[0], 1.0 / 3.0, atol=1e-9)


class TestEU:
    def test_separating_beats_pooling(self):
        grid = np.arange(2.0)
        o1 = Observation("a", Dist(grid, [0.9, 0.1]))
        o2 = Observation("b", Dist(grid, [0.1, 0.9]))
        obs, w = [o1, o2], [0.5, 0.5]
        sep = SpeakerStrategy(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        pool = SpeakerStrategy(("a", "b"), np.array([[1.0, 0.0], [1.0, 0.0]]))
        fallback = ListenerStrategy(grid, np.array([[0.5, 0.5], [0.5, 0.5]]))
        L_sep = listener_response(sep, obs, w, fallback)
        L_pool = listener_response(pool, obs, w, fallback)
        assert expected_utility(sep, L_sep, obs, w) > \
            expected_utility(pool, L_pool, obs, w)

    def test_perfect_communication_is_zero(self):
        grid = np.arange(2.0)
        o = Observation("a", Dist(grid, [0.3, 0.7]))
        S = SpeakerStrategy(("a",), np.array([[1.0]]))
        L = ListenerStrategy(grid, np.array([[0.3, 0.7]]))
        assert expected_utility(S, L, [o], [1.0]) == 0.0

    def test_unsent_minus_inf_ignored(self):
        grid = np.arange(2.0)
        o = Observation("a", Dist(grid, [0.5, 0.5]))
        S = SpeakerStrategy(("a",), np.array([[1.0, 0.0]]))
        L = ListenerStrategy(grid, np.array([[0.5, 0.5], [1.0, 0.0]]))
        # message 1 would be -inf but is never sent
        assert expected_utility(S, L, [o], [1.0]) == 0.0

    @pytest.mark.parametrize("weights", [[0.0], [-1.0], [1.0, 1.0], [np.nan], [np.inf]])
    def test_bad_weights_rejected(self, weights):
        grid = np.arange(2.0)
        o = Observation("a", Dist(grid, [0.5, 0.5]))
        S = SpeakerStrategy(("a",), np.array([[1.0]]))
        L = ListenerStrategy(grid, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="nonnegative with positive total"):
            expected_utility(S, L, [o], weights)
        with pytest.raises(ValueError, match="nonnegative with positive total"):
            listener_response(S, [o], weights, None)


class TestFixedPointCheck:
    def test_true_fixed_point_passes(self, setup):
        prior, menu, obs, weights = setup
        trace = iterate(prior, menu, obs, weights)
        S, L = trace.final
        rep = check_fixed_point(S, L, prior, menu, obs, weights)
        assert rep.ok
        assert rep.speaker_residual == 0.0
        assert rep.listener_residual == 0.0

    def test_literal_pair_is_not_fixed(self, setup):
        # L0 with a speaker that sends a suboptimal message
        prior, menu, obs, weights = setup
        L0 = literal_listener_strategy(prior, menu)
        row = np.zeros(len(menu))
        row[0] = 1.0  # send "exactly 0", untruthful here
        S = SpeakerStrategy(("o1",), row[None, :])
        rep = check_fixed_point(S, L0, prior, menu, obs, weights)
        assert not rep.speaker_ok
        assert rep.speaker_residual == math.inf

    def test_softmax_mode(self, setup):
        prior, menu, obs, weights = setup
        trace = iterate(prior, menu, obs, weights, mode="softmax", lam=4.0)
        if trace.converged:
            S, L = trace.final
            rep = check_fixed_point(S, L, prior, menu, obs, weights,
                                    mode="softmax", lam=4.0, tol=1e-6)
            assert rep.ok

    @settings(max_examples=200)
    @given(speaker_listener_pairs())
    def test_speaker_residual_is_the_largest_gap(self, case):
        menu, prior, obs, S, L = case
        residual = 0.0
        for i, o in enumerate(obs):
            u = [-kl_divergence(o.dist, L.row(j)) for j in range(len(menu))]
            for j, sent in enumerate(S.matrix[i]):
                gap = max(u) - u[j]
                if sent > 0 and gap > residual:  # nan (no truthful message) is skipped
                    residual = gap
        rep = check_fixed_point(S, L, prior, menu, obs, [1.0] * len(obs))
        assert rep.speaker_residual == residual

    def test_mode_validation(self, setup):
        prior, menu, obs, weights = setup
        trace = iterate(prior, menu, obs, weights)
        S, L = trace.final
        with pytest.raises(ValueError):
            check_fixed_point(S, L, prior, menu, obs, weights, mode="argmax")
