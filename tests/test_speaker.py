import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaguetalk import (DEFAULT_LAMBDA, Around, AtLeast, Between, Dist, Exact,
                       IndependentPrior, NoTruthfulMessage, Observation,
                       SpeakerStrategy, SupportMismatch, ZeroPosterior, best_index,
                       best_message, kl_divergence, literal_update,
                       softmax_speaker, uniform, utility, utility_table)

GRID = np.arange(0.0, 81.0, 10.0)
P_O = (0.0, 0.01, 0.01, 0.16, 0.64, 0.16, 0.01, 0.01, 0.0)


PRIOR = IndependentPrior(uniform(GRID), {"around": uniform(np.arange(0.0, 41.0, 10.0))})


@pytest.fixture
def interp():
    return lambda m: literal_update(PRIOR, m)


@pytest.fixture
def obs():
    return Observation("o1", Dist(GRID, P_O))


class TestUtility:
    def test_is_negated_kl(self, interp, obs):
        m = Between(10.0, 70.0)
        assert utility(obs, m, interp) == -kl_divergence(obs.dist, interp(m))

    def test_known_values(self, interp, obs):
        assert utility(obs, Between(10.0, 70.0), interp) == \
            pytest.approx(-0.8896535275341418, abs=1e-12)
        assert utility(obs, Around(40.0), interp) == \
            pytest.approx(-0.6531295544462791, abs=1e-12)

    def test_quality_violation_is_minus_inf(self, interp, obs):
        # the interpretation of "between 30 and 50" zeroes out 10 and 70,
        # which the speaker still holds possible
        assert utility(obs, Between(30.0, 50.0), interp) == -math.inf
        assert utility(obs, Around(0.0), interp) == -math.inf

    def test_false_message_is_minus_inf_not_crash(self, interp, obs):
        assert utility(obs, Between(90.0, 100.0), interp) == -math.inf

    def test_perfect_match_is_zero(self, interp):
        o = Observation("tent", interp(Around(40.0)))
        assert utility(o, Around(40.0), interp) == 0.0

    def test_table_shape(self, interp, obs):
        menu = [Between(10.0, 70.0), Around(40.0), Around(0.0)]
        table = utility_table(obs, menu, interp)
        assert table.shape == (3,)
        assert table[2] == -math.inf


@st.composite
def observations_with_zeros(draw):
    weight = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))
    w = np.array(draw(st.lists(weight, min_size=GRID.size, max_size=GRID.size)))
    if not w.any():
        w[draw(st.integers(min_value=0, max_value=GRID.size - 1))] = 1.0
    return Observation("o", Dist(GRID, w / w.sum()))


#: precise and vague messages; "exactly 45" and "between 90 and 100" are
#: false everywhere on GRID
TABLE_MENU = (Between(10.0, 70.0), Around(40.0), Around(0.0), Exact(40.0),
              Exact(45.0), AtLeast(30.0), Between(90.0, 100.0), Around(80.0))


class TestUtilityTable:
    @given(observations_with_zeros())
    @settings(max_examples=100)
    def test_is_minus_kl_per_message(self, o):
        interp = lambda m: literal_update(PRIOR, m)
        expected = []
        for m in TABLE_MENU:
            try:
                expected.append(-kl_divergence(o.dist, interp(m)))
            except ZeroPosterior:
                expected.append(-math.inf)
        table = utility_table(o, TABLE_MENU, interp)
        assert table.tobytes() == np.array(expected).tobytes()
        for m, u in zip(TABLE_MENU, table):
            assert utility(o, m, interp) == utility_table(o, (m,), interp)[0] == u

    def test_empty_menu(self, interp, obs):
        assert utility_table(obs, (), interp).shape == (0,)

    def test_interpreter_on_another_grid_raises(self, obs):
        wider_prior = IndependentPrior(uniform(np.arange(0.0, 91.0, 10.0)))
        wider = lambda m: literal_update(wider_prior, m)
        with pytest.raises(SupportMismatch):
            utility_table(obs, (Exact(90.0), Between(10.0, 70.0)), wider)
        with pytest.raises(SupportMismatch):
            utility(obs, Between(10.0, 70.0), wider)
        # a message the interpreter cannot update on never reaches the check
        assert utility(obs, Exact(45.0), wider) == -math.inf


class TestBestMessage:
    def test_vague_beats_precise_on_table_case(self, interp, obs):
        menu = [Between(10.0, 70.0), Around(40.0)]
        assert best_message(obs, menu, interp) == Around(40.0)

    def test_tie_goes_to_vague(self, interp):
        # flat observation: "between 0 and 80" and "around 40" with a full
        # halo both leave... not a tie here; build one via synonyms instead
        o = Observation("flat", uniform(GRID))
        menu = [Between(0.0, 80.0), AtLeast(0.0)]
        # both interpret to the prior itself, utility 0 for each
        assert utility(o, menu[0], interp) == utility(o, menu[1], interp) == 0.0
        assert best_index(o, menu, interp) == 0

    def test_tie_prefers_vague_over_lower_index(self):
        grid = np.arange(3.0)
        prior = IndependentPrior(uniform(grid), {"around": uniform([0.0, 1.0])})
        it = lambda m: literal_update(prior, m)
        tent = it(Around(1.0))
        o = Observation("tent", tent)
        # exact tie: the around message reproduces o.dist, and so does
        # nothing else; pair it with itself under a precise wrapper is
        # impossible, so check ordering on the all-true pair instead
        flat = Observation("flat", uniform(grid))
        menu = [Between(0.0, 2.0), AtLeast(0.0)]
        u = utility_table(flat, menu, it)
        assert u[0] == u[1]
        assert best_index(flat, menu, it) == 0

    def test_minus_inf_entries_are_skipped(self, interp, obs):
        menu = [Around(0.0), Between(10.0, 70.0)]
        assert best_message(obs, menu, interp) == Between(10.0, 70.0)

    def test_no_truthful_message(self, interp, obs):
        with pytest.raises(NoTruthfulMessage):
            best_index(obs, [Around(0.0), Between(90.0, 100.0)], interp)

    def test_empty_menu(self, interp, obs):
        with pytest.raises(ValueError):
            best_index(obs, [], interp)


class TestSoftmaxSpeaker:
    def test_returns_distribution_over_indices(self, interp, obs):
        menu = [Between(10.0, 70.0), Around(40.0)]
        d = softmax_speaker(obs, menu, interp, lam=1.0)
        assert d.support.tolist() == [0.0, 1.0]
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_message_split(self, interp, obs):
        # u_between = -0.8897, u_around = -0.6531, lam = 1
        menu = [Around(40.0), Between(10.0, 70.0)]
        d = softmax_speaker(obs, menu, interp, lam=1.0)
        gap = -0.6531295544462791 - (-0.8896535275341418)
        expected = 1.0 / (1.0 + math.exp(-gap))
        assert d.probs[0] == pytest.approx(expected, abs=1e-12)
        assert d.probs[0] == pytest.approx(0.5589, abs=2e-3)

    def test_minus_inf_gets_zero(self, interp, obs):
        menu = [Around(0.0), Around(40.0)]
        d = softmax_speaker(obs, menu, interp, lam=DEFAULT_LAMBDA)
        assert d.probs[0] == 0.0
        assert d.probs[1] == 1.0

    def test_hard_choice_in_support(self, interp, obs):
        menu = [Between(10.0, 70.0), Around(40.0), Between(0.0, 80.0)]
        j = best_index(obs, menu, interp)
        d = softmax_speaker(obs, menu, interp, lam=2.0)
        assert d.probs[j] > 0

    @given(st.floats(min_value=0.5, max_value=50.0),
           st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=40)
    def test_larger_lambda_concentrates(self, lam1, lam2):
        prior = IndependentPrior(
            uniform(GRID), {"around": uniform(np.arange(0.0, 41.0, 10.0))})
        it = lambda m: literal_update(prior, m)
        o = Observation("o1", Dist(GRID, P_O))
        menu = [Between(10.0, 70.0), Around(40.0)]
        lo, hi = sorted([lam1, lam2])
        j = best_index(o, menu, it)
        p_lo = softmax_speaker(o, menu, it, lam=lo).probs[j]
        p_hi = softmax_speaker(o, menu, it, lam=hi).probs[j]
        assert p_hi >= p_lo - 1e-12

    def test_all_minus_inf_raises(self, interp, obs):
        with pytest.raises(NoTruthfulMessage):
            softmax_speaker(obs, [Around(0.0)], interp, lam=1.0)


class TestSpeakerStrategy:
    def test_pure_row_lookup(self):
        s = SpeakerStrategy(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert s.is_pure
        assert s.message_index("b") == 1
        assert s.row("a").tolist() == [1.0, 0.0]

    def test_mixed_row(self):
        s = SpeakerStrategy(("a",), np.array([[0.5, 0.5]]))
        assert not s.is_pure
        with pytest.raises(ValueError):
            s.message_index("a")

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            SpeakerStrategy(("a",), np.array([[0.5, 0.4]]))
        with pytest.raises(ValueError):
            SpeakerStrategy(("a",), np.array([[-0.5, 1.5]]))

    def test_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            SpeakerStrategy(("a", "b"), np.array([[1.0, 0.0]]))
