import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaguetalk import ibr
from vaguetalk import (Around, AtLeast, AtMost, Between, DeadMessageNoFallback, Dist, Exact,
                       IndependentPrior, ListenerStrategy, Observation,
                       SpeakerStrategy, SupportMismatch, check_fixed_point,
                       expected_utility, iterate, kl_divergence, listener_response,
                       literal_listener_strategy, literal_update,
                       precise_alternatives, speaker_response, uniform,
                       vague_alternatives)
from vaguetalk.ibr import FixedPointReport, RecursionTrace, _QUANTUM, _cycle_key, _utilities
from vaguetalk.listener import _literal_rows
from vaguetalk.prob import _kl_rows, _quantized_key, softmax
from vaguetalk.speaker import NoTruthfulMessage, _argmax_with_tiebreak

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


def dense_listener_response(S, observations, weights, fallback):
    """The Bayes listener computed densely: every row divided, np.where with
    the fallback, the checking constructor."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    p_obs = np.stack([o.dist.probs for o in observations])
    raw = S.matrix.T @ (w[:, None] * p_obs)
    totals = raw.sum(axis=1)
    sent = totals > 0
    if fallback is None and not np.all(sent):
        raise DeadMessageNoFallback(f"message index {np.flatnonzero(~sent)[0]} is never sent")
    matrix = raw / np.where(sent, totals, 1.0)[:, None]
    if fallback is not None:
        matrix = np.where(sent[:, None], matrix, fallback.matrix)
    return ListenerStrategy(observations[0].dist.support, matrix)


def dense_speaker_response(L, observations, menu, mode, lam):
    """speaker_response on the full utility table, one KL call per observation."""
    utilities = -np.stack([_kl_rows(o.dist.probs, L.matrix) for o in observations])
    rows = np.zeros_like(utilities)
    for i, (o, u) in enumerate(zip(observations, utilities)):
        if np.max(u) == -math.inf:
            raise NoTruthfulMessage(f"no usable message for observation {o.id!r}")
        if mode == "hardmax":
            rows[i, _argmax_with_tiebreak(menu, u)] = 1.0
        else:
            rows[i] = softmax(u, lam)
    return SpeakerStrategy(tuple(o.id for o in observations), rows)


def dense_iterate(prior, menu, observations, weights, mode, lam, max_levels, fallback_on):
    """The recursion with both responses recomputed in full at every level."""
    L0 = ListenerStrategy(*_literal_rows(prior, menu))
    trace = RecursionTrace(menu=tuple(menu), levels=[(None, L0)],
                           converged=False, fixed_point_level=None)
    fallback = L0 if fallback_on else None
    seen, prev, L = {}, None, L0
    for level in range(1, max_levels + 1):
        S = dense_speaker_response(L, observations, menu, mode, lam)
        L = dense_listener_response(S, observations, weights, fallback)
        trace.levels.append((S, L))
        if prev is not None:
            diff = max(float(np.max(np.abs(S.matrix - prev[0].matrix))),
                       float(np.max(np.abs(L.matrix - prev[1].matrix))))
            trace.residuals.append(diff)
            if diff < 1e-9:
                trace.converged = True
                trace.fixed_point_level = level - 1
                break
        key = _quantized_key(_QUANTUM, S.matrix, L.matrix)
        if key in seen:
            trace.cycle_detected = True
            break
        seen[key] = level
        prev = (S, L)
    return trace


def dense_check(S, L, prior, menu, observations, weights, mode, lam, fallback_on):
    if mode == "hardmax":
        u = -np.stack([_kl_rows(o.dist.probs, L.matrix) for o in observations])
        with np.errstate(invalid="ignore"):
            gaps = np.max(u, axis=1, keepdims=True) - u
        speaker_residual = float(np.fmax.reduce(gaps[S.matrix > 0], initial=0.0))
    else:
        ideal = dense_speaker_response(L, observations, menu, "softmax", lam)
        speaker_residual = float(np.max(np.abs(S.matrix - ideal.matrix)))
    fallback = ListenerStrategy(*_literal_rows(prior, menu)) if fallback_on else None
    bayes = dense_listener_response(S, observations, weights, fallback)
    listener_residual = float(np.max(np.abs(L.matrix - bayes.matrix)))
    return FixedPointReport(speaker_residual <= 1e-9, listener_residual <= 1e-9,
                            speaker_residual, listener_residual)


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:  # every library error here is one
        return type(e), str(e)


#: (n, lo, hi): on 0..n-1 with a uniform prior, L0's row for "between lo
#: and hi" sums to 1 + 2**-52, so its Bayes row (the row over its sum) reads
#: a hair worse to a speaker who holds that very row than the literal row of
#: an unsent synonym: hard-max IBR then cycles with period 2
RESCALED_ROWS = ((6, 0, 5), (7, 0, 5), (7, 1, 6), (10, 1, 9), (10, 3, 8))


@st.composite
def recursion_cases(draw):
    """Small scenarios for iterate: zero cells in the x prior and in the
    observations, observations on one support mask or on several, repeated
    menu messages, and (half the cases) a speaker holding a RESCALED_ROWS
    literal row next to a synonym of its message."""
    synonyms = draw(st.booleans())
    if synonyms:
        n, lo, hi = draw(st.sampled_from(RESCALED_ROWS))
    else:
        n = draw(st.integers(min_value=1, max_value=6))
    grid = np.arange(float(n))
    x = uniform(grid) if synonyms or draw(st.booleans()) else \
        Dist(grid, draw(stochastic_rows(1, n))[0])
    prior = IndependentPrior(x, {"around": uniform(np.arange(3.0))})
    pool = precise_alternatives(grid) + vague_alternatives(grid, "around")
    menu = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    menu.insert(draw(st.integers(min_value=0, max_value=len(menu))), Between(0.0, n - 1.0))
    n_obs = draw(st.integers(min_value=1, max_value=3))
    rows = draw(stochastic_rows(n_obs, n))
    if draw(st.booleans()):  # one support mask for every observation
        positive = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                                 min_size=n_obs * n, max_size=n_obs * n))
        rows = np.where(rows[0] > 0, np.reshape(positive, (n_obs, n)), 0.0)
        rows /= rows.sum(axis=1, keepdims=True)
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                            min_size=n_obs, max_size=n_obs).filter(any))
    if synonyms:
        m = Between(float(lo), float(hi))
        rows[0] = literal_listener_strategy(prior, [m]).matrix[0]
        for synonym in (m, AtLeast(float(lo)) if hi == n - 1 else m):
            menu.insert(draw(st.integers(min_value=0, max_value=len(menu))), synonym)
        weights = [1.0] + [0.0] * (n_obs - 1)  # the others send, but move no row
    observations = [Observation(f"o{i}", Dist(grid, row)) for i, row in enumerate(rows)]
    return prior, menu, observations, weights


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

    def test_observations_on_different_grids_raise(self):
        o1 = Observation("a", uniform(np.arange(3.0)))
        o2 = Observation("b", uniform(np.arange(10.0, 13.0)))
        S = SpeakerStrategy(("a", "b"), np.array([[1.0], [1.0]]))
        with pytest.raises(SupportMismatch, match="one grid"):
            listener_response(S, [o1, o2], [0.5, 0.5], fallback=None)

    def test_fallback_on_another_grid_raises(self):
        o = Observation("a", uniform(np.arange(2.0)))
        S = SpeakerStrategy(("a",), np.array([[1.0, 0.0]]))
        fallback = ListenerStrategy(np.arange(1.0, 3.0), np.full((2, 2), 0.5))
        with pytest.raises(SupportMismatch, match="one grid"):
            listener_response(S, [o], [1.0], fallback)

    @pytest.mark.parametrize("speaker_rows, fallback_rows", [(2, 2), (1, 3)])
    def test_shapes_that_do_not_fit_raise(self, speaker_rows, fallback_rows):
        grid = np.arange(2.0)
        o = Observation("a", uniform(grid))
        S = SpeakerStrategy(("a",) * speaker_rows, np.tile([1.0, 0.0], (speaker_rows, 1)))
        fallback = ListenerStrategy(grid, np.full((fallback_rows, 2), 0.5))
        with pytest.raises(ValueError, match="^speaker needs one row per observation"):
            listener_response(S, [o], [1.0], fallback)

    def test_dead_message_without_fallback_raises(self):
        grid = np.arange(2.0)
        o = Observation("a", Dist(grid, [1.0, 0.0]))
        S = SpeakerStrategy(("a",), np.array([[1.0, 0.0]]))
        with pytest.raises(DeadMessageNoFallback):
            listener_response(S, [o], [1.0], fallback=None)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bayes_rows_match_the_dense_product_bit_for_bit(self, data):
        # the product is taken only for the messages S uses; with one used
        # message numpy would hand it to gemv, which rounds otherwise than
        # the gemm of the full product
        n = data.draw(st.sampled_from([1, 2, 3, 6]))
        n_msgs = data.draw(st.integers(min_value=1, max_value=9))
        n_obs = data.draw(st.integers(min_value=1, max_value=4))
        grid = np.arange(float(n))
        obs = [Observation(f"o{i}", Dist(grid, row))
               for i, row in enumerate(data.draw(stochastic_rows(n_obs, n)))]
        used = data.draw(st.sampled_from(["any", "one", "all but one"]))
        j = data.draw(st.integers(min_value=0, max_value=n_msgs - 1))
        if used == "one":  # rows a hair off 1
            rows = np.zeros((n_obs, n_msgs))
            rows[:, j] = data.draw(st.lists(st.floats(min_value=1 - 5e-10, max_value=1 + 5e-10),
                                            min_size=n_obs, max_size=n_obs))
        else:
            rows = data.draw(stochastic_rows(n_obs, n_msgs))
            if used == "all but one" and n_msgs > 1:
                rows = np.maximum(rows, 0.01)
                rows[:, j] = 0.0
                rows /= rows.sum(axis=1, keepdims=True)
        S = SpeakerStrategy(tuple(o.id for o in obs), rows)
        weights = data.draw(st.lists(st.floats(min_value=0.0, max_value=3.0),
                                     min_size=n_obs, max_size=n_obs).filter(any))
        fallback = ListenerStrategy(grid, data.draw(stochastic_rows(n_msgs, n)))
        for fb in (fallback, None):
            got = outcome(listener_response, S, obs, weights, fb)
            want = outcome(dense_listener_response, S, obs, weights, fb)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.matrix.tobytes() == want.matrix.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(speaker_listener_pairs(), st.sampled_from(["hardmax", "softmax"]))
    def test_caller_arrays_are_left_alone(self, case, mode):
        menu, prior, obs, S, L = case
        fallback = ListenerStrategy(L.grid, L.matrix[::-1])
        arrays = [S.matrix, L.matrix, L.grid, fallback.matrix, fallback.grid]
        before = [(a.tobytes(), a.flags.writeable) for a in arrays]
        got = outcome(listener_response, S, obs, [1.0] * len(obs), fallback)
        outcome(check_fixed_point, S, L, prior, menu, obs, [1.0] * len(obs), mode=mode, lam=2.0)
        assert [(a.tobytes(), a.flags.writeable) for a in arrays] == before
        if not isinstance(got, tuple):
            assert not np.shares_memory(got.matrix, fallback.matrix)
            assert not got.matrix.flags.writeable


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

    def test_empty_observations_are_a_library_error(self, setup):
        prior, menu, obs, _ = setup
        L0 = literal_listener_strategy(prior, menu)
        S = SpeakerStrategy(("o1",), np.eye(1, len(menu)))
        calls = [lambda: iterate(prior, menu, [], []),
                 lambda: iterate(prior, menu, (), [1.0]),
                 lambda: listener_response(S, [], [], L0),
                 lambda: check_fixed_point(S, L0, prior, menu, [], []),
                 lambda: expected_utility(S, L0, [], [])]
        for call in calls:
            with pytest.raises(ValueError, match="^observations must be nonempty$"):
                call()

    def test_no_fallback_mode_runs_when_nothing_dies(self):
        # single message menu: it is always sent, fallback never needed
        prior = table_prior()
        menu = [Between(10.0, 70.0)]
        obs = [Observation("o1", Dist(GRID, P_O))]
        trace = iterate(prior, menu, obs, [1.0], dead_message_fallback=False)
        assert trace.converged

    @settings(max_examples=300, deadline=None)
    @given(recursion_cases(), st.sampled_from([("hardmax", None)] * 3 + [("softmax", 0.5),
                                               ("softmax", 4.0), ("softmax", 50.0)]),
           st.sampled_from([True, True, False]), st.integers(min_value=1, max_value=6))
    def test_levels_match_the_dense_recursion_bit_for_bit(self, case, mode_lam,
                                                          fallback_on, max_levels):
        prior, menu, obs, weights = case
        mode, lam = mode_lam
        want = outcome(dense_iterate, prior, menu, obs, weights, mode, lam, max_levels,
                       fallback_on)
        got = outcome(iterate, prior, menu, obs, weights, mode=mode, lam=lam,
                      max_levels=max_levels, dead_message_fallback=fallback_on)
        if isinstance(want, tuple):
            assert got == want
            return
        assert len(got.levels) == len(want.levels)
        for (s_got, l_got), (s_want, l_want) in zip(got.levels, want.levels):
            if s_want is None:
                assert s_got is None
            else:
                assert s_got.obs_ids == s_want.obs_ids
                assert s_got.matrix.shape == s_want.matrix.shape
                assert s_got.matrix.tobytes() == s_want.matrix.tobytes()
                assert not s_got.matrix.flags.writeable
            assert l_got.grid.tobytes() == l_want.grid.tobytes()
            assert l_got.matrix.shape == l_want.matrix.shape
            assert l_got.matrix.tobytes() == l_want.matrix.tobytes()
            assert not (l_got.matrix.flags.writeable or l_got.grid.flags.writeable)
        assert np.array(got.residuals).tobytes() == np.array(want.residuals).tobytes()
        assert (got.converged, got.fixed_point_level, got.cycle_detected) == \
            (want.converged, want.fixed_point_level, want.cycle_detected)
        S, L = got.final
        for check_mode in ("hardmax", "softmax"):
            lam_or_default = 4.0 if lam is None else lam
            assert repr(outcome(check_fixed_point, S, L, prior, menu, obs, weights,
                                mode=check_mode, lam=lam_or_default,
                                dead_message_fallback=fallback_on)) == \
                repr(outcome(dense_check, S, L, prior, menu, obs, weights, check_mode,
                             lam_or_default, fallback_on))

    @settings(max_examples=150, deadline=None)
    @given(recursion_cases(), st.sampled_from([("hardmax", None), ("softmax", 4.0)]),
           st.booleans(), st.data())
    def test_a_menu_reads_as_the_list_of_its_messages(self, case, mode_lam, fallback_on,
                                                      data):
        # builder rows before the case's own messages, so that the Menu holds
        # array rows and objects; the list holds the messages it reads as
        prior, user, obs, weights = case
        grid = prior.x.support
        pool = precise_alternatives(grid) + vague_alternatives(grid, "around")
        menu = pool[:data.draw(st.integers(min_value=0, max_value=len(pool)))] + user
        mode, lam = mode_lam
        traces = [outcome(iterate, prior, m, obs, weights, mode=mode, lam=lam, max_levels=4,
                          dead_message_fallback=fallback_on) for m in (menu, list(menu))]
        if isinstance(traces[1], tuple):
            assert traces[0] == traces[1]
            return
        got, want = traces
        assert got.menu is menu and want.menu == tuple(menu)
        assert [(s is None or s.matrix.tobytes(), l.matrix.tobytes()) for s, l in got.levels] == \
            [(s is None or s.matrix.tobytes(), l.matrix.tobytes()) for s, l in want.levels]
        assert (got.residuals, got.converged, got.fixed_point_level, got.cycle_detected) == \
            (want.residuals, want.converged, want.fixed_point_level, want.cycle_detected)
        S, L = got.final
        for check_menu in (menu, list(menu)):
            assert repr(outcome(check_fixed_point, S, L, prior, check_menu, obs, weights,
                                mode=mode, lam=lam, dead_message_fallback=fallback_on)) == \
                repr(outcome(check_fixed_point, S, L, prior, list(menu), obs, weights,
                             mode=mode, lam=lam, dead_message_fallback=fallback_on))

    @settings(max_examples=150, deadline=None)
    @given(recursion_cases(), st.sampled_from(["same menu", "equal menu", "user listener"]),
           st.booleans(), st.data())
    def test_check_matches_the_dense_check_whatever_l0_it_reads(self, case, source,
                                                                 fallback_on, data):
        # the check reads iterate's own L0 (same menu), a fresh one (an equal
        # copy of the menu), or checks a listener the caller made; it must
        # leave the trace's L0, which it copies, as it was
        prior, menu, obs, weights = case
        trace = outcome(iterate, prior, menu, obs, weights, max_levels=3)
        if isinstance(trace, tuple):
            return
        S, L = trace.final
        L0 = trace.levels[0][1].matrix
        before = L0.tobytes()
        check_menu = menu
        if source == "equal menu":
            check_menu = [copy.copy(m) for m in menu]
            assert check_menu == menu and all(a is not b for a, b in zip(check_menu, menu))
        elif source == "user listener":
            L = ListenerStrategy(L.grid, data.draw(stochastic_rows(len(menu), L.grid.size)))
        for mode, lam in (("hardmax", None), ("softmax", 4.0)):
            assert repr(outcome(check_fixed_point, S, L, prior, check_menu, obs, weights,
                                mode=mode, lam=lam, dead_message_fallback=fallback_on)) == \
                repr(outcome(dense_check, S, L, prior, menu, obs, weights, mode, lam,
                             fallback_on))
        assert L0.tobytes() == before and not L0.flags.writeable

    def test_synonym_with_a_rescaled_row_cycles_with_period_two(self):
        # L0's row for "between 0 and 5" on 0..5 sums to 1 + 2**-52, so the
        # Bayes row (that row divided by its sum) reads a hair worse than the
        # literal row of the unsent synonym, which wins level 2; level 3
        # returns to level 1
        grid = np.arange(6.0)
        prior = IndependentPrior(uniform(grid))
        menu = [Between(0.0, 5.0), AtLeast(0.0)]
        row = literal_listener_strategy(prior, menu).matrix[0]
        obs = [Observation("o", Dist(grid, row))]
        trace = iterate(prior, menu, obs, [1.0])
        want = dense_iterate(prior, menu, obs, [1.0], "hardmax", None, 20, True)
        assert trace.cycle_detected and want.cycle_detected
        assert not trace.converged
        assert [s.message_index("o") for s, _ in trace.levels[1:]] == [0, 1, 0]
        assert [l.matrix.tobytes() for _, l in trace.levels] == \
            [l.matrix.tobytes() for _, l in want.levels]

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


@st.composite
def keyed_levels(draw):
    """(L0, [(S, L, sent), (S, L, sent)]): two levels whose unsent rows are
    L0's; sent rows are L0's row, a copy a hair off it, or a new row."""
    n, n_msgs = draw(st.integers(min_value=1, max_value=4)), draw(st.integers(1, 5))
    L0 = ListenerStrategy(np.arange(float(n)), draw(stochastic_rows(n_msgs, n)))
    levels = []
    for _ in range(2):
        S = SpeakerStrategy(("o",), draw(st.sampled_from(list(np.eye(n_msgs))))[None, :])
        sent = np.array(draw(st.lists(st.booleans(), min_size=n_msgs, max_size=n_msgs)))
        matrix = L0.matrix.copy()
        for j in np.flatnonzero(sent):
            how = draw(st.sampled_from(["same", "hair", "new"]))
            if how == "hair":
                matrix[j] = L0.matrix[j] + draw(st.sampled_from([1e-14, 4e-13, 6e-13, 2e-12]))
            elif how == "new":
                matrix[j] = draw(stochastic_rows(1, n))[0]
        levels.append((S, ListenerStrategy(L0.grid, matrix), sent))
    return L0, levels


def test_a_run_on_builder_menus_builds_messages_only_to_break_ties(monkeypatch):
    # the precise + around menu on 41 points, hard-max iterate and its check:
    # every message object is made by a constructor, and only the hard-max
    # tie-break between equally good messages reads one
    built, tied = [], []
    for cls in (Exact, Between, Around):
        def counted(self, *args, _init=cls.__init__):
            built.append(type(self))
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    tiebreak = ibr._argmax_with_tiebreak

    def counted_ties(menu, u):
        n = int(np.count_nonzero(u == np.max(u)))
        tied.append(n if n > 1 else 0)
        return tiebreak(menu, u)

    monkeypatch.setattr(ibr, "_argmax_with_tiebreak", counted_ties)
    grid = np.arange(0.0, 41.0)
    prior = IndependentPrior(uniform(grid), {"around": uniform(np.arange(0.0, 21.0))})
    rng = np.random.default_rng(5)
    tents = [rng.random(41) * (np.abs(grid - c) < 6) for c in (12.0, 27.0)]
    obs = [Observation(f"o{i}", Dist(grid, w / w.sum())) for i, w in enumerate(tents)]
    menu = precise_alternatives(grid) + vague_alternatives(grid, "around")
    trace = iterate(prior, menu, obs, [0.5, 0.5])
    assert check_fixed_point(*trace.final, prior, menu, obs, [0.5, 0.5]).ok
    assert len(tied) >= 2 and len(built) <= sum(tied)


class TestCycleKey:
    @settings(max_examples=300)
    @given(keyed_levels())
    def test_sent_row_key_matches_the_full_key(self, case):
        L0, ((S1, L1, sent1), (S2, L2, sent2)) = case
        for L, sent in ((L1, sent1), (L2, sent2)):  # the unsent rows are L0's
            assert L.matrix[~sent].tobytes() == L0.matrix[~sent].tobytes()
        assert (_cycle_key(S1, L1, L0, sent1) == _cycle_key(S2, L2, L0, sent2)) == \
            (_quantized_key(_QUANTUM, S1.matrix, L1.matrix)
             == _quantized_key(_QUANTUM, S2.matrix, L2.matrix))


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

    def test_speaker_wider_than_listener_raises(self):
        o = Observation("a", uniform(np.arange(2.0)))
        S = SpeakerStrategy(("a",), np.array([[0.0, 1.0]]))
        L = ListenerStrategy(np.arange(2.0), np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="^speaker needs one row per observation"):
            expected_utility(S, L, [o], [1.0])

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

    @pytest.mark.parametrize("mode", ["hardmax", "softmax"])
    @pytest.mark.parametrize("speaker_shape, listener_rows", [((1, 3), 1), ((1, 2), 3),
                                                              ((1, 4), 3), ((2, 3), 3)])
    def test_shapes_that_do_not_fit_raise(self, mode, speaker_shape, listener_rows):
        grid = np.arange(2.0)
        prior = IndependentPrior(uniform(grid))
        menu = [AtLeast(0.0), Between(0.0, 1.0), AtMost(1.0)]
        o = Observation("a", uniform(grid))
        S = SpeakerStrategy(("a",) * speaker_shape[0], np.eye(*speaker_shape))
        L = ListenerStrategy(grid, np.full((listener_rows, 2), 0.5))
        with pytest.raises(ValueError, match="^speaker needs one row per observation"):
            check_fixed_point(S, L, prior, menu, [o], [1.0], mode=mode, lam=2.0)

    def test_mode_validation(self, setup):
        prior, menu, obs, weights = setup
        trace = iterate(prior, menu, obs, weights)
        S, L = trace.final
        with pytest.raises(ValueError):
            check_fixed_point(S, L, prior, menu, obs, weights, mode="argmax")
