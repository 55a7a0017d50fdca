import copy
import hashlib
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaguetalk import (BudgetExceeded, Game, MissingQuestion, MixedProfile,
                       NotEnoughMessages, PreferenceHeterogeneity,
                       babbling_profile, dominance_batch,
                       enumerate_pure_equilibria, expected_payoff,
                       generate_mixed_candidates, is_nash,
                       mixed_dominance_check, precisify, pure_profile,
                       question_precision, random_game, speaker_meaning)
from vaguetalk import games
from vaguetalk.games import (_DYNAMICS, _TIE_TOL, DimensionMismatch, ProfileStack,
                             _allowed_messages, _bayes, _count_by_blocks,
                             _count_by_subsets, _dynamics_candidates, _receiver_map_blocks)


def heights_game():
    return Game(
        states=("180", "185", "190"),
        prior=[1 / 3, 1 / 3, 1 / 3],
        messages=("short", "tall"),
        actions=("g180", "g185", "g190"),
        payoff=np.eye(3),
    )


def question_game():
    # "is h3 the case?": cell 0 = {h3}, cell 1 = {h1, h2}
    return Game(
        states=("h1", "h2", "h3"),
        prior=[1 / 3, 1 / 3, 1 / 3],
        messages=("m", "mprime"),
        actions=("act_h3", "act_h12"),
        payoff=[[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
        question=((2,), (0, 1)),
    )


def tied_game(seed, largest=(5, 4, 4)):
    """Seeded game from 1x1x1 up to `largest` states x messages x actions.

    Every other game copies one payoff column onto another (exact ties
    between actions, hence between messages), and every third one gives a
    state zero prior (an unconstrained sender row).
    """
    rng = np.random.default_rng([seed, 8])
    n_s, n_m, n_a = (int(rng.integers(1, hi + 1)) for hi in largest)
    weights = rng.random(n_s) + 0.05
    if seed % 3 == 0 and n_s > 1:
        weights[rng.integers(n_s)] = 0.0
    payoff = rng.random((n_s, n_a))
    if seed % 2 == 0 and n_a > 1:
        source, target = rng.choice(n_a, 2, replace=False)
        payoff[:, target] = payoff[:, source]
    return Game(states=tuple(f"s{i}" for i in range(n_s)),
                prior=weights / weights.sum(),
                messages=tuple(f"m{i}" for i in range(n_m)),
                actions=tuple(f"a{i}" for i in range(n_a)),
                payoff=payoff)


def pure_maps(profile):
    return (tuple(map(int, profile.sender.argmax(axis=1))),
            tuple(map(int, profile.receiver.argmax(axis=1))))


def oracle_is_pure_nash(g, sender_map, receiver_map, tol=1e-9):
    """Slow restatement of the equilibrium conditions, loops only."""
    def sender_value(s, m):
        return g.payoff[s][receiver_map[m]]

    for s in range(g.n_states):
        if g.prior[s] <= 0:
            continue
        got = sender_value(s, sender_map[s])
        if any(sender_value(s, m) > got + tol for m in range(g.n_messages)):
            return False
    for m in range(g.n_messages):
        senders = [s for s in range(g.n_states)
                   if sender_map[s] == m and g.prior[s] > 0]
        if not senders:
            continue
        z = sum(g.prior[s] for s in senders)
        values = [sum(g.prior[s] / z * g.payoff[s][a] for s in senders)
                  for a in range(g.n_actions)]
        if max(values) > values[receiver_map[m]] + tol:
            return False
    return True


def oracle_enumerate(g):
    found = []
    for sm in itertools.product(range(g.n_messages), repeat=g.n_states):
        for rm in itertools.product(range(g.n_actions), repeat=g.n_messages):
            if oracle_is_pure_nash(g, sm, rm):
                pay = sum(g.prior[s] * g.payoff[s][rm[sm[s]]]
                          for s in range(g.n_states))
                found.append((sm, rm, pay))
    return found


class TestGameValidation:
    def test_prior_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Game(("a", "b"), [0.6, 0.6], ("m",), ("x",), [[1.0], [1.0]])

    def test_payoff_shape(self):
        with pytest.raises(ValueError):
            Game(("a", "b"), [0.5, 0.5], ("m",), ("x",), [[1.0]])

    def test_question_must_partition(self):
        with pytest.raises(ValueError):
            Game(("a", "b"), [0.5, 0.5], ("m", "n"), ("x",),
                 [[1.0], [1.0]], question=((0,),))
        with pytest.raises(ValueError):
            Game(("a", "b"), [0.5, 0.5], ("m", "n"), ("x",),
                 [[1.0], [1.0]], question=((0, 1), (1,)))

    def test_profile_rows_stochastic(self):
        with pytest.raises(ValueError):
            MixedProfile([[0.5, 0.4]], [[1.0]])

    def test_profile_dims_must_chain(self):
        with pytest.raises(ValueError):
            MixedProfile([[1.0, 0.0]], [[1.0], [0.5], [0.5]])


class TestPayoffAndNash:
    def test_separating_identity_game(self):
        g = Game(("a", "b"), [0.5, 0.5], ("m0", "m1"), ("x", "y"), np.eye(2))
        p = pure_profile(g, [0, 1], [0, 1])
        assert expected_payoff(g, p) == 1.0
        assert is_nash(g, p).ok

    def test_pooling_payoff(self):
        g = Game(("a", "b"), [0.5, 0.5], ("m0", "m1"), ("x", "y"), np.eye(2))
        p = pure_profile(g, [0, 0], [0, 0])
        assert expected_payoff(g, p) == 0.5
        assert is_nash(g, p).ok  # weakly: no strict deviation exists

    def test_sender_deviation_witness(self):
        g = Game(("a", "b"), [0.5, 0.5], ("m0", "m1"), ("x", "y"), np.eye(2))
        # receiver separates but sender a sends the wrong message
        p = pure_profile(g, [1, 1], [0, 1])
        r = is_nash(g, p)
        assert not r.ok
        assert r.witness.role == "sender"
        assert r.witness.at == 0
        assert r.witness.switch_to == 0
        assert r.witness.gain == 1.0

    def test_receiver_deviation_witness(self):
        g = Game(("a", "b"), [0.9, 0.1], ("m0", "m1"), ("x", "y"), np.eye(2))
        # both messages answered with y: the sender cannot gain by
        # switching, but y is wrong against the pooled posterior
        p = pure_profile(g, [0, 0], [1, 1])
        r = is_nash(g, p)
        assert not r.ok
        assert r.witness.role == "receiver"
        assert r.witness.at == 0
        assert r.witness.switch_to == 0
        assert r.witness.gain == pytest.approx(0.8, abs=1e-12)

    def test_mixed_payoff_by_hand(self):
        g = heights_game()
        p = MixedProfile([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
                         [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        # state 180 guessed right, 185 never, 190 always
        assert expected_payoff(g, p) == pytest.approx(2 / 3, abs=1e-12)

    def test_nash_result_is_truthy(self):
        g = heights_game()
        assert bool(is_nash(g, babbling_profile(g)))


class TestEnumeration:
    def test_matches_slow_oracle_on_heights(self):
        g = heights_game()
        fast = enumerate_pure_equilibria(g)
        slow = oracle_enumerate(g)
        assert len(fast) == len(slow) == 18
        assert fast[0][1] == pytest.approx(2 / 3, abs=1e-12)
        assert max(p for _, _, p in slow) == pytest.approx(2 / 3, abs=1e-12)

    def test_sorted_best_first(self):
        g = heights_game()
        payoffs = [p for _, p in enumerate_pure_equilibria(g)]
        assert payoffs == sorted(payoffs, reverse=True)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_slow_oracle_on_random_games(self, seed):
        rng = np.random.default_rng(seed)
        g = random_game([seed], int(rng.integers(2, 4)),
                        int(rng.integers(2, 3)), int(rng.integers(2, 4)))
        fast = enumerate_pure_equilibria(g)
        slow = oracle_enumerate(g)
        assert len(fast) == len(slow)
        for profile, payoff in fast:
            assert is_nash(g, profile).ok
            assert expected_payoff(g, profile) == pytest.approx(payoff, abs=1e-12)

    def test_matches_slow_oracle_with_ties_and_zero_priors(self):
        for seed in range(300):
            g = tied_game(seed, (3, 3, 3))
            fast = enumerate_pure_equilibria(g)
            slow = {(sm, rm): pay for sm, rm, pay in oracle_enumerate(g)}
            maps = [pure_maps(profile) for profile, _ in fast]
            assert set(maps) == set(slow), seed
            for key, (_, payoff) in zip(maps, fast):
                assert abs(payoff - slow[key]) <= 1e-12, (seed, key)
            # best first, ties broken by sender map, then receiver map
            keys = [(-payoff, *key) for key, (_, payoff) in zip(maps, fast)]
            assert keys == sorted(keys), seed

    def test_best_payoff_is_the_common_interest_optimum(self):
        """A global maximiser of the shared payoff is a pure equilibrium, so
        the best one is worth the max over receiver maps R of
        sum_s prior_s * max_m payoff[s, R[m]]."""
        for seed in range(300):
            rng = np.random.default_rng([seed, 5])
            n_s, n_m, n_a = (int(rng.integers(1, hi + 1)) for hi in (5, 4, 4))
            g = random_game([seed, 6], n_s, n_m, n_a)
            prior, payoff = g.prior.tolist(), g.payoff.tolist()
            optimum = max(
                sum(p * max(row[a] for a in rm) for p, row in zip(prior, payoff))
                for rm in itertools.product(range(n_a), repeat=n_m))
            assert abs(enumerate_pure_equilibria(g)[0][1] - optimum) <= 1e-9, (seed, n_s, n_m, n_a)

    def test_single_state_game(self):
        g = Game(("only",), [1.0], ("m",), ("bad", "good"), [[0.0, 1.0]])
        eqs = enumerate_pure_equilibria(g)
        assert all(pay == 1.0 for _, pay in eqs)

    def test_budget(self):
        g = heights_game()
        with pytest.raises(BudgetExceeded):
            enumerate_pure_equilibria(g, budget=10)

    def test_too_many_equilibria_stop_before_any_profile_is_built(self):
        # constant payoffs make all 2^21 * 2^2 = 8.4 M profiles, inside the
        # search budget, equilibria; returning them would take about 10 GB
        g = Game(tuple(f"s{i}" for i in range(21)), np.full(21, 1 / 21), ("m0", "m1"),
                 ("x0", "x1"), np.ones((21, 2)))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="^pure equilibria exceed the result budget"):
                enumerate_pure_equilibria(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestBabbling:
    def test_always_nash(self):
        for seed in range(25):
            g = random_game([seed], 3, 2, 3)
            p = babbling_profile(g)
            assert is_nash(g, p).ok

    def test_payoff_is_best_prior_action(self):
        g = heights_game()
        p = babbling_profile(g)
        best_prior = max(float(g.prior @ g.payoff[:, a])
                         for a in range(g.n_actions))
        assert expected_payoff(g, p) == pytest.approx(best_prior, abs=1e-12)


class TestDominance:
    def test_classic_mixed_equilibrium_passes(self):
        g = heights_game()
        p = MixedProfile([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
                         [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert is_nash(g, p).ok
        report = mixed_dominance_check(g, [p])
        assert report.best_pure_payoff == pytest.approx(2 / 3, abs=1e-12)
        assert report.n_pure_equilibria == 18
        entry = report.entries[0]
        assert entry.verdict == "PASS"
        assert entry.payoff <= report.best_pure_payoff + 1e-7
        assert entry.support_spread <= 1e-7
        assert report.all_pass
        assert report.n_verified == 1

    def test_non_equilibrium_is_flagged_not_failed(self):
        g = heights_game()
        bad = MixedProfile([[0.5, 0.5]] * 3,
                           [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        report = mixed_dominance_check(g, [bad])
        assert report.entries[0].verdict == "NOT-EQUILIBRIUM"
        assert report.n_verified == 0
        assert report.all_pass  # non-equilibria do not count against the claim

    def test_candidates_are_valid_profiles(self):
        g = heights_game()
        cands = generate_mixed_candidates(g, np.random.default_rng(0))
        assert len(cands) >= 1
        for p in cands:
            assert p.sender.shape == (3, 2)
            assert p.receiver.shape == (2, 3)

    def test_candidates_include_babbling(self):
        g = heights_game()
        cands = generate_mixed_candidates(g, np.random.default_rng(0))
        b = babbling_profile(g)
        assert any(np.allclose(c.sender, b.sender)
                   and np.allclose(c.receiver, b.receiver) for c in cands)

    def test_candidates_stop_building_receiver_maps_at_the_cap(self):
        # in a 2 x 6 x 6 game every receiver map that sends two messages to
        # one action ties, so the 200-candidate cap comes within the first
        # block of receiver maps; building all 6^6 of them and their
        # weightings first peaked near 100 MB
        g = Game(states=("a", "b"), prior=np.array([0.5, 0.5]),
                 messages=tuple("m%d" % i for i in range(6)),
                 actions=tuple("x%d" % i for i in range(6)), payoff=np.eye(2, 6))
        tracemalloc.start()
        try:
            cands = generate_mixed_candidates(g, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cands) == 200
        assert peak < 10e6

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            mixed_dominance_check(heights_game(), [])

    def test_batch_deterministic(self):
        a = dominance_batch(10, seed=123)
        b = dominance_batch(10, seed=123)
        assert a.n_candidates == b.n_candidates
        assert a.n_verified == b.n_verified
        assert a.all_pass and b.all_pass

    def test_batch_candidate_family_is_pinned(self):
        # counts of the generated family on a fixed batch: any change to
        # the generators or the dedupe shows here
        batch = dominance_batch(40, seed=0)
        assert (batch.n_candidates, batch.n_verified) == (1618, 786)
        assert batch.all_pass

    def test_batch_seed_changes_games(self):
        a = dominance_batch(10, seed=1)
        b = dominance_batch(10, seed=2)
        assert (a.n_candidates, a.n_verified) != (b.n_candidates, b.n_verified)


def reference_spread(g, p):
    """Largest payoff gap inside any positive-prior state's sent support,
    one state at a time."""
    sv = g.payoff @ p.receiver.T
    spread = 0.0
    for s in range(g.n_states):
        if g.prior[s] > 0:
            sent = [sv[s, m] for m in range(g.n_messages) if p.sender[s, m] > 0]
            spread = max(spread, float(max(sent) - min(sent)))
    return spread


def stochastic(rng, n_rows, n_cols, used):
    """Random rows over the columns marked in used, zero elsewhere."""
    m = rng.random((n_rows, n_cols)) * used
    return m / m.sum(axis=1, keepdims=True)


@st.composite
def dominance_cases(draw):
    """A game up to 5 x 4 x 4 and candidates laid out as `game <file>
    dominance` lays them out: hand-made profiles, then the generated ones.

    The games may have zero-prior states and copied payoff columns (exact
    ties); the hand-made profiles leave messages unused, are pure or
    mixed, mostly not equilibria, and include generated candidates whose
    zero-prior rows were redrawn (still equilibria, but only because those
    states are exempt).
    """
    n_s, n_m, n_a = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.random(n_s) + 0.05
    # at most two zero-prior states: each multiplies the pure equilibria by up to n_m
    weights[sorted(draw(st.sets(st.integers(0, n_s - 1), max_size=min(2, n_s - 1))))] = 0.0
    payoff = rng.random((n_s, n_a))
    if n_a > 1 and draw(st.booleans()):
        source, target = rng.choice(n_a, 2, replace=False)
        payoff[:, target] = payoff[:, source]
    g = Game(tuple(f"s{i}" for i in range(n_s)), weights / weights.sum(),
             tuple(f"m{i}" for i in range(n_m)), tuple(f"a{i}" for i in range(n_a)), payoff)
    generated = generate_mixed_candidates(g, rng)
    hand_made = []
    for _ in range(draw(st.integers(0, 4))):
        used = np.zeros(n_m)
        used[rng.choice(n_m, int(rng.integers(1, n_m + 1)), replace=False)] = 1.0
        if draw(st.booleans()):
            sender = np.eye(n_m)[rng.choice(np.flatnonzero(used), n_s)]
            receiver = np.eye(n_a)[rng.integers(n_a, size=n_m)]
        else:
            sender = stochastic(rng, n_s, n_m, used)
            receiver = stochastic(rng, n_m, n_a, np.ones(n_a))
        hand_made.append(MixedProfile(sender, receiver))
    zero = g.prior == 0
    for p in generated[:draw(st.integers(0, 3)) if zero.any() else 0]:
        sender = p.sender.copy()
        sender[zero] = stochastic(rng, int(zero.sum()), n_m, np.ones(n_m))
        hand_made.append(MixedProfile(sender, p.receiver))
    return g, hand_made + generated


class TestStackedCheck:
    """mixed_dominance_check checks all candidates in one stacked pass; each
    entry must equal the one-profile route bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(dominance_cases())
    def test_each_entry_equals_the_one_profile_route(self, case):
        g, candidates = case
        tol = 1e-7
        report = mixed_dominance_check(g, candidates, tol)
        pure = enumerate_pure_equilibria(g)
        assert report.best_pure_payoff == pure[0][1]
        assert report.n_pure_equilibria == len(pure)
        assert len(report.entries) == len(candidates)
        for i, (p, e) in enumerate(zip(candidates, report.entries)):
            assert type(e.index) is int and e.index == i
            assert type(e.payoff) is float
            assert e.payoff.hex() == expected_payoff(g, p).hex()
            assert type(e.nash) is bool and e.nash == is_nash(g, p, tol).ok
            assert type(e.support_spread) is float
            if e.nash:
                assert e.support_spread.hex() == reference_spread(g, p).hex()
                passed = e.payoff <= report.best_pure_payoff + tol and e.support_spread <= tol
                assert e.verdict == ("PASS" if passed else "FAIL")
            else:
                assert math.isnan(e.support_spread)
                assert e.verdict == "NOT-EQUILIBRIUM"


def reference_dynamics(g, rng):
    """The damped dynamics one plain step at a time, with the kernels
    written out as plain numpy: the route _dynamics_candidates must equal
    bit for bit."""
    starts, steps, eta = _DYNAMICS

    def near_best(values):
        return values >= values.max(axis=-1, keepdims=True) - _TIE_TOL

    def uniform_over(mask):
        return mask / mask.sum(axis=-1, keepdims=True)

    def bayes_values(sender):
        use = g.prior @ sender
        used = use > 0
        post = g.prior[:, None] * sender / np.where(used, use, 1.0)[..., None, :]
        post = np.ascontiguousarray(np.swapaxes(post, -1, -2))
        values = (post[..., None, :] @ g.payoff)[..., 0, :]
        values[~used] = g.prior @ g.payoff
        return values

    def sender_values(receiver):
        return g.payoff @ np.swapaxes(receiver, -1, -2)

    def first_best_reply(sender):
        return np.eye(g.n_actions)[bayes_values(sender).argmax(axis=-1)]

    senders, receivers = [], []
    for _ in range(starts):
        sender = rng.random((g.n_states, g.n_messages)) + 1e-3
        senders.append(sender / sender.sum(axis=1, keepdims=True))
        receiver = rng.random((g.n_messages, g.n_actions)) + 1e-3
        receivers.append(receiver / receiver.sum(axis=1, keepdims=True))
    sender, receiver = np.stack(senders), np.stack(receivers)
    for _ in range(steps):
        receiver = (1 - eta) * receiver + eta * uniform_over(near_best(bayes_values(sender)))
        br = uniform_over(near_best(sender_values(receiver)))
        sender = (1 - eta) * sender + eta * br
    mass = sender * near_best(sender_values(first_best_reply(sender)))
    polished = mass / mass.sum(axis=-1, keepdims=True)
    return polished, first_best_reply(polished)


class TestDynamicsStrides:
    """_dynamics_candidates runs its damped steps in strides that guess
    both best-reply masks and keep the prefix they verify; the result must
    equal the plain step-by-step loop bit for bit."""

    @settings(max_examples=250, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 2 ** 32 - 1))
    def test_equals_the_plain_step_loop(self, game_seed, rng_seed):
        g = tied_game(game_seed)  # up to 5 x 4 x 4, ties and zero priors
        [(senders, receivers)] = _dynamics_candidates(g, np.random.default_rng(rng_seed))
        want_senders, want_receivers = reference_dynamics(g, np.random.default_rng(rng_seed))
        assert senders.shape == want_senders.shape and receivers.shape == want_receivers.shape
        assert senders.tobytes() == want_senders.tobytes()
        assert receivers.tobytes() == want_receivers.tobytes()


class TestBayesStack:
    """_bayes of a sender stack equals _bayes of each slice alone, whether
    or not the slice leaves a message unused."""

    def game(self):
        return Game(states=("s0", "s1", "s2", "s3"), prior=np.array([0.3, 0.0, 0.5, 0.2]),
                    messages=("m0", "m1", "m2"), actions=("a0", "a1", "a2"),
                    payoff=np.random.default_rng(4).random((4, 3)))

    def stack(self, seed):
        rng = np.random.default_rng(seed)
        senders = rng.random((6, 4, 3)) + 0.01
        senders[1, :, 2] = 0.0  # m2 unused
        senders[3, :, 0] = 0.0  # m0 unused ...
        senders[3, :, 2] = 0.0
        senders[3, 1] = [0.0, 0.0, 1.0]  # ... and m2 sent only by the zero-prior state
        senders[4, :, 1:] = 0.0  # only m0 used
        return senders / senders.sum(axis=-1, keepdims=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_each_slice_equals_its_own_call(self, seed):
        g, senders = self.game(), self.stack(seed)
        use, values = _bayes(g, senders)
        unused = use == 0
        assert unused.any(axis=-1).tolist() == [False, True, False, True, True, False]
        assert unused[3].tolist() == [True, False, True]
        for k, sender in enumerate(senders):
            want_use, want_values = _bayes(g, sender)
            assert use[k].tobytes() == want_use.tobytes()
            assert values[k].tobytes() == want_values.tobytes()
        prior_values = g.prior @ g.payoff
        for k, m in zip(*np.nonzero(unused)):
            assert values[k, m].tobytes() == prior_values.tobytes()
        # a second batch axis, as the strided dynamics use, changes nothing
        use4, values4 = _bayes(g, senders.reshape(2, 3, 4, 3))
        assert use4.tobytes() == use.tobytes() and values4.tobytes() == values.tobytes()

    def test_used_rows_equal_each_posterior_times_payoff(self):
        g, senders = self.game(), self.stack(0)
        use, values = _bayes(g, senders)
        for k, m in zip(*np.nonzero(use > 0)):
            posterior = g.prior * senders[k, :, m] / use[k, m]
            assert values[k, m].tobytes() == (posterior @ g.payoff).tobytes()


class TestDominanceErrors:
    def wide_game(self):
        # 10^2 * 10^10 pure profiles, over ENUMERATION_BUDGET
        return Game(("a", "b"), [0.5, 0.5], tuple(f"m{i}" for i in range(10)),
                    tuple(f"x{i}" for i in range(10)), np.eye(2, 10))

    def test_budget_is_checked_before_any_candidate_is_read(self):
        class Unreadable(list):
            def __iter__(self):
                raise AssertionError("a candidate was read")

            def __getitem__(self, i):
                raise AssertionError("a candidate was read")

        wrong_shape = MixedProfile(np.eye(2), np.eye(2))
        for candidates in (Unreadable([wrong_shape]), [wrong_shape]):
            with pytest.raises(BudgetExceeded):
                mixed_dominance_check(self.wide_game(), candidates)

    @pytest.mark.parametrize("k", [1, 3])
    def test_the_first_wrong_shape_is_reported(self, k):
        g = heights_game()
        good = generate_mixed_candidates(g, np.random.default_rng(0))[:k]
        first = MixedProfile(np.eye(2), np.eye(2, 3))
        second = MixedProfile(np.full((3, 3), 1 / 3), np.eye(3))
        with pytest.raises(DimensionMismatch) as want:
            expected_payoff(g, first)
        with pytest.raises(DimensionMismatch) as got:
            mixed_dominance_check(g, good + [first, second] + good)
        assert str(got.value) == str(want.value)


class TestProfileStacks:
    def stacks(self, n=4, shape=(3, 2, 4)):
        rng = np.random.default_rng(n)
        n_s, n_m, n_a = shape
        senders = rng.random((n, n_s, n_m))
        receivers = rng.random((n, n_m, n_a))
        return (senders / senders.sum(axis=2, keepdims=True),
                receivers / receivers.sum(axis=2, keepdims=True))

    def test_equal_to_mixed_profile_and_read_only(self):
        senders, receivers = self.stacks()
        profiles = ProfileStack(senders, receivers)
        assert len(profiles) == len(senders)
        for p, s, r in zip(profiles, senders, receivers):
            q = MixedProfile(s, r)
            assert p.sender.tobytes() == q.sender.tobytes()
            assert p.receiver.tobytes() == q.receiver.tobytes()
            assert p.sender.shape == q.sender.shape and p.receiver.shape == q.receiver.shape
            assert p.sender.dtype == q.sender.dtype and p.receiver.dtype == q.receiver.dtype
            assert not p.sender.flags.writeable and not p.receiver.flags.writeable
            with pytest.raises(ValueError):
                p.sender[0, 0] = 0.5

    @pytest.mark.parametrize("stack", [0, 1])
    @pytest.mark.parametrize("slot", [0, 2, 3])
    @pytest.mark.parametrize("bad", [1.0 + 1e-6, -0.25])
    def test_a_bad_row_anywhere_raises_as_mixed_profile_does(self, stack, slot, bad):
        pair = [m.copy() for m in self.stacks()]
        pair[stack][slot, -1, 0] = bad
        with pytest.raises(ValueError) as expected:
            MixedProfile(pair[0][slot], pair[1][slot])
        with pytest.raises(ValueError) as got:
            ProfileStack(*pair)
        assert str(got.value) == str(expected.value)

    def test_empty_stack(self):
        assert ProfileStack(np.zeros((0, 3, 2)), np.zeros((0, 2, 4))) == []

    def test_dimension_mismatch(self):
        senders, receivers = self.stacks()
        with pytest.raises(DimensionMismatch):
            ProfileStack(senders, receivers[:, :1, :])
        with pytest.raises(ValueError, match="3-d stack"):
            ProfileStack(senders[0], receivers[0])

    def test_a_sequence_of_profiles(self):
        senders, receivers = self.stacks(5)
        stack = ProfileStack(senders, receivers)
        profiles = [MixedProfile(s, r) for s, r in zip(senders, receivers)]
        assert stack == profiles and profiles == stack and stack == tuple(profiles)
        assert stack[-1] is not stack[-1] and stack[np.int64(4)].sender.tobytes() == \
            profiles[4].sender.tobytes()
        assert isinstance(stack[1:4], ProfileStack) and stack[1:4] == profiles[1:4]
        assert stack[::-2] == profiles[::-2] and stack[5:] == []
        assert stack != profiles[:4] and stack != profiles[::-1] and stack != [1, 2, 3, 4, 5]
        assert stack != senders.tolist() and stack != "abcde"
        with pytest.raises(IndexError):
            stack[5]
        with pytest.raises(TypeError):
            stack[1.0]
        # + with a list, tuple or stack on either side gives a list, as list + list does
        def entries(ps):
            return [(p.sender.tobytes(), p.receiver.tobytes()) for p in ps]

        for got, want in ((stack + profiles[:2], profiles + profiles[:2]),
                          (profiles[:2] + stack, profiles[:2] + profiles),
                          (tuple(profiles[:1]) + stack, profiles[:1] + profiles),
                          (stack + stack[:1], profiles + profiles[:1])):
            assert type(got) is list and entries(got) == entries(want)
        with pytest.raises(TypeError):
            stack + np.zeros(1)

    def test_immutable_unhashable_copyable(self):
        stack = ProfileStack(*self.stacks())
        for array in (stack.senders, stack.receivers):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0, 0] = 0.5
        with pytest.raises(AttributeError):
            stack.senders = None
        with pytest.raises(TypeError):
            hash(stack)
        for twin in (copy.copy(stack), copy.deepcopy(stack), pickle.loads(pickle.dumps(stack))):
            assert type(twin) is ProfileStack and twin == stack
            assert not twin.senders.flags.writeable and not twin.receivers.flags.writeable

    def test_the_check_reads_a_stack_as_its_profiles(self):
        for seed in range(6):
            g = tied_game(seed)
            stack = generate_mixed_candidates(g, np.random.default_rng(seed))
            assert type(stack) is ProfileStack
            assert repr(mixed_dominance_check(g, stack)) == \
                repr(mixed_dominance_check(g, list(stack)))

    def test_a_stack_that_does_not_fit_raises_as_expected_payoff_does(self):
        g = heights_game()  # 3 states x 2 messages x 3 actions; the stacks have 4 actions
        stack = ProfileStack(*self.stacks())
        with pytest.raises(DimensionMismatch) as want:
            expected_payoff(g, stack[0])
        with pytest.raises(DimensionMismatch) as got:
            mixed_dominance_check(g, stack)
        assert str(got.value) == str(want.value)


class TestPureCount:
    """mixed_dominance_check counts the pure equilibria, per block of
    receiver maps, by a subset DP or over the sender-map blocks; both
    routes must give enumerate_pure_equilibria's count and best payoff bit
    for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans())
    def test_both_routes_equal_the_enumeration(self, seed, halves):
        g = tied_game(seed)  # 1 x 1 x 1 up to 5 x 4 x 4: one block of receiver maps
        if halves:  # payoffs in halves: sums of states tie as well
            payoff = np.random.default_rng(seed).integers(0, 4, g.payoff.shape) / 2
            g = Game(g.states, g.prior, g.messages, g.actions, payoff)
        pure = enumerate_pure_equilibria(g)
        want = (len(pure), pure[0][1].hex())
        [(maps, sv)] = _receiver_map_blocks(g)
        allowed = _allowed_messages(g, sv, 1e-9)
        count, best = _count_by_blocks(g, 1e-9, maps, sv, allowed)
        assert (count, best.hex()) == want
        count, best = _count_by_subsets(g, 1e-9, maps, sv, allowed)
        assert (count, best.hex()) == want
        report = mixed_dominance_check(g, [babbling_profile(g)])
        assert (report.n_pure_equilibria, report.best_pure_payoff.hex()) == want

    @pytest.mark.parametrize("shape", [(3, 5, 4), (2, 6, 3), (4, 5, 4)])
    @pytest.mark.parametrize("seed", range(2))
    def test_games_of_several_blocks_equal_the_enumeration(self, shape, seed):
        # 3^6 or 4^5 receiver maps: three or four blocks, each counted on its own
        n_s, n_m, n_a = shape
        rng = np.random.default_rng([seed, *shape])
        weights = rng.random(n_s) + 0.05
        weights[0] *= seed  # seed 1 keeps every state, seed 0 zeroes the first
        payoff = rng.random((n_s, n_a))
        payoff[:, 1] = payoff[:, 0]
        g = Game(tuple(range(n_s)), weights / weights.sum(), tuple(range(n_m)),
                 tuple(range(n_a)), payoff)
        pure = enumerate_pure_equilibria(g)
        report = mixed_dominance_check(g, [babbling_profile(g)])
        assert (report.n_pure_equilibria, report.best_pure_payoff.hex()) == \
            (len(pure), pure[0][1].hex())

    @pytest.mark.parametrize("shape", [(6, 3, 3), (7, 3, 2), (8, 2, 3), (9, 2, 3), (10, 2, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_the_dp_equals_the_enumeration_on_larger_games(self, monkeypatch, shape, seed):
        # 6 to 10 states, half-integer payoffs, zero priors, copied columns: the DP's
        # subset sums must add as the one-hot product does on longer rows
        n_s, n_m, n_a = shape
        rng = np.random.default_rng([seed, *shape])
        weights = rng.random(n_s) + 0.05
        weights[0] *= seed % 2  # even seeds give the first state zero prior
        payoff = rng.integers(0, 4, (n_s, n_a)) / 2
        if n_a > 2:  # two equal columns of two would make every profile an equilibrium
            payoff[:, -1] = payoff[:, 0]
        g = Game(tuple(range(n_s)), weights / weights.sum(), tuple(range(n_m)),
                 tuple(range(n_a)), payoff)
        routes = []
        monkeypatch.setattr(games, "_count_by_subsets",
                            lambda *args: routes.append("dp") or _count_by_subsets(*args))
        monkeypatch.setattr(games, "_count_by_blocks",
                            lambda *args: routes.append("blocks") or _count_by_blocks(*args))
        pure = enumerate_pure_equilibria(g)
        report = mixed_dominance_check(g, [babbling_profile(g)])
        assert routes == ["dp"]
        assert (report.n_pure_equilibria, report.best_pure_payoff.hex()) == \
            (len(pure), pure[0][1].hex())

    @pytest.mark.parametrize("check", ["enumerate", "dominance"])
    @pytest.mark.parametrize("n_states, n_messages", [(11, 60), (12, 40)])
    def test_more_sender_maps_than_int64_holds(self, check, n_states, n_messages):
        # 60^11 or 40^12 sender maps, all equilibria, past 2^63: the count
        # must stop at the result budget, not wrap around to "no pure
        # equilibrium" (12 states take the sender-map blocks even in the check)
        g = Game(tuple(range(n_states)), np.full(n_states, 1 / n_states),
                 tuple(range(n_messages)), (0,), np.ones((n_states, 1)))
        with pytest.raises(BudgetExceeded, match="^pure equilibria exceed the result budget"):
            if check == "enumerate":
                enumerate_pure_equilibria(g, budget=10 ** 25)
            else:
                mixed_dominance_check(g, [babbling_profile(g)], budget=10 ** 25)

    def test_budget(self):
        with pytest.raises(BudgetExceeded, match="72 pure profiles exceed budget 10"):
            mixed_dominance_check(heights_game(), [babbling_profile(heights_game())], budget=10)

    def test_too_many_equilibria_stop_the_count_in_bounded_memory(self):
        # the game of TestEnumeration's result-budget test: 8.4 M equilibria
        g = Game(tuple(f"s{i}" for i in range(21)), np.full(21, 1 / 21), ("m0", "m1"),
                 ("x0", "x1"), np.ones((21, 2)))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="^pure equilibria exceed the result budget"):
                mixed_dominance_check(g, [babbling_profile(g)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestPinnedOutput:
    # sha256 of the candidates, dominance reports and pure equilibria of
    # 300 seeded games with exact ties and zero-prior states; any change to
    # a byte of the games half's output shows here
    DIGEST = "4a5b8798fe47946b8c59a0eba23757eb78827430945a29222a01d9fdf8fad04a"

    def test_games_output_is_pinned(self):
        h = hashlib.sha256()
        for seed in range(300):
            g = tied_game(seed)
            candidates = generate_mixed_candidates(g, np.random.default_rng([seed, 9]))
            for c in candidates:
                h.update(c.sender.tobytes() + c.receiver.tobytes())
            h.update(repr(mixed_dominance_check(g, candidates)).encode())
            for profile, payoff in enumerate_pure_equilibria(g):
                h.update(profile.sender.tobytes() + profile.receiver.tobytes())
                h.update(repr(payoff).encode())
        assert h.hexdigest() == self.DIGEST


class TestRandomGame:
    def test_reproducible(self):
        a = random_game([7, 3], 3, 2, 4)
        b = random_game([7, 3], 3, 2, 4)
        assert np.array_equal(a.payoff, b.payoff)
        assert np.array_equal(a.prior, b.prior)

    def test_prior_bounded_away_from_zero(self):
        for seed in range(50):
            g = random_game([seed], 4, 3, 4)
            assert np.all(g.prior > 0.01)


class TestMeaning:
    def test_pure_sender_partitions(self):
        g = heights_game()
        p = pure_profile(g, [0, 0, 1], [0, 2])
        meaning = speaker_meaning(g, p)
        assert meaning.kind == "PARTITION"
        assert meaning.cells == (("short", ("180", "185")), ("tall", ("190",)))

    def test_mixed_sender_covers(self):
        g = heights_game()
        p = MixedProfile([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
                         [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        meaning = speaker_meaning(g, p)
        assert meaning.kind == "COVER"
        cells = dict(meaning.cells)
        assert cells["short"] == ("180", "185")
        assert cells["tall"] == ("185", "190")

    def test_unused_messages_omitted(self):
        g = heights_game()
        p = pure_profile(g, [0, 0, 0], [0, 0])
        meaning = speaker_meaning(g, p)
        assert len(meaning.cells) == 1


class TestQuestionPrecision:
    def test_vague_crossing_strategy(self):
        g = question_game()
        p = pure_profile(g, [0, 1, 0], [0, 1])
        rep = question_precision(g, p)
        assert rep.verdict == "VagueWrtQuestion"
        # prior mass of {h1,h2} is exactly 2/3 in floats
        assert rep.cell_priors[1] == 2 / 3
        after_m = dict(rep.cell_posteriors)["m"]
        assert after_m == (0.5, 0.5)

    def test_aligned_strategy_is_precise(self):
        g = question_game()
        p = pure_profile(g, [1, 1, 0], [0, 1])
        rep = question_precision(g, p)
        assert rep.verdict == "Precise"
        assert is_nash(g, p).ok

    def test_mixing_is_vague(self):
        g = question_game()
        p = MixedProfile([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]],
                         [[1.0, 0.0], [0.0, 1.0]])
        assert question_precision(g, p).verdict == "VagueWrtQuestion"

    def test_missing_question(self):
        g = heights_game()
        with pytest.raises(MissingQuestion):
            question_precision(g, pure_profile(g, [0, 0, 1], [0, 2]))


class TestPrecisify:
    def test_question_game(self):
        g = question_game()
        p = precisify(g)
        assert p.is_pure
        assert question_precision(g, p).verdict == "Precise"
        assert is_nash(g, p).ok
        assert expected_payoff(g, p) == 1.0
        # cell 0 = {h3} speaks message 0, cell 1 = {h1,h2} message 1
        assert np.argmax(p.sender, axis=1).tolist() == [1, 1, 0]
        assert np.argmax(p.receiver, axis=1).tolist() == [0, 1]

    def test_spare_messages_answer_the_prior(self):
        g = Game(
            states=("a", "b"),
            prior=[0.5, 0.5],
            messages=("m0", "m1", "m2"),
            actions=("x", "y"),
            payoff=[[1.0, 0.0], [1.0, 0.0]],
            question=((0,), (1,)),
        )
        p = precisify(g)
        assert is_nash(g, p).ok
        assert np.argmax(p.receiver[2]) == 0  # best against the prior

    def test_heterogeneous_cell_raises(self):
        g = Game(("a", "b"), [0.5, 0.5], ("m", "n"), ("x", "y"),
                 [[1.0, 0.0], [0.0, 1.0]], question=((0, 1),))
        with pytest.raises(PreferenceHeterogeneity):
            precisify(g)

    def test_not_enough_messages(self):
        g = Game(("a", "b"), [0.5, 0.5], ("m",), ("x", "y"),
                 [[1.0, 0.0], [0.0, 1.0]], question=((0,), (1,)))
        with pytest.raises(NotEnoughMessages):
            precisify(g)

    def test_missing_question(self):
        with pytest.raises(MissingQuestion):
            precisify(heights_game())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_homogeneous_games(self, seed):
        # force homogeneity: per-cell payoff rows are copies of one row
        rng = np.random.default_rng(seed)
        n_cells = int(rng.integers(2, 4))
        sizes = [int(rng.integers(1, 3)) for _ in range(n_cells)]
        n_states = sum(sizes)
        n_actions = int(rng.integers(2, 4))
        payoff = np.zeros((n_states, n_actions))
        cells, s = [], 0
        for size in sizes:
            row = rng.random(n_actions)
            cell = tuple(range(s, s + size))
            for i in cell:
                payoff[i] = row
            cells.append(cell)
            s += size
        w = rng.random(n_states) + 0.05
        g = Game(states=tuple(f"s{i}" for i in range(n_states)),
                 prior=w / w.sum(),
                 messages=tuple(f"m{i}" for i in range(n_cells)),
                 actions=tuple(f"a{i}" for i in range(n_actions)),
                 payoff=payoff, question=tuple(cells))
        p = precisify(g)
        assert is_nash(g, p).ok
        assert question_precision(g, p).verdict == "Precise"
