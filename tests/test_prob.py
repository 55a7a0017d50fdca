import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaguetalk import (AllUtilitiesNegativeInfinite, AllZeroWeights, Dist, Exact,
                       ExplicitJointPrior, Game, LengthMismatch, ListenerStrategy,
                       MixedProfile, Observation, Scenario, SpeakerStrategy,
                       SupportMismatch, ValueNotInSupport, kl_divergence,
                       normalize, point_mass, regrid, softmax, surprisal, uniform)
from vaguetalk.prob import _kl_rows
from vaguetalk.scenarios import _plain_kl


@st.composite
def dists(draw, min_size=2, max_size=12):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    weights = draw(st.lists(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        min_size=n, max_size=n))
    w = np.asarray(weights)
    return Dist(np.arange(n, dtype=float), w / w.sum())


@st.composite
def dist_pairs_with_zeros(draw, max_size=12):
    """Two distributions on one grid; either may zero out any value."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    weight = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))
    pair = []
    for _ in range(2):
        w = np.asarray(draw(st.lists(weight, min_size=n, max_size=n)))
        if w.sum() == 0:
            w[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
        pair.append(Dist(np.arange(n, dtype=float), w / w.sum()))
    return tuple(pair)


class TestDist:
    def test_basic_construction(self):
        d = Dist([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        assert len(d) == 3
        assert d.p(1.0) == 0.3
        assert d.index(2.0) == 2
        assert d.mode() == 2.0

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Dist([0.0, 1.0], [0.6, 0.6])
        # tolerance is 1e-9 absolute
        Dist([0.0, 1.0], [0.5, 0.5 + 5e-10])
        with pytest.raises(ValueError):
            Dist([0.0, 1.0], [0.5, 0.5 + 5e-9])

    def test_support_strictly_increasing(self):
        with pytest.raises(ValueError):
            Dist([1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            Dist([2.0, 1.0], [0.5, 0.5])

    def test_negative_prob_rejected(self):
        with pytest.raises(ValueError):
            Dist([0.0, 1.0], [-0.1, 1.1])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            Dist([0.0, 1.0, 2.0], [0.5, 0.5])

    def test_zero_probs_allowed(self):
        d = Dist([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert d.p(0.0) == 0.0

    def test_arrays_are_read_only(self):
        d = uniform([0.0, 1.0])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_index_missing_value(self):
        d = uniform([0.0, 10.0, 20.0])
        with pytest.raises(ValueNotInSupport):
            d.index(5.0)

    def test_mode_breaks_ties_low(self):
        d = Dist([3.0, 7.0], [0.5, 0.5])
        assert d.mode() == 3.0


class TestConstructors:
    def test_normalize(self):
        d = normalize([2.0, 6.0], [0.0, 1.0])
        assert d.probs.tolist() == [0.25, 0.75]

    def test_normalize_all_zero(self):
        with pytest.raises(AllZeroWeights):
            normalize([0.0, 0.0], [0.0, 1.0])

    def test_uniform(self):
        d = uniform(np.arange(0.0, 81.0, 10.0))
        assert np.allclose(d.probs, 1.0 / 9.0)

    def test_point_mass(self):
        d = point_mass([0.0, 10.0, 20.0], 10.0)
        assert d.probs.tolist() == [0.0, 1.0, 0.0]
        with pytest.raises(ValueNotInSupport):
            point_mass([0.0, 10.0], 5.0)

    def test_regrid_extends_with_zeros(self):
        d = Dist([10.0, 20.0], [0.4, 0.6])
        e = regrid(d, [0.0, 10.0, 20.0, 30.0])
        assert e.probs.tolist() == [0.0, 0.4, 0.6, 0.0]

    def test_regrid_refuses_to_drop_mass(self):
        d = Dist([10.0, 20.0], [0.4, 0.6])
        with pytest.raises(SupportMismatch):
            regrid(d, [0.0, 10.0])
        # dropping a zero-mass point is fine
        d2 = Dist([10.0, 20.0], [1.0, 0.0])
        assert regrid(d2, [10.0]).probs.tolist() == [1.0]


class TestKL:
    def test_hand_computed_value(self):
        p = Dist([0.0, 1.0], [0.5, 0.5])
        q = Dist([0.0, 1.0], [0.25, 0.75])
        # 0.5 ln 2 + 0.5 ln(2/3)
        assert kl_divergence(p, q) == pytest.approx(0.1438410362258904, abs=1e-15)
        assert kl_divergence(q, p) == pytest.approx(0.1308120359411371, abs=1e-15)

    def test_natural_log_not_base2(self):
        p = Dist([0.0, 1.0], [0.5, 0.5])
        q = Dist([0.0, 1.0], [0.25, 0.75])
        base2 = 0.5 * math.log2(2.0) + 0.5 * math.log2(2.0 / 3.0)
        assert abs(kl_divergence(p, q) - base2) > 0.04

    def test_zero_p_term_contributes_nothing(self):
        p = Dist([0.0, 1.0, 2.0], [0.5, 0.5, 0.0])
        q = Dist([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)

    def test_infinite_iff_q_zeroes_possible_value(self):
        p = Dist([0.0, 1.0], [0.5, 0.5])
        q = Dist([0.0, 1.0], [1.0, 0.0])
        assert kl_divergence(p, q) == math.inf
        # reversed direction stays finite
        assert math.isfinite(kl_divergence(q, p))

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            kl_divergence(uniform([0.0, 1.0]), uniform([0.0, 2.0]))

    @given(dists(), dists())
    def test_gibbs_inequality(self, p, q):
        if len(p) != len(q):
            return
        q2 = Dist(p.support, q.probs)
        d = kl_divergence(p, q2)
        assert d >= 0.0

    @given(dists())
    def test_self_divergence_is_zero(self, p):
        assert kl_divergence(p, p) == 0.0

    @settings(max_examples=300)
    @given(dist_pairs_with_zeros())
    def test_agrees_with_plain_python_oracle(self, pair):
        p, q = pair
        got = kl_divergence(p, q)
        want = _plain_kl(list(p.probs), list(q.probs))
        assert math.isinf(got) == math.isinf(want)
        if math.isfinite(want):
            assert abs(got - want) <= 1e-12


class TestKLStack:
    @pytest.mark.parametrize("n", [9, 11, 41, 130])
    def test_each_row_of_a_stack_is_its_own_call_bit_for_bit(self, n):
        # one shared zero mask per stack; q rows with zeros inside and
        # outside it give inf and finite terms side by side
        rng = np.random.default_rng(n)
        for _ in range(20):
            mask = rng.random(n) < 0.8
            mask[rng.integers(n)] = True
            stack = rng.random((int(rng.integers(1, 8)), n)) * mask
            stack /= stack.sum(axis=1, keepdims=True)
            rows = rng.random((int(rng.integers(1, 60)), n)) * (rng.random((1, n)) < 0.9)
            rows[:, rng.integers(n)] = 0.0 if rng.random() < 0.5 else rows[:, 0]
            rows /= np.maximum(rows.sum(axis=1, keepdims=True), 1e-300)
            together = _kl_rows(stack, rows)
            assert together.shape == (len(stack), len(rows))
            for p, kl in zip(stack, together):
                assert kl.tobytes() == _kl_rows(p, rows).tobytes()


def dense_kl_rows(p, rows):
    """The KL kernel with terms for every row, dead ones too, and inf set
    afterwards wherever a row has a zero on p's support mask."""
    mask = p > 0 if p.ndim == 1 else p[0] > 0
    pm = p[mask] if p.ndim == 1 else p[:, None, mask]
    qm = np.ascontiguousarray(rows if mask.all() else rows[:, mask])
    out = None if p.ndim == 1 else np.empty((len(p),) + qm.shape)
    with np.errstate(divide="ignore"):
        terms = np.divide(pm, qm, out=out)
        np.log(terms, out=terms)
    terms *= pm
    kl = terms.sum(axis=-1)
    kl[..., np.any(qm == 0, axis=1)] = math.inf
    return kl


@st.composite
def kl_tables(draw):
    """(p, rows): p one distribution or a stack sharing one support mask;
    rows mixing live rows, rows with zeros on and off the mask, all-zero
    rows (a ZeroPosterior message in utility_table) and NaN entries."""
    n = draw(st.integers(min_value=1, max_value=12))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    mask[draw(st.integers(min_value=0, max_value=n - 1))] = True
    positive = st.floats(min_value=1e-300, max_value=1.0)
    stack = draw(st.integers(min_value=0, max_value=4))  # 0: one 1-d p
    p = np.array(draw(st.lists(st.lists(positive, min_size=n, max_size=n),
                               min_size=max(stack, 1), max_size=max(stack, 1)))) * mask
    p /= p.sum(axis=1, keepdims=True)
    kind = draw(st.sampled_from(["mixed", "all live", "all dead", "zero rows"]))
    entry = {"mixed": st.one_of(st.just(0.0), positive, st.just(math.nan)),
             "zero rows": st.just(0.0)}.get(kind, positive)
    r = draw(st.integers(min_value=0, max_value=8))
    rows = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=r, max_size=r))).reshape(r, n)
    on_mask = np.flatnonzero(mask)
    for i in range(r):
        if kind == "all dead":
            rows[i, draw(st.sampled_from(on_mask.tolist()))] = 0.0
        elif kind != "zero rows" and draw(st.booleans()):  # a zero off the mask keeps it live
            rows[i, ~mask] = 0.0
    return (p if stack else p[0]), rows


class TestKLOracle:
    @settings(max_examples=500)
    @given(kl_tables())
    def test_live_rows_match_the_dense_kernel_bit_for_bit(self, table):
        p, rows = table
        got, want = _kl_rows(p, rows), dense_kl_rows(p, rows)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSurprisal:
    def test_uniform_nine_grid(self):
        p = uniform(np.arange(9.0))
        assert surprisal(p, 4.0) == pytest.approx(math.log(9.0), abs=1e-15)

    def test_known_value(self):
        p = Dist([0.0, 1.0], [0.36, 0.64])
        assert surprisal(p, 1.0) == pytest.approx(0.44628710262841953, abs=1e-15)

    def test_zero_prob_is_infinite(self):
        p = Dist([0.0, 1.0], [1.0, 0.0])
        assert surprisal(p, 1.0) == math.inf


class TestSoftmax:
    def test_two_options(self):
        probs = softmax([0.0, 1.0], lam=1.0)
        e = math.e
        assert probs[1] == pytest.approx(e / (1 + e), abs=1e-15)
        assert isinstance(probs, np.ndarray)

    def test_minus_inf_gets_exactly_zero(self):
        probs = softmax([0.0, -math.inf, 1.0], lam=2.0)
        assert probs[1] == 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_minus_inf_raises(self):
        with pytest.raises(AllUtilitiesNegativeInfinite):
            softmax([-math.inf, -math.inf], lam=1.0)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            softmax([0.0, 1.0], lam=0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_lambda_must_be_finite(self, lam):
        with pytest.raises(ValueError, match="lam must be positive"):
            softmax([0.0, 1.0], lam=lam)

    def test_plus_inf_rejected(self):
        with pytest.raises(ValueError):
            softmax([math.inf, 0.0], lam=1.0)

    def test_large_lambda_is_stable(self):
        # max-shift keeps exp() from overflowing
        probs = softmax([-1000.0, -999.0], lam=500.0)
        assert np.all(np.isfinite(probs))
        assert probs[1] > 0.999

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
           st.floats(min_value=0.1, max_value=20.0))
    def test_valid_distribution(self, utils, lam):
        probs = softmax(utils, lam)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
           st.floats(min_value=0.1, max_value=20.0))
    def test_monotone_in_utility(self, utils, lam):
        probs = softmax(utils, lam)
        order = np.argsort(utils)
        assert np.all(np.diff(probs[order]) >= -1e-12)


@given(dists())
@settings(max_examples=200)
def test_normalize_idempotent(d):
    again = normalize(d.probs, d.support)
    assert np.max(np.abs(again.probs - d.probs)) <= 1e-12


# each builds a strategy whose one stochastic row is the given row
STRATEGY_ROWS = {
    "SpeakerStrategy": lambda row: SpeakerStrategy(("o",), [row]),
    "MixedProfile.sender": lambda row: MixedProfile([row], [[1.0], [1.0]]),
    "MixedProfile.receiver": lambda row: MixedProfile([[1.0]], [row]),
    "ListenerStrategy": lambda row: ListenerStrategy(np.arange(2.0), [row]),
}


@pytest.mark.parametrize("build", STRATEGY_ROWS.values(), ids=STRATEGY_ROWS.keys())
def test_strategy_rows_must_sum_to_one_within_prob_tol(build):
    """The absolute PROB_TOL bound of Dist, with no relative slack."""
    build([0.5, 0.5 + 5e-10])
    with pytest.raises(ValueError, match="rows must be probability distributions"):
        build([0.5, 0.5 + 1e-6])
    with pytest.raises(ValueError, match="rows must be probability distributions"):
        build([1.5, -0.5])


def _scenario(grid):
    return Scenario(grid, "u", uniform([0.0, 1.0]), {}, (Observation("o", uniform([0.0, 1.0])),),
                    (1.0,), (Exact(0.0),))


# constructor, the arrays a caller passes it, the attributes that keep them
VALIDATED_ARRAYS = {
    "Dist": (Dist, lambda: [np.arange(2.0), np.full(2, 0.5)], ("support", "probs")),
    "SpeakerStrategy": (lambda m: SpeakerStrategy(("a", "b"), m), lambda: [np.eye(2)],
                        ("matrix",)),
    "MixedProfile": (MixedProfile, lambda: [np.eye(2), np.eye(2)], ("sender", "receiver")),
    "ListenerStrategy": (ListenerStrategy, lambda: [np.arange(2.0), np.eye(2)],
                         ("grid", "matrix")),
    "ExplicitJointPrior": (ExplicitJointPrior,
                           lambda: [np.arange(2.0), np.arange(2.0), np.full((2, 2), 0.25)],
                           ("x_support", "t_support", "joint")),
    "Scenario": (_scenario, lambda: [np.arange(2.0)], ("grid",)),
    "Game": (lambda prior, payoff: Game(("s", "t"), prior, ("m",), ("x", "y"), payoff),
             lambda: [np.full(2, 0.5), np.eye(2)], ("prior", "payoff")),
}


@pytest.mark.parametrize("build, arrays, attrs", VALIDATED_ARRAYS.values(),
                         ids=VALIDATED_ARRAYS.keys())
def test_constructors_keep_a_read_only_copy(build, arrays, attrs):
    given = arrays()
    obj = build(*given)
    kept = [getattr(obj, attr).copy() for attr in attrs]
    for a in given:
        assert a.flags.writeable
        a += 1.0
    for attr, before in zip(attrs, kept):
        assert np.array_equal(getattr(obj, attr), before)
        assert not getattr(obj, attr).flags.writeable
