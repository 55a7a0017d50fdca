import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaguetalk import (SHORT, TALL, Around, AtLeast, AtMost, Between, Dist, Exact,
                       ExplicitJointPrior, IndependentPrior, MissingParamPrior,
                       NonUniformPreconditionViolated, Threshold, ZeroPosterior,
                       around_closed_form, closed_form_posterior, denotation,
                       joint_enumeration_posterior, literal_interpreter,
                       literal_listener_strategy, literal_update, tall_closed_form,
                       uniform)

GRID = np.arange(0.0, 81.0, 10.0)


def table_prior():
    # uniform world prior, halo half-width uniform over 0..40 at step 10
    return IndependentPrior(
        uniform(GRID),
        {"around": uniform(np.arange(0.0, 41.0, 10.0))},
    )


def enumerate_joint(x_prior, t_prior, m):
    """Tiny independent reimplementation: loop every (x, t) cell."""
    weights = []
    for x, px in zip(x_prior.support, x_prior.probs):
        total = 0.0
        for t, pt in zip(t_prior.support, t_prior.probs):
            if denotation(m, float(x), float(t)):
                total += px * pt
        weights.append(total)
    z = sum(weights)
    return [w / z for w in weights]


class TestPreciseUpdate:
    def test_between_restricts_and_renormalizes(self):
        post = literal_update(table_prior(), Between(10.0, 70.0))
        expected = [0.0] + [1.0 / 7.0] * 7 + [0.0]
        assert np.max(np.abs(post.probs - expected)) <= 1e-12

    def test_exact_collapses_to_point(self):
        post = literal_update(table_prior(), Exact(40.0))
        assert post.p(40.0) == 1.0

    def test_nonuniform_prior(self):
        prior = IndependentPrior(Dist([0.0, 10.0, 20.0], [0.2, 0.3, 0.5]))
        post = literal_update(prior, AtLeast(10.0))
        assert np.allclose(post.probs, [0.0, 0.375, 0.625], atol=1e-15)

    def test_false_everywhere_raises(self):
        with pytest.raises(ZeroPosterior):
            literal_update(table_prior(), Between(90.0, 100.0))
        with pytest.raises(ZeroPosterior):
            literal_update(table_prior(), Exact(45.0))

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0),
                    min_size=4, max_size=10),
           st.data())
    @settings(max_examples=60)
    def test_surviving_ratios_preserved(self, weights, data):
        # restrict-and-renormalize cannot reweight inside the denotation
        w = np.asarray(weights)
        grid = np.arange(len(w), dtype=float)
        prior = IndependentPrior(Dist(grid, w / w.sum()))
        lo = data.draw(st.integers(0, len(w) - 1))
        hi = data.draw(st.integers(lo, len(w) - 1))
        post = literal_update(prior, Between(float(lo), float(hi)))
        for a in range(lo, hi + 1):
            for b in range(lo, hi + 1):
                lhs = post.probs[a] * prior.x.probs[b]
                rhs = post.probs[b] * prior.x.probs[a]
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestVagueUpdate:
    def test_around_small_hand_case(self):
        prior = IndependentPrior(
            uniform([0.0, 10.0, 20.0]),
            {"around": uniform([0.0, 10.0])},
        )
        post = literal_update(prior, Around(10.0))
        assert np.allclose(post.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_table_around_row(self):
        post = literal_update(table_prior(), Around(40.0))
        expected = [0.04, 0.08, 0.12, 0.16, 0.20, 0.16, 0.12, 0.08, 0.04]
        assert np.max(np.abs(post.probs - expected)) <= 1e-12

    def test_matches_joint_enumeration(self):
        prior = table_prior()
        t = prior.t_priors["around"]
        for center in GRID:
            m = Around(float(center))
            post = literal_update(prior, m)
            oracle = enumerate_joint(prior.x, t, m)
            assert np.max(np.abs(post.probs - oracle)) <= 1e-12

    def test_missing_param_prior(self):
        prior = IndependentPrior(uniform(GRID))
        with pytest.raises(MissingParamPrior):
            literal_update(prior, Around(40.0))

    def test_tall_on_index_grid(self):
        grid = np.arange(3.0)
        prior = IndependentPrior(uniform(grid), {"threshold": uniform(grid)})
        post = literal_update(prior, TALL)
        assert np.allclose(post.probs, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)


class TestExplicitJoint:
    def test_hand_computed(self):
        joint = ExplicitJointPrior([0.0, 1.0], [0.0, 1.0],
                                   [[0.1, 0.2], [0.3, 0.4]], "around")
        post = literal_update(joint, Around(0.0))
        # true cells: (0,0), (0,1), (1,1)
        assert np.allclose(post.probs, [0.3 / 0.7, 0.4 / 0.7], atol=1e-15)

    def test_marginals(self):
        joint = ExplicitJointPrior([0.0, 1.0], [0.0, 1.0],
                                   [[0.1, 0.2], [0.3, 0.4]], "around")
        assert np.allclose(joint.x_marginal.probs, [0.3, 0.7])
        assert np.allclose(joint.t_marginal.probs, [0.4, 0.6])

    def test_independent_product_agrees(self):
        x = Dist([0.0, 10.0, 20.0], [0.2, 0.3, 0.5])
        t = Dist([0.0, 10.0], [0.6, 0.4])
        matrix = np.outer(x.probs, t.probs)
        joint = ExplicitJointPrior(x.support, t.support, matrix, "around")
        indep = IndependentPrior(x, {"around": t})
        for c in x.support:
            a = literal_update(indep, Around(float(c)))
            b = literal_update(joint, Around(float(c)))
            assert a.approx_equal(b, tol=1e-12)

    def test_precise_message_uses_x_marginal(self):
        joint = ExplicitJointPrior([0.0, 1.0], [0.0, 1.0],
                                   [[0.1, 0.2], [0.3, 0.4]], "around")
        post = literal_update(joint, AtLeast(1.0))
        assert post.probs.tolist() == [0.0, 1.0]

    def test_kind_mismatch(self):
        joint = ExplicitJointPrior([0.0, 1.0], [0.0, 1.0],
                                   [[0.25, 0.25], [0.25, 0.25]], "threshold")
        with pytest.raises(MissingParamPrior):
            literal_update(joint, Around(0.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplicitJointPrior([0.0, 1.0], [0.0], [[0.5], [0.6]], "around")
        with pytest.raises(ValueError):
            ExplicitJointPrior([0.0, 1.0], [0.0, 1.0],
                               [[0.5, 0.5], [0.5, 0.5]], "around")


class TestClosedForms:
    def test_around_formula_values(self):
        d = around_closed_form(4)
        assert d.probs.tolist() == [0.04, 0.08, 0.12, 0.16, 0.20,
                                    0.16, 0.12, 0.08, 0.04]

    def test_tall_formula_values(self):
        d = tall_closed_form(10)
        assert np.allclose(d.probs, 2.0 * (np.arange(11) + 1) / (11 * 12),
                           atol=0.0)
        assert d.probs[-1] == 1.0 / 6.0

    def test_degenerate_sizes(self):
        assert around_closed_form(0).probs.tolist() == [1.0]
        assert tall_closed_form(0).probs.tolist() == [1.0]
        with pytest.raises(ValueError):
            around_closed_form(-1)

    @given(st.integers(min_value=0, max_value=12))
    def test_around_matches_enumeration(self, n):
        grid = np.arange(2 * n + 1, dtype=float)
        x = uniform(grid)
        t = uniform(np.arange(n + 1, dtype=float))
        oracle = enumerate_joint(x, t, Around(float(n)))
        assert np.max(np.abs(around_closed_form(n).probs - oracle)) <= 1e-12

    @given(st.integers(min_value=0, max_value=12))
    def test_tall_matches_enumeration(self, n):
        grid = np.arange(n + 1, dtype=float)
        x = uniform(grid)
        oracle = enumerate_joint(x, uniform(grid), TALL)
        assert np.max(np.abs(tall_closed_form(n).probs - oracle)) <= 1e-12

    def test_dispatch_around(self):
        post = closed_form_posterior(table_prior(), Around(40.0))
        brute = literal_update(table_prior(), Around(40.0))
        assert post.probs.tolist() == [0.04, 0.08, 0.12, 0.16, 0.20,
                                       0.16, 0.12, 0.08, 0.04]
        assert np.max(np.abs(post.probs - brute.probs)) <= 1e-12

    def test_dispatch_tall(self):
        grid = np.arange(150.0, 201.0, 5.0)
        prior = IndependentPrior(uniform(grid), {"threshold": uniform(grid)})
        post = closed_form_posterior(prior, TALL)
        assert post.approx_equal(literal_update(prior, TALL), tol=1e-12)

    def test_preconditions_rejected(self):
        skew = IndependentPrior(
            Dist(GRID, np.arange(1.0, 10.0) / 45.0),
            {"around": uniform(np.arange(0.0, 41.0, 10.0))},
        )
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(skew, Around(40.0))
        # off-center message
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(table_prior(), Around(30.0))
        # even-size grid
        even = IndependentPrior(uniform(np.arange(0.0, 71.0, 10.0)),
                                {"around": uniform(np.arange(0.0, 41.0, 10.0))})
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(even, Around(30.0))
        # halo prior on the wrong support
        bad_t = IndependentPrior(uniform(GRID),
                                 {"around": uniform(np.arange(0.0, 31.0, 10.0))})
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(bad_t, Around(40.0))
        # strict polarity has no closed form
        grid = np.arange(11.0)
        p = IndependentPrior(uniform(grid), {"threshold": uniform(grid)})
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(p, Threshold("<"))
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(table_prior(), Between(10.0, 70.0))


def test_interpreter_memoizes():
    interp = literal_interpreter(table_prior())
    a = interp(Around(40.0))
    assert interp(Around(40.0)) is a


@st.composite
def points(draw, lo, hi, scale, max_size=6):
    """A strictly increasing grid of integers in [lo, hi], times scale."""
    values = draw(st.sets(st.integers(min_value=lo, max_value=hi), min_size=1, max_size=max_size))
    return scale * np.array(sorted(values), dtype=float)


@st.composite
def weights_with_zeros(draw, n):
    """Nonnegative weights summing to 1, any of them possibly zero."""
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0))
    w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    if not w.any():
        w[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    return w / w.sum()


def messages(scale):
    """Precise, "around", "tall" and "short" messages near a [0, 10] grid."""
    value = st.integers(min_value=-2, max_value=12).map(lambda v: scale * v)
    return st.one_of(value.map(Exact), value.map(AtLeast), value.map(AtMost),
                     st.tuples(value, value).map(lambda b: Between(min(b), max(b))),
                     value.map(Around), st.sampled_from([TALL, SHORT]))


@st.composite
def independent_cases(draw):
    scale = draw(st.sampled_from([1.0, 0.5, 2.5]))
    grid = draw(points(0, 10, scale, max_size=8))
    x = Dist(grid, draw(weights_with_zeros(grid.size)))
    t_priors = {}
    for kind, lo, hi in (("around", 0, 6), ("threshold", -2, 12)):
        ts = draw(points(lo, hi, scale))
        t_priors[kind] = Dist(ts, draw(weights_with_zeros(ts.size)))
    menu = draw(st.lists(messages(scale), min_size=1, max_size=8))
    return IndependentPrior(x, t_priors), menu


@st.composite
def explicit_cases(draw):
    scale = draw(st.sampled_from([1.0, 0.5, 2.5]))
    grid = draw(points(0, 10, scale, max_size=8))
    kind = draw(st.sampled_from(["around", "threshold"]))
    ts = draw(points(0, 6, scale) if kind == "around" else points(-2, 12, scale))
    joint = draw(weights_with_zeros(grid.size * ts.size)).reshape(grid.size, ts.size)
    menu = draw(st.lists(messages(scale).filter(lambda m: m.param_kind in (None, kind)),
                         min_size=1, max_size=8))
    return ExplicitJointPrior(grid, ts, joint, kind), menu


def explicit_enumeration(prior, m):
    """Plain double loop over the (x, t) cells of an explicit joint prior."""
    weights = []
    for k, x in enumerate(prior.x_support):
        total = 0.0
        for i, t in enumerate(prior.t_support):
            if denotation(m, float(x), float(t)):
                total += float(prior.joint[k, i])
        weights.append(total)
    z = sum(weights)
    if z <= 0:
        raise ValueError(f"{m.label!r} is false everywhere under the prior")
    return [w / z for w in weights]


def check_literal_rows(prior, menu, oracle):
    """L0 rows match the oracle; the first dead message raises ZeroPosterior.

    Also checks that literal_update is the matrix's one-message case, bit
    for bit.
    """
    rows = []
    for m in menu:
        try:
            rows.append(oracle(m))
        except ValueError:
            rows.append(None)
    dead = [m for m, row in zip(menu, rows) if row is None]
    if dead:
        with pytest.raises(ZeroPosterior, match=re.escape(f"{dead[0].label!r} is false")):
            literal_listener_strategy(prior, menu)
        menu = [m for m, row in zip(menu, rows) if row is not None]
        rows = [row for row in rows if row is not None]
    if not menu:
        return
    L = literal_listener_strategy(prior, menu)
    assert np.max(np.abs(L.matrix - np.array(rows))) <= 1e-12
    for m, row in zip(menu, L.matrix):
        assert literal_update(prior, m).probs.tobytes() == row.tobytes()


class TestLiteralRows:
    """The one L0 kernel against the plain-Python enumeration oracles."""

    @given(independent_cases())
    @settings(max_examples=200, deadline=None)
    def test_independent_prior_matches_joint_enumeration(self, case):
        prior, menu = case

        def oracle(m):
            t = prior.t_priors[m.param_kind] if m.vague else uniform([0.0])
            return joint_enumeration_posterior(prior.x, t, m).probs

        check_literal_rows(prior, menu, oracle)

    @given(explicit_cases())
    @settings(max_examples=200, deadline=None)
    def test_explicit_joint_matches_plain_double_loop(self, case):
        prior, menu = case
        check_literal_rows(prior, menu, lambda m: explicit_enumeration(prior, m))

    def test_first_failing_message_in_menu_order_raises(self):
        # no mass at 0 and no threshold prior: "exactly 0" fails before "tall"
        prior = IndependentPrior(Dist([0.0, 1.0, 2.0], [0.0, 0.5, 0.5]))
        with pytest.raises(ZeroPosterior, match="'exactly 0' is false everywhere"):
            literal_listener_strategy(prior, [Exact(2.0), Exact(0.0), TALL])
        with pytest.raises(MissingParamPrior, match="'threshold'"):
            literal_listener_strategy(prior, [Exact(2.0), TALL, Exact(0.0)])
