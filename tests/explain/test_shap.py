"""SHAP estimator tests: axioms, analytic recovery, sparsity, budgets."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explain import ShapExplainer, exact_shap, kernel_shap
from repro.runtime import BudgetExceeded


def linear_fn(coef):
    return lambda mask: float(np.asarray(coef) @ mask)


class TestExactShap:
    def test_linear_recovery(self):
        coef = np.array([0.5, -1.2, 2.0])
        result = exact_shap(linear_fn(coef), 3)
        np.testing.assert_allclose(result.values, coef, atol=1e-10)

    def test_and_interaction_split_evenly(self):
        fn = lambda mask: float(mask[0] and mask[1])
        result = exact_shap(fn, 3)
        np.testing.assert_allclose(result.values, [0.5, 0.5, 0.0], atol=1e-10)

    def test_dummy_feature_gets_zero(self):
        fn = lambda mask: float(mask[0])
        result = exact_shap(fn, 4)
        np.testing.assert_allclose(result.values[1:], 0.0, atol=1e-12)

    def test_symmetry_axiom(self):
        """Interchangeable features receive equal values."""
        fn = lambda mask: float(mask[0]) + float(mask[1])
        result = exact_shap(fn, 2)
        assert result.values[0] == pytest.approx(result.values[1])

    def test_efficiency_axiom(self):
        rng = np.random.default_rng(0)
        table = rng.random(2 ** 4)  # arbitrary set function over 4 features

        def fn(mask):
            idx = int(np.dot(mask, 2 ** np.arange(4)))
            return float(table[idx])

        result = exact_shap(fn, 4)
        assert result.check_efficiency()

    def test_caches_duplicate_masks(self):
        calls = {"n": 0}

        def fn(mask):
            calls["n"] += 1
            return float(mask.sum())

        result = exact_shap(fn, 3)
        assert calls["n"] == 2 ** 3  # each coalition evaluated exactly once
        assert result.n_evaluations == 8

    def test_empty_feature_count_rejected(self):
        with pytest.raises(ValueError):
            exact_shap(lambda m: 0.0, 0)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_efficiency_property_random_functions(self, seed):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=2 ** 3)

        def fn(mask):
            idx = int(np.dot(mask, 2 ** np.arange(3)))
            return float(table[idx])

        assert exact_shap(fn, 3).check_efficiency()


class TestKernelShap:
    def test_linear_recovery_dense(self):
        coef = np.arange(1.0, 9.0)
        result = kernel_shap(
            linear_fn(coef), 8, n_samples=400, l1_regularization=None
        )
        np.testing.assert_allclose(result.values, coef, atol=1e-8)

    def test_linear_recovery_sparse_l1(self):
        coef = np.zeros(12)
        coef[[1, 5]] = [2.0, -3.0]
        result = kernel_shap(linear_fn(coef), 12, n_samples=400)
        np.testing.assert_allclose(result.values, coef, atol=1e-6)
        assert set(result.nonzero_indices()) == {1, 5}

    def test_efficiency_always_holds(self):
        rng = np.random.default_rng(3)
        coef = rng.normal(size=30)
        fn = lambda mask: float(coef @ mask) + float(mask[0] and mask[7])
        result = kernel_shap(fn, 30, n_samples=200)
        assert result.check_efficiency()

    def test_matches_exact_on_small_interaction(self):
        fn = lambda mask: float(mask[0] and mask[1]) + 0.5 * float(mask[2])
        exact = exact_shap(fn, 4)
        kernel = kernel_shap(fn, 4, n_samples=100, l1_regularization=None)
        np.testing.assert_allclose(kernel.values, exact.values, atol=1e-8)

    def test_single_feature(self):
        fn = lambda mask: 3.0 * float(mask[0])
        result = kernel_shap(fn, 1)
        np.testing.assert_allclose(result.values, [3.0])

    def test_constant_function_all_zero(self):
        result = kernel_shap(lambda mask: 1.0, 20, n_samples=100)
        np.testing.assert_allclose(result.values, 0.0, atol=1e-9)

    def test_budget_respected(self):
        result = kernel_shap(
            linear_fn(np.ones(50)), 50, n_samples=120, max_samples=120
        )
        # +2 for the mandatory empty/full coalitions.
        assert result.n_evaluations <= 122

    def test_huge_feature_count_stays_cheap(self):
        """Shell enumeration must bail at the first oversized shell: a
        hub's neighborhood can put 1e4+ features in front of a 32-sample
        budget, and grinding C(m, s) for every size pair hangs for
        minutes at that scale."""
        m = 20_000
        calls = {"n": 0}

        def fn(mask):
            calls["n"] += 1
            return float(mask.sum())

        start = time.perf_counter()
        result = kernel_shap(
            fn, m, n_samples=16, max_samples=32, l1_regularization=None
        )
        assert time.perf_counter() - start < 10.0
        assert result.n_evaluations <= 34  # budget + empty/full
        assert calls["n"] <= 34
        # Efficiency still holds on the sampled regression.
        assert result.values.sum() == pytest.approx(
            result.full_value - result.base_value, abs=1e-6
        )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        coef = rng.normal(size=25)
        a = kernel_shap(linear_fn(coef), 25, n_samples=150, seed=9)
        b = kernel_shap(linear_fn(coef), 25, n_samples=150, seed=9)
        np.testing.assert_allclose(a.values, b.values)

    def test_top_indices_ordering(self):
        coef = np.array([0.1, -5.0, 2.0])
        result = kernel_shap(linear_fn(coef), 3, n_samples=64)
        assert result.top_indices()[:2] == [1, 2]


class TestShapExplainer:
    def test_dispatches_exact_below_limit(self):
        explainer = ShapExplainer(exact_limit=5)
        result = explainer.explain(linear_fn(np.ones(4)), 4)
        assert result.method == "exact"

    def test_dispatches_kernel_above_limit(self):
        explainer = ShapExplainer(exact_limit=5, n_samples=64)
        result = explainer.explain(linear_fn(np.ones(12)), 12)
        assert result.method == "kernel"

    def test_empty_feature_space(self):
        result = ShapExplainer().explain(lambda m: 0.0, 0)
        assert result.method == "empty"
        assert result.n_features == 0


class TestCachingValueFunctionIsolation:
    """The memo key is an immutable digest of a *private copy* of the
    caller's mask — mutating the caller's array after evaluation must
    neither corrupt retained references nor poison the cache."""

    def test_caller_mutation_cannot_poison_cache(self):
        from repro.explain.shap import _CachingValueFunction

        received = []

        def fn(mask):
            received.append(mask)  # value functions may retain masks
            return float(mask.sum())

        f = _CachingValueFunction(fn, 3)
        mask = np.zeros(3, dtype=bool)
        assert f(mask) == 0.0
        mask[0] = True  # caller reuses its buffer between coalitions
        assert f(mask) == 1.0
        # The retained first mask must still describe the first coalition.
        assert not received[0].any()
        # And the cache still answers the original coalition correctly,
        # without re-evaluating.
        mask[:] = False
        assert f(mask) == 0.0
        assert f.n_evaluations == 2

    def test_prefetch_receives_detached_copies(self):
        from repro.explain.shap import _CachingValueFunction

        class BulkFn:
            def __init__(self):
                self.retained = []

            def __call__(self, mask):
                return float(mask.sum())

            def prefetch(self, masks):
                self.retained.extend(masks)

        bulk = BulkFn()
        f = _CachingValueFunction(bulk, 2)
        mask = np.array([True, False])
        f.prefetch([mask, mask, np.array([True, False])])  # dupes collapse
        assert len(bulk.retained) == 1
        mask[:] = False
        assert bulk.retained[0].tolist() == [True, False]

    def test_prefetch_skips_already_cached_masks(self):
        from repro.explain.shap import _CachingValueFunction

        class BulkFn:
            def __init__(self):
                self.bulk_calls = []

            def __call__(self, mask):
                return 1.0

            def prefetch(self, masks):
                self.bulk_calls.append(len(masks))

        bulk = BulkFn()
        f = _CachingValueFunction(bulk, 2)
        f(np.array([True, True]))
        f.prefetch([np.array([True, True]), np.array([False, True])])
        assert bulk.bulk_calls == [1]  # only the uncached mask went through


class _Counted:
    """A value function counting per-mask calls; with ``bulk`` it gets a
    ``prefetch`` that answers whole mask sweeps (optionally tripping the
    request budget once it has computed them)."""

    def __init__(self, fn, bulk=False, trip=False):
        self.fn = fn
        self.calls = 0
        self.swept = 0
        if bulk:
            self.prefetch = self._prefetch
        self.trip = trip

    def __call__(self, mask):
        self.calls += 1
        return self.fn(mask)

    def _prefetch(self, masks):
        values = [self.fn(mask) for mask in masks]
        self.swept += len(values)
        if self.trip:
            raise BudgetExceeded("probe_budget")
        return values


def _interaction(mask):
    return float(mask[0] and mask[1]) + 0.5 * mask[2] - 0.25 * mask[3] * mask[4]


def _same_result(a, b):
    assert a.values.tobytes() == b.values.tobytes()
    assert (a.base_value, a.full_value, a.n_evaluations, a.method) == (
        b.base_value,
        b.full_value,
        b.n_evaluations,
        b.method,
    )
    assert a.truncated_reason == b.truncated_reason


class TestPrefetchFill:
    """A bulk ``prefetch`` that returns the sweep's values fills the SHAP
    memo: the estimator then makes no per-mask calls beyond the two
    anchors, and returns exactly what per-mask evaluation returns."""

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda fn: exact_shap(fn, 6),
            lambda fn: kernel_shap(fn, 12, n_samples=64, seed=3),
            lambda fn: kernel_shap(fn, 12, n_samples=64, seed=3, l1_regularization=None),
        ],
        ids=["exact", "kernel-auto-l1", "kernel-dense"],
    )
    def test_filled_memo_skips_per_mask_calls(self, estimate):
        bulk = _Counted(_interaction, bulk=True)
        plain = _Counted(_interaction)
        filled, reference = estimate(bulk), estimate(plain)
        assert bulk.calls == 2  # f(∅) and f(full), before the sweep
        assert bulk.swept == filled.n_evaluations - 2
        assert plain.calls == reference.n_evaluations
        _same_result(filled, reference)

    @pytest.mark.parametrize("kernel", [False, True], ids=["exact", "kernel"])
    def test_budget_trip_in_prefetch_stores_nothing(self, kernel):
        """A sweep that trips the budget leaves only the anchors in the
        memo, as a bulk path that returns nothing does."""
        def estimate(fn):
            if kernel:
                return kernel_shap(fn, 8, n_samples=40, seed=1)
            return exact_shap(fn, 6)

        def trip_at_once(masks):
            raise BudgetExceeded("probe_budget")

        tripped = estimate(_Counted(_interaction, bulk=True, trip=True))
        silent = _Counted(_interaction)
        silent.prefetch = trip_at_once
        _same_result(tripped, estimate(silent))
        assert tripped.method.endswith("-partial") and tripped.n_evaluations == 2

    def test_factual_explain_probes_the_same(self, small_gcn_ranker, small_dataset, small_query):
        """Filling the memo from the probe batch changes no explanation
        and no engine evaluation count — only the duplicate memo hits of
        the per-mask replay disappear."""
        from repro.explain import FactualConfig, FactualExplainer, RelevanceTarget
        from repro.explain import factual
        from repro.search import ProbeEngine

        net = small_dataset.network
        query = frozenset(small_query)
        person = small_gcn_ranker.rank(query, net)[3]

        def explain():
            target = RelevanceTarget(small_gcn_ranker, k=5)
            engine = ProbeEngine(target, net)
            config = FactualConfig(n_samples=48, max_samples=96, selection_samples=24)
            explainer = FactualExplainer(target, config, engine=engine)
            out = [
                explainer.explain_skills(person, query, net),
                explainer.explain_collaborations(person, query, net),
                explainer.explain_query(person, query, net),
            ]
            return out, engine

        filled, filled_engine = explain()
        original = factual._SharedMaskValueFunction.prefetch

        def prefetch_only(self, masks):
            original(self, masks)  # memos warmed, values dropped

        factual._SharedMaskValueFunction.prefetch = prefetch_only
        try:
            replayed, replayed_engine = explain()
        finally:
            factual._SharedMaskValueFunction.prefetch = original
        for a, b in zip(filled, replayed):
            assert [(x.feature, x.value) for x in a.attributions] == [
                (x.feature, x.value) for x in b.attributions
            ]
            assert (a.base_value, a.full_value, a.n_evaluations, a.method) == (
                b.base_value,
                b.full_value,
                b.n_evaluations,
                b.method,
            )
        assert filled_engine.misses == replayed_engine.misses
        assert filled_engine.score_hits == replayed_engine.score_hits
        assert filled_engine.hits < replayed_engine.hits


def _reference_lasso(design, response, weights, alpha, beta=None, max_iter=60, tol=1e-7):
    """Cyclic coordinate descent with numpy scalars: the oracle the exact
    solver is checked against once run to convergence (``max_iter`` 1e5,
    ``tol`` 1e-14)."""
    n, m = design.shape
    beta = np.zeros(m) if beta is None else beta.copy()
    wx = weights[:, None] * design
    z = (wx * design).sum(axis=0)
    residual = response - design @ beta

    def sweep(indices):
        max_delta = 0.0
        for j in indices:
            if z[j] <= 0:
                continue
            rho = wx[:, j] @ residual + z[j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - alpha, 0.0) / z[j]
            delta = new - beta[j]
            if delta != 0.0:
                residual[:] -= design[:, j] * delta
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        return max_delta

    for _ in range(4):
        full_delta = sweep(range(m))
        active = np.flatnonzero(beta)
        for _ in range(max_iter):
            if sweep(active) < tol:
                break
        if full_delta < tol:
            break
    return beta


_ALPHA_FACTORS = (0.25, 0.1, 0.05, 0.02, 0.01, 0.003)


def _lasso_design(seed):
    """A random 0/1 coalition design; ``seed % 5`` picks its trap: a 0/1
    response under uniform weights (many columns tie at alpha_max), more
    features than coalitions, duplicate columns, eight coalitions, or
    plain random weights."""
    rng = np.random.default_rng(seed)
    kind = seed % 5
    n, m = int(rng.integers(8, 48)), int(rng.integers(3, 32))
    if kind == 1:
        n = int(rng.integers(8, 16))
        m = int(rng.integers(n + 1, 2 * n + 4))
    elif kind == 3:
        n = 8
    design = (rng.random((n, m)) < rng.uniform(0.2, 0.8)).astype(float)
    if kind == 2:
        k = int(rng.integers(1, max(2, m // 3)))
        design[:, rng.integers(0, m, size=k)] = design[:, rng.integers(0, m, size=k)]
    if kind in (0, 3) or rng.random() < 0.3:
        weights = np.full(n, 1.0 / n)
    else:
        weights = rng.random(n) + 0.05
    if kind in (0, 3):
        response = (rng.random(n) < 0.5).astype(float)
    else:
        response = design[:, : min(3, m)].sum(axis=1) * rng.normal() + rng.normal(size=n) * 0.5
    return design, response, weights


def _lasso_objective(design, response, weights, alpha, beta):
    resid = response - design @ beta
    return 0.5 * float(weights @ (resid * resid)) + alpha * float(np.abs(beta).sum())


def _kkt_violation(design, response, weights, alpha, beta):
    """Largest breach of the lasso optimality conditions, relative to
    alpha: grad_j = alpha*sign(beta_j) on the support, |grad_j| <= alpha
    off it."""
    grad = (weights[:, None] * design).T @ (response - design @ beta)
    on = beta != 0
    return max(
        float(np.abs(grad[on] - alpha * np.sign(beta[on])).max(initial=0.0)),
        float((np.abs(grad[~on]) - alpha).max(initial=0.0)),
    ) / alpha


@pytest.mark.parametrize(
    "seed", list(range(10)) + [pytest.param(s, marks=pytest.mark.slow) for s in range(10, 310)]
)
def test_lasso_is_exact(seed):
    """Along the warm-started six-alpha path the AIC selection walks, the
    active-set solve satisfies the KKT conditions, reaches the optimum a
    converged coordinate descent reaches, and where the design has full
    column rank (a unique optimum) lands on the same point."""
    from repro.explain.shap import _lasso_active_set

    design, response, weights = _lasso_design(seed)
    alpha_max = float(np.abs((weights[:, None] * design).T @ response).max())
    full_rank = np.linalg.matrix_rank(design * np.sqrt(weights)[:, None]) == design.shape[1]
    got = want = None
    for factor in _ALPHA_FACTORS:
        alpha = alpha_max * factor
        got = _lasso_active_set(design, response, weights, alpha, beta=got)
        want = _reference_lasso(design, response, weights, alpha, beta=want, max_iter=100_000, tol=1e-14)
        assert _kkt_violation(design, response, weights, alpha, got) <= 1e-9
        reached = _lasso_objective(design, response, weights, alpha, want)
        assert _lasso_objective(design, response, weights, alpha, got) == pytest.approx(reached, rel=1e-10)
        if full_rank:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


def test_lasso_ties_at_alpha_max():
    """Duplicated columns tie at alpha_max; the solve keeps the lowest
    index and stays deterministic."""
    from repro.explain.shap import _lasso_active_set

    rng = np.random.default_rng(0)
    base = (rng.random((24, 4)) < 0.5).astype(float)
    design = base[:, [0, 0, 1, 1, 2, 3, 0]]
    response = base[:, 0] * 2.0 + base[:, 1]
    weights = np.full(24, 1 / 24)
    alpha_max = float(np.abs((weights[:, None] * design).T @ response).max())
    beta = _lasso_active_set(design, response, weights, 0.25 * alpha_max)
    assert _kkt_violation(design, response, weights, 0.25 * alpha_max, beta) <= 1e-9
    assert beta[0] > 0 and beta[1] == beta[6] == 0.0
    again = _lasso_active_set(design, response, weights, 0.25 * alpha_max)
    assert beta.tobytes() == again.tobytes()


def test_hub_sized_auto_selection_stays_fast():
    """A hub's neighbourhood: thousands of features over 32 coalitions,
    most columns far outside the span of the rest."""
    m = 2_500
    coef = np.zeros(m)
    coef[[3, 70, 900, 2_001]] = [1.0, -2.0, 0.5, 3.0]
    start = time.perf_counter()
    result = kernel_shap(linear_fn(coef), m, n_samples=16, max_samples=32)
    assert time.perf_counter() - start < 10.0
    assert result.n_evaluations <= 34
    assert result.values.sum() == pytest.approx(result.full_value - result.base_value, abs=1e-9)
    assert 0 < len(result.nonzero_indices()) <= 32
