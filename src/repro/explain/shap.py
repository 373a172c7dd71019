"""SHAP feature attribution from scratch (Lundberg & Lee 2017).

ExES uses SHAP as its factual scorer (paper §3.2): each feature's value is
its average marginal contribution to the model output over feature
coalitions.  Two estimators are provided behind one entry point:

* **exact** — full enumeration of all 2^M coalitions with Shapley weights,
  used when M is small (this is also the ground truth the KernelSHAP tests
  compare against);
* **KernelSHAP** — weighted least squares over sampled coalitions with the
  Shapley kernel, enumerating whole coalition sizes while the budget allows
  (the same strategy as the reference implementation) and sampling the
  remainder.  The two Shapley constraints (φ₀ = f(∅), Σφ = f(full) − f(∅))
  are enforced exactly by variable elimination.

KernelSHAP's default ``l1_regularization="auto"`` first picks a sparse
support, as the reference implementation does: an exact weighted lasso,
solved by active-set iterations at six alphas, scored by AIC.  Features
outside the support get exactly zero, so an explanation's size is its
count of non-zero values (the paper's Tables 7/11).

The value function is an arbitrary ``f(mask) -> float`` where ``mask`` is a
boolean vector (True = feature present).  ExES instantiates it as "apply
the removal perturbations of all masked-off features, then report the
relevance/membership bit".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import lapack

from repro.runtime import BudgetExceeded

ValueFunction = Callable[[np.ndarray], float]


@dataclass
class ShapResult:
    """Attributions plus bookkeeping about the estimation run."""

    values: np.ndarray  # φ_i per feature
    base_value: float  # f(∅)
    full_value: float  # f(all features present)
    n_evaluations: int
    method: str
    # Set when the active request budget expired mid-estimation and the
    # attributions were solved from the coalitions evaluated so far
    # ("deadline" / "probe_budget"); None for a complete run.
    truncated_reason: Optional[str] = None

    @property
    def n_features(self) -> int:
        return len(self.values)

    def check_efficiency(self, atol: float = 1e-6) -> bool:
        """Local accuracy / efficiency axiom: Σφ == f(full) − f(∅)."""
        return bool(
            np.isclose(self.values.sum(), self.full_value - self.base_value, atol=atol)
        )

    def nonzero_indices(self, atol: float = 1e-9) -> List[int]:
        return [i for i, v in enumerate(self.values) if abs(v) > atol]

    def top_indices(self, k: Optional[int] = None) -> List[int]:
        """Feature indices sorted by |φ| descending (deterministic ties)."""
        order = sorted(
            range(len(self.values)), key=lambda i: (-abs(self.values[i]), i)
        )
        return order if k is None else order[:k]


class _CachingValueFunction:
    """Memoizes f(mask) by an immutable mask digest; counts unique evals.

    The digest is taken from a *private copy* of the caller's mask, and
    that same copy is what reaches the wrapped function — estimators reuse
    and mutate one mask buffer across coalitions (``exact_shap`` flips a
    bit in place between the with/without evaluations), so handing the
    caller's live array to a value function that retains it (the shared
    probe-context prefetch path does) would let a later in-place edit
    silently poison every retained reference.
    """

    def __init__(self, fn: ValueFunction, n_features: int) -> None:
        self._fn = fn
        self._n = n_features
        self._cache: Dict[bytes, float] = {}
        self.n_evaluations = 0

    @staticmethod
    def _frozen(mask: np.ndarray) -> Tuple[bytes, np.ndarray]:
        """(immutable digest, detached copy) of one mask."""
        arr = np.array(mask, dtype=bool, copy=True)
        return arr.tobytes(), arr

    def __call__(self, mask: np.ndarray) -> float:
        key, arr = self._frozen(mask)
        cached = self._cache.get(key)
        if cached is None:
            cached = float(self._fn(arr))
            self._cache[key] = cached
            self.n_evaluations += 1
        return cached

    def prefetch(self, masks) -> None:
        """Hand the not-yet-cached masks to the wrapped function's bulk
        path (when it has one), so a whole coalition sweep is evaluated
        through batched/multi-query probe flushes instead of one probe per
        ``__call__``.  A no-op for plain value functions.

        A bulk path that returns one value per mask fills the memo (one
        evaluation each), so the estimator's per-mask calls never reach
        the wrapped function again; one that returns None (it evaluated
        nothing) or raises leaves the memo untouched."""
        bulk = getattr(self._fn, "prefetch", None)
        if bulk is None:
            return
        fresh: Dict[bytes, np.ndarray] = {}
        for mask in masks:
            key, arr = self._frozen(mask)
            if key not in self._cache and key not in fresh:
                fresh[key] = arr
        if not fresh:
            return
        values = bulk(list(fresh.values()))
        if values is None:
            return
        for key, value in zip(fresh, values):
            self._cache[key] = float(value)
            self.n_evaluations += 1


def _constrained_phi(
    z: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    delta: float,
    active: np.ndarray,
) -> np.ndarray:
    """Weighted least squares over the active features with Σφ = Δ
    enforced exactly by eliminating the last active feature — the shared
    solver tail of :func:`kernel_shap` and the budget-truncated partial
    estimates."""
    m = z.shape[1]
    idx = np.flatnonzero(active)
    phi = np.zeros(m)
    if len(idx) == 1:
        phi[idx[0]] = delta
        return phi
    # y − z_last·Δ = (z_head − z_last)·φ_head
    z_act = z[:, idx]
    z_head = z_act[:, :-1]
    z_last = z_act[:, -1]
    design = z_head - z_last[:, None]
    response = y - z_last * delta
    sw = np.sqrt(w)
    a = design * sw[:, None]
    b = response * sw
    phi_head, *_ = np.linalg.lstsq(a, b, rcond=None)
    phi[idx[:-1]] = phi_head
    phi[idx[-1]] = delta - phi_head.sum()
    return phi


def _partial_from_cache(
    f: _CachingValueFunction,
    m: int,
    base: float,
    full: float,
    reason: str,
    method: str,
) -> ShapResult:
    """Best-so-far attributions when the request budget expired mid-run.

    Solves the same Σφ = Δ constrained weighted regression as KernelSHAP
    over whatever coalitions were evaluated before the trip (the memo of
    ``f``); with zero informative coalitions the delta is spread
    uniformly, which still satisfies efficiency.  Requires ``base`` and
    ``full`` — both estimators evaluate those two anchors first, so any
    truncated run has them.
    """
    delta = full - base
    masks: List[np.ndarray] = []
    ys: List[float] = []
    for key, val in f._cache.items():
        arr = np.frombuffer(key, dtype=bool)
        s = int(arr.sum())
        if s == 0 or s == m:
            continue  # the anchors; infinite kernel weight
        masks.append(np.array(arr, dtype=np.float64))
        ys.append(val)
    if m == 1 or not masks:
        values = np.full(m, delta / m)
    else:
        z = np.asarray(masks)
        y = np.asarray(ys) - base
        w = np.array([_kernel_weight(m, int(row.sum())) for row in z])
        values = _constrained_phi(z, y, w, delta, np.ones(m, dtype=bool))
    return ShapResult(
        values=values,
        base_value=base,
        full_value=full,
        n_evaluations=f.n_evaluations,
        method=method,
        truncated_reason=reason,
    )


def exact_shap(fn: ValueFunction, n_features: int) -> ShapResult:
    """Exact Shapley values by coalition enumeration (O(2^M) evaluations).

    The ∅ and full coalitions are evaluated before the bulk prefetch so a
    budget-truncated run always holds both efficiency anchors; the result
    is unchanged (the memo dedups them out of the prefetch sweep).
    """
    if n_features < 1:
        raise ValueError("need at least one feature")
    f = _CachingValueFunction(fn, n_features)
    base = f(np.zeros(n_features, dtype=bool))
    full = f(np.ones(n_features, dtype=bool))
    try:
        if n_features <= 12:
            # Exact enumeration touches every coalition anyway; announcing
            # the full 2^M sweep up front lets a shared-session value
            # function answer it with batched/multi-query probe flushes.
            f.prefetch(
                np.array(bits, dtype=bool)
                for bits in itertools.product((False, True), repeat=n_features)
            )
        values = np.zeros(n_features)
        fact = math.factorial
        denom = fact(n_features)
        indices = list(range(n_features))
        for i in indices:
            others = [j for j in indices if j != i]
            for size in range(n_features):
                weight = fact(size) * fact(n_features - size - 1) / denom
                for subset in itertools.combinations(others, size):
                    mask = np.zeros(n_features, dtype=bool)
                    mask[list(subset)] = True
                    without = f(mask)
                    mask[i] = True
                    with_i = f(mask)
                    values[i] += weight * (with_i - without)
    except BudgetExceeded as exc:
        return _partial_from_cache(
            f, n_features, base, full, exc.reason, method="exact-partial"
        )
    return ShapResult(
        values=values,
        base_value=base,
        full_value=full,
        n_evaluations=f.n_evaluations,
        method="exact",
    )


def _kernel_weight(m: int, size: int) -> float:
    """Shapley kernel π(s) = (M−1) / (C(M,s) · s · (M−s))."""
    return (m - 1) / (math.comb(m, size) * size * (m - size))


def _lasso_active_set(
    design: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray,
    alpha: float,
    beta: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact weighted lasso, argmin_β ½·Σᵢ wᵢ(yᵢ − xᵢβ)² + α·‖β‖₁, by
    active-set (feature-sign) iterations (Lee, Battle, Raina & Ng 2007).

    With the active set A and its signs θ fixed the objective is a
    quadratic whose minimiser solves G_AA·b = c_A − αθ (G = XᵀWX,
    c = XᵀWy).  A step moves towards that minimiser and stops at the
    first coordinate that would change sign, which leaves A; once a step
    lands without a sign change, the zero coordinate that most violates
    |cⱼ − (Gβ)ⱼ| ≤ α enters A with the sign of its gradient.  Every step
    lowers the objective, and the loop stops when no zero coordinate
    violates that bound, which makes β the exact minimiser (to rounding).

    ``beta`` warm-starts the solve: its support is refitted at the new
    alpha before any coordinate enters.  G_AA is held as a Cholesky
    factor grown by one row per entering coordinate.  When a column lies
    in the span of the active ones (a pivot² below 1e-10 of the largest
    diagonal: duplicate columns, or more features than coalitions), the
    fit is flat along the null direction and the L1 norm falls, so the
    iterate slides along it until an active coordinate reaches zero and
    leaves.  Only Gram entries of active columns are formed, so memory
    stays O(n·m).  Ties go to the lowest index; nothing is random.
    """
    m = design.shape[1]
    wx = weights[:, None] * design
    corr = wx.T @ response
    diag = np.einsum("ij,ij->j", wx, design)
    tiny = 1e-10 * float(diag.max())
    beta = np.zeros(m) if beta is None else beta.copy()
    act = np.flatnonzero(beta).tolist()
    theta = np.sign(beta[act])
    gram = design[:, act].T @ wx[:, act]
    chol = np.linalg.cholesky(gram)

    # Each pass takes one step; the bound only stops a cycle that
    # rounding could sustain in a degenerate design.
    for _ in range(10 * m + 100):
        if act:
            b_cur = beta[act]
            b_new, _ = lapack.dpotrs(chol, corr[act] - alpha * theta, lower=1)
            wrong = np.flatnonzero(theta * b_new <= 0)
            if len(wrong):
                # Stop where the first coordinate reaches zero; it leaves.
                t = np.divide(
                    b_cur[wrong],
                    b_cur[wrong] - b_new[wrong],
                    out=np.zeros(len(wrong)),
                    where=b_cur[wrong] != 0,
                )
                pos = wrong[int(np.argmin(t))]
                beta[act] = b_cur + t.min() * (b_new - b_cur)
                beta[act[pos]] = 0.0
                del act[pos]
                theta = np.delete(theta, pos)
                gram = np.delete(np.delete(gram, pos, 0), pos, 1)
                chol = np.linalg.cholesky(gram)
                continue
            beta[act] = b_new
        grad = wx.T @ (response - design @ beta)
        grad[act] = 0.0
        j = int(np.argmax(np.abs(grad)))
        if abs(grad[j]) <= alpha * (1.0 + 1e-10):
            break
        sign = 1.0 if grad[j] > 0 else -1.0
        col = (design.T @ wx[:, j])[act]
        ell = lapack.dtrtrs(chol, col, lower=1)[0] if act else col
        pivot2 = diag[j] - ell @ ell
        k = len(act)
        if pivot2 > tiny:
            grown = np.zeros((k + 1, k + 1))
            grown[:k, :k] = chol
            grown[k, :k] = ell
            grown[k, k] = np.sqrt(pivot2)
            chol = grown
            grown = np.empty((k + 1, k + 1))
            grown[:k, :k] = gram
            grown[k, :k] = grown[:k, k] = col
            grown[k, k] = diag[j]
            gram = grown
            act.append(j)
            theta = np.append(theta, sign)
            continue
        # x_j = X_A·v: moving β_A by −sign·t·v and β_j by sign·t keeps the
        # fit, and the L1 norm falls because |grad_j| = α|θ·v| > α.
        v = lapack.dtrtrs(chol, ell, lower=1, trans=1)[0] if act else ell
        step = -sign * v
        hit = np.flatnonzero(theta * step < 0)
        if not len(hit):
            break
        t = beta[act][hit] / -step[hit]
        pos = hit[int(np.argmin(t))]
        beta[act] += t.min() * step
        beta[j] = sign * t.min()
        beta[act[pos]] = 0.0
        del act[pos]
        act.append(j)
        theta = np.append(np.delete(theta, pos), sign)
        gram = design[:, act].T @ wx[:, act]
        chol = np.linalg.cholesky(gram)
    return beta


def _select_support_aic(
    design: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray,
    max_support: int = 250,
) -> np.ndarray:
    """Pick a sparse feature support with an AIC-scored lasso path.

    This mirrors the reference KernelExplainer's ``l1_reg="auto"``: most
    features end up with exactly zero attribution, which is what makes
    "explanation size = number of non-zero SHAP values" (Tables 7/11) a
    meaningful metric.  The lasso is solved exactly
    (:func:`_lasso_active_set`) at six alphas, 0.25 down to 0.003 of
    α_max, each warm-started from the one before, and AIC picks among
    their supports; the walk stops once a support outgrows
    ``max_support`` (larger supports only lose on AIC's 2k penalty).

    Solving at these alphas rather than walking the LARS path from α_max
    is deliberate: on 0/1 coalition designs with uniform weights many
    columns tie at α_max, and scoring AIC at every knot without the
    0.003 floor picks near-saturated supports.
    """
    n, m = design.shape
    correlations = np.abs((weights[:, None] * design).T @ response)
    alpha_max = float(correlations.max())
    if alpha_max <= 0:
        return np.zeros(m, dtype=bool)

    # Correlation screening: coordinates with tiny |x_jᵀWy| stay at zero
    # for every alpha on the path, so restrict the solve to the top
    # candidates (a sure-screening heuristic that makes M≈10⁴ tractable).
    screen_size = min(m, max(4 * max_support, 64))
    screened = np.sort(np.argsort(-correlations)[:screen_size])
    sub_design = design[:, screened]

    best_support_local = None
    best_aic = np.inf
    w_sum = weights.sum()
    beta = None
    for factor in (0.25, 0.1, 0.05, 0.02, 0.01, 0.003):
        beta = _lasso_active_set(
            sub_design, response, weights, alpha_max * factor, beta=beta
        )
        support = np.abs(beta) > 1e-10
        k = int(support.sum())
        if k == 0:
            continue
        resid = response - sub_design[:, support] @ beta[support]
        rss = float(weights @ (resid ** 2)) / max(w_sum, 1e-12)
        aic = n * np.log(max(rss, 1e-12)) + 2 * k
        if aic < best_aic:
            best_aic = aic
            best_support_local = support
        if k > max_support:
            break
    out = np.zeros(m, dtype=bool)
    if best_support_local is not None:
        out[screened[best_support_local]] = True
    return out


def kernel_shap(
    fn: ValueFunction,
    n_features: int,
    n_samples: int = 256,
    seed: int = 0,
    l1_regularization: str | float | None = "auto",
    max_samples: int = 2048,
) -> ShapResult:
    """KernelSHAP: constrained weighted least squares on sampled coalitions.

    ``l1_regularization="auto"`` runs AIC-scored lasso feature selection
    before the constrained refit, so most attributions are exactly zero
    (matching the reference implementation's behaviour and the paper's
    explanation-size metric).  Pass ``None``/``0`` for a dense solution or
    a float for a fixed lasso penalty.
    """
    m = n_features
    if m < 1:
        raise ValueError("need at least one feature")
    f = _CachingValueFunction(fn, m)
    base = f(np.zeros(m, dtype=bool))
    full = f(np.ones(m, dtype=bool))
    if m == 1:
        return ShapResult(
            values=np.array([full - base]),
            base_value=base,
            full_value=full,
            n_evaluations=f.n_evaluations,
            method="kernel",
        )

    rng = np.random.default_rng(seed)
    budget = max(n_samples, min(2 * m, max_samples))
    masks: List[np.ndarray] = []
    weights: List[float] = []

    # Enumerate whole (size, M-size) shells while they fit in the budget,
    # exactly like the reference KernelExplainer.
    sizes = list(range(1, m))
    remaining_sizes: List[int] = []
    paired: List[Tuple[int, ...]] = []
    seen_pairs = set()
    for s in sizes:
        partner = m - s
        key = (min(s, partner), max(s, partner))
        if key not in seen_pairs:
            seen_pairs.add(key)
            paired.append(key)
    remaining_budget = budget
    enumerated = set()
    for s_low, s_high in paired:
        shell = math.comb(m, s_low) + (math.comb(m, s_high) if s_high != s_low else 0)
        if shell > remaining_budget - len(paired):  # keep room to sample the rest
            # Shells only grow toward the middle sizes while the budget
            # only shrinks, so the first shell that doesn't fit ends the
            # enumeration — without this, a large-M call (e.g. a hub's
            # 1e4+ neighborhood skill assignments) grinds through tens
            # of thousands of astronomically-large binomials just to
            # reject them all.
            break
        for subset in itertools.combinations(range(m), s_low):
            mask = np.zeros(m, dtype=bool)
            mask[list(subset)] = True
            masks.append(mask)
            weights.append(_kernel_weight(m, s_low))
        if s_high != s_low:
            for subset in itertools.combinations(range(m), s_high):
                mask = np.zeros(m, dtype=bool)
                mask[list(subset)] = True
                masks.append(mask)
                weights.append(_kernel_weight(m, s_high))
        enumerated.add(s_low)
        enumerated.add(s_high)
        remaining_budget -= shell

    sample_sizes = [s for s in sizes if s not in enumerated]
    if sample_sizes and remaining_budget > 0:
        # Draw sizes with p(s) ∝ π(s)·C(M,s) ∝ 1/(s(M−s)); then every draw
        # carries an equal share of the leftover kernel mass, which keeps
        # sampled rows on the same weight scale as the enumerated shells.
        probs = np.array([1.0 / (s * (m - s)) for s in sample_sizes])
        probs /= probs.sum()
        # π(s)·C(M,s) simplifies to (M−1)/(s(M−s)) — computing it directly
        # avoids overflowing C(M,s) for mid-range s at large M.
        leftover_mass = sum((m - 1) / (s * (m - s)) for s in sample_sizes)
        per_draw_weight = leftover_mass / remaining_budget
        for _ in range(remaining_budget):
            s = int(rng.choice(sample_sizes, p=probs))
            subset = rng.choice(m, size=s, replace=False)
            mask = np.zeros(m, dtype=bool)
            mask[subset] = True
            masks.append(mask)
            weights.append(per_draw_weight)

    z = np.asarray(masks, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    try:
        f.prefetch(masks)  # whole coalition set in batched probe flushes
        y = np.array([f(mask) for mask in masks]) - base
    except BudgetExceeded as exc:
        return _partial_from_cache(
            f, m, base, full, exc.reason, method="kernel-partial"
        )
    delta = full - base

    # Optional sparsification: restrict the regression to a lasso-selected
    # support; everything outside it gets an exactly-zero attribution.
    if l1_regularization in (None, 0, 0.0, False):
        active = np.ones(m, dtype=bool)
    else:
        if l1_regularization == "auto":
            active = _select_support_aic(z, y, w)
        else:
            beta = _lasso_active_set(z, y, w, float(l1_regularization))
            active = np.abs(beta) > 1e-10
        if not active.any():
            # Constraint Σφ = Δ must still hold: give it to the single most
            # correlated feature (degenerate but consistent fallback).
            corr = np.abs((w[:, None] * z).T @ y)
            active = np.zeros(m, dtype=bool)
            active[int(np.argmax(corr))] = True

    phi = _constrained_phi(z, y, w, delta, active)
    return ShapResult(
        values=phi,
        base_value=base,
        full_value=full,
        n_evaluations=f.n_evaluations,
        method="kernel",
    )


@dataclass
class ShapExplainer:
    """Chooses the estimator from the feature count.

    ``exact_limit`` features or fewer → exact enumeration; otherwise
    KernelSHAP with between ``n_samples`` and ``max_samples`` coalition
    evaluations (2·M when it fits the cap) and the given L1 mode.
    """

    exact_limit: int = 10
    n_samples: int = 256
    seed: int = 0
    l1_regularization: str | float | None = "auto"
    max_samples: int = 2048

    def explain(self, fn: ValueFunction, n_features: int) -> ShapResult:
        if n_features <= 0:
            return ShapResult(
                values=np.zeros(0),
                base_value=0.0,
                full_value=0.0,
                n_evaluations=0,
                method="empty",
            )
        if n_features <= self.exact_limit:
            return exact_shap(fn, n_features)
        return kernel_shap(
            fn,
            n_features,
            n_samples=self.n_samples,
            seed=self.seed,
            l1_regularization=self.l1_regularization,
            max_samples=self.max_samples,
        )
