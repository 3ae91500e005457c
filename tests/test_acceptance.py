"""Acceptance suite: one test per release criterion, at stated tolerances.

Each passing test prints one line; run with ``pytest -v`` (test names) or
``pytest -s`` (explicit PASS lines) to see the per-criterion outcome.

Two criteria were once stated in forms their methods cannot meet; both now
check the same property against a reference that does hold:

* Criterion 5 compares the solver with a continuous backward induction
  written below (``ReferenceInduction``), to within 1e-3 points on every
  stage and the aggregate. It used to require the step-1 grid oracle
  (``oracle_grid_spne``) to lie within one grid step of the solver. The
  oracle solves the discrete game exactly, but with two sequential
  responders its path is O(sqrt(h)) from the continuous one, not O(h):
  each one-cell drop in a later mover's grid response is worth about 0.4*h
  to an earlier mover, while the leader's continuous objective curves by
  only about 0.003 payoff/pt^2. The (1,1,1) leader invests 96, 89, 82.5,
  83.75, 87.9 and 89.15 at h = 2, 1, 0.5, 0.25, 0.1 and 0.05, against the
  continuous 86.19, and (2,1) misses by 4.5 at h = 4.

* Criterion 9 builds the nominal 95% cluster-robust interval with the
  t(G-1) critical value (2.2622 for 10 clusters), as Cameron & Miller
  (JHR 2015) prescribe. It used to count +-2 SE intervals, which cover
  P(|t_9| <= 2) = 92.35% by construction (0.9225 over 2,000 replications
  at the seed used here), so their 95% bar could not be met. The check
  runs 2,000 replications and allows three binomial standard errors below
  95%, a bound the +-2 SE interval fails.
"""

import itertools
import math
import time
from collections import defaultdict

import numpy as np
import pytest
from scipy import stats as sps

from seqcontest.core import ContestSpec, MoveSequence, win_probabilities
from seqcontest.behavior import default_response_models, optimal_first_mover
from seqcontest.equilibrium import calibrate_jow, solve_spne
from seqcontest.simulate import SessionConfig, play_round, run_session
from seqcontest.behavior import EquilibriumPolicy
from seqcontest.stats import (
    cluster_ols,
    jonckheere_terpstra,
    treatment_summary,
)

from oracles import jonckheere_terpstra_exact

TREATMENTS = [(3,), (1, 2), (2, 1), (1, 1, 1)]

TABLE_SPNE = {
    (3,): ((53.33, 53.33, 53.33), 160.0),
    (1, 2): ((90.0, 45.0, 45.0), 180.0),
    (2, 1): ((67.5, 67.5, 45.0), 180.0),
    (1, 1, 1): ((86.19, 63.09, 40.00), 189.28),
}

TABLE_JOW = {
    (1, 2): ((134.90, 67.45, 67.45), 269.80),
    (2, 1): ((101.17, 101.17, 67.45), 269.80),
    (1, 1, 1): ((129.17, 94.58, 59.97), 283.72),
}

PREEMPTION = {
    ((1, 2), 119.73): 72.03,
    ((2, 1), 119.73): 83.11,
    ((1, 1, 1), 119.73): 68.48,
    ((1, 2), 0.0): 48.06,
    ((2, 1), 0.0): 55.45,
    ((1, 1, 1), 0.0): 45.69,
}


def report(number, text):
    print(f"ACCEPTANCE CRITERION {number}: PASS - {text}")


def test_criterion_1_table_spne_reproduction():
    start = time.monotonic()
    for stages, (players, aggregate) in TABLE_SPNE.items():
        solution = solve_spne(ContestSpec(MoveSequence(stages)))
        assert solution.per_player_investments() == pytest.approx(players, abs=0.02)
        assert solution.scaled_aggregate == pytest.approx(aggregate, abs=0.02)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"equilibrium table reproduced in {elapsed:.3f}s")


def test_criterion_2_joy_of_winning_calibration():
    start = time.monotonic()
    w = calibrate_jow(79.94, 3, 240.0)
    assert w == pytest.approx(119.73, abs=0.01)
    for stages, (players, aggregate) in TABLE_JOW.items():
        solution = solve_spne(ContestSpec(MoveSequence(stages), joy_of_winning=w))
        assert solution.per_player_investments() == pytest.approx(players, abs=0.05)
        assert solution.scaled_aggregate == pytest.approx(aggregate, abs=0.05)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"calibrated w={w:.2f} and adjusted table reproduced in {elapsed:.3f}s")


def test_criterion_3_preemption_numbers():
    start = time.monotonic()
    for (stages, jow), expected in PREEMPTION.items():
        seq = MoveSequence(stages)
        models = default_response_models(seq)
        result = optimal_first_mover(seq, models, 240.0, jow)
        assert result.investment == pytest.approx(expected, abs=0.05), (stages, jow)

        # exhaustive grid search of the same objective, step 0.01
        p_eff = 240.0 + jow

        def scaled(model, m1, m2=None):
            c = p_eff / model.fit_effective_prize
            return c * model.mean_response(m1 / c, None if m2 is None else m2 / c)

        xs = np.arange(0.0, 240.0 + 1e-9, 0.01)
        if stages == (1, 2):
            others = 2.0 * scaled(models[2], xs)
        elif stages == (1, 1, 1):
            second = scaled(models[2], xs)
            others = second + scaled(models[3], xs, second)
        else:
            # two leaders: grid search each leader's payoff against the
            # equilibrium investment of the other
            x_other = result.investment
            m1 = (xs + x_other) / 2.0
            others = x_other + scaled(models[2], m1)
        totals = xs + others
        payoffs = np.where(totals > 0, p_eff * xs / np.where(totals > 0, totals, 1), p_eff / 3) - xs
        grid_best = float(xs[np.argmax(payoffs)])
        assert abs(result.investment - grid_best) <= 0.02, (stages, jow)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(3, f"all six preemption optima and grid cross-checks in {elapsed:.2f}s")


def test_criterion_4_prediction_orderings():
    aggregates = {
        stages: solve_spne(ContestSpec(MoveSequence(stages))).aggregate
        for stages in TREATMENTS
    }
    assert aggregates[(3,)] < aggregates[(1, 2)]
    assert abs(aggregates[(1, 2)] - aggregates[(2, 1)]) < 1e-12
    assert aggregates[(2, 1)] < aggregates[(1, 1, 1)]
    for stages in [(1, 2), (2, 1), (1, 1, 1)]:
        inv = solve_spne(ContestSpec(MoveSequence(stages))).stage_investments
        assert all(a > b for a, b in zip(inv, inv[1:])), stages
    two_seq = solve_spne(ContestSpec(MoveSequence((1, 1)))).aggregate
    two_sim = solve_spne(ContestSpec(MoveSequence((2,)))).aggregate
    assert abs(two_seq - two_sim) < 1e-12
    report(4, "aggregate ranking, earlier-mover ordering, two-player neutrality")


def _bisect_root(g, lo, hi):
    """Root of ``g`` on [lo, hi], given g > 0 below it and g <= 0 above it,
    bisected until the interval cannot shrink in floating point."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid


def _golden_max(f, lo, hi, tol=1e-10):
    """Maximiser of a unimodal ``f`` on [lo, hi] by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fa, fb = f(a), f(b)
    while hi - lo > tol:
        if fa >= fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = f(b)
    return 0.5 * (lo + hi)


def _no_followers(total):
    """Final total, and its slope in the total so far, when nobody follows."""
    return total, 1.0


class ReferenceInduction:
    """Continuous backward induction for the four 3-player treatments.

    Independent of the solver's recursion polynomials: every response comes
    from its own first-order condition. A player investing x, who leaves the
    total at S and anticipates a final total T(S), has the first-order
    condition V * (T - x * T'(S)) / T**2 = 1, for effective prize V.

    * A single last mover answers S with r(S) = clip(sqrt(V*S) - S, 0, E).
    * A simultaneous stage, and the second mover of (1,1,1), play the
      symmetric root of that condition, found by bisection.
    * First movers of (1,2) and (1,1,1) maximise their payoff, with the
      followers' responses plugged in, by golden-section search.

    The leaders' objectives are very flat (the (1,1,1) leader's curves by
    about 0.003 payoff/pt^2), so the inner responses are bisected to machine
    precision rather than searched: a nested golden-section search for the
    (1,1,1) second mover, run to a 1e-10 bracket, leaves enough noise in the
    leader's payoff to move its optimum by 0.003 points, three times the
    tolerance of criterion 5.
    """

    def __init__(self, prize=240.0, endowment=240.0):
        self.v = prize
        self.e = endowment

    def last_mover(self, before):
        return min(max(math.sqrt(self.v * before) - before, 0.0), self.e)

    def last_total(self, before):
        """Final total, and its slope, after a single last mover answers."""
        r = math.sqrt(self.v * before) - before
        if 0.0 < r < self.e:
            return before + r, 0.5 * math.sqrt(self.v / before)
        return before + min(max(r, 0.0), self.e), 1.0

    def stage(self, before, k, followers=_no_followers):
        """Symmetric investment of a stage of k players moving after ``before``."""

        def foc(x):
            total, slope = followers(before + k * x)
            return self.v * (total - x * slope) / total**2 - 1.0

        if foc(self.e) >= 0:
            return self.e
        if before > 0 and foc(0.0) <= 0:
            return 0.0
        return _bisect_root(foc, 0.0, self.e)

    def leader(self, final_total):
        """Best first investment, given the final total each one leads to.

        A scan at 1/240 of the endowment picks the bracket, so the golden
        section does not rely on the payoff being unimodal over [0, E]."""

        def payoff(x):
            return self.v * x / final_total(x) - x

        cells = 240
        grid = [self.e * i / cells for i in range(cells + 1)]
        best = max(range(1, cells + 1), key=lambda i: payoff(grid[i]))
        return _golden_max(payoff, grid[best - 1], grid[min(best + 1, cells)])

    def stage_investments(self, stages):
        if stages == (3,):
            return (self.stage(0.0, 3),)
        if stages == (2, 1):
            x = self.stage(0.0, 2, self.last_total)
            return (x, self.last_mover(2.0 * x))
        if stages == (1, 2):
            x1 = self.leader(lambda x: x + 2.0 * self.stage(x, 2))
            return (x1, self.stage(x1, 2))
        if stages == (1, 1, 1):

            def second(x1):
                return self.stage(x1, 1, self.last_total)

            x1 = self.leader(lambda x: self.last_total(x + second(x))[0])
            x2 = second(x1)
            return (x1, x2, self.last_mover(x1 + x2))
        raise ValueError(f"no reference for {stages}")


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    tol = 1e-3
    reference = ReferenceInduction()
    violations = []
    for stages in TREATMENTS:
        label = MoveSequence(stages).label()
        analytic = solve_spne(ContestSpec(MoveSequence(stages)))
        expected = reference.stage_investments(stages)
        for t, (a, b) in enumerate(
            zip(expected, analytic.scaled_stage_investments, strict=True), start=1
        ):
            if abs(a - b) > tol:
                violations.append(
                    f"{label} stage {t}: reference {a:.6f} vs solver {b:.6f}"
                )
        aggregate = sum(k * x for k, x in zip(stages, expected))
        if abs(aggregate - analytic.scaled_aggregate) > tol:
            violations.append(
                f"{label} aggregate: reference {aggregate:.6f} vs solver "
                f"{analytic.scaled_aggregate:.6f}"
            )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert not violations, (
        f"solver departs by more than {tol} points from the continuous "
        "backward induction built on first-order conditions. (The step-h grid "
        "oracle is no such reference: with two sequential responders its path "
        "moves by O(sqrt(h)); at h = 1 the (1,1,1) leader invests 89 against "
        "86.19.) " + "; ".join(violations)
    )
    report(5, f"solver matches backward induction to {tol} for all treatments in {elapsed:.2f}s")


def test_criterion_6_homogeneity():
    prizes = [1.0, 240.0, 359.73, 1000.0]
    sequences = []
    for n in range(1, 7):
        for t in range(1, n + 1):
            for cuts in itertools.combinations(range(1, n), t - 1):
                parts, prev = [], 0
                for cut in list(cuts) + [n]:
                    parts.append(cut - prev)
                    prev = cut
                sequences.append(tuple(parts))
    for stages in sequences:
        seq = MoveSequence(stages)
        base = solve_spne(ContestSpec(seq, prize=1.0))
        for prize in prizes[1:]:
            sol = solve_spne(ContestSpec(seq, prize=prize))
            assert sol.scaled_aggregate == pytest.approx(
                prize * base.scaled_aggregate, rel=1e-9
            )
            for a, b in zip(
                sol.scaled_stage_investments, base.scaled_stage_investments
            ):
                assert a == pytest.approx(prize * b, rel=1e-9, abs=1e-12)
    report(6, f"scaled solutions linear in effective prize for {len(sequences)} sequences")


def test_criterion_7_simulator_integrity():
    start = time.monotonic()
    expected_counts = {(3,): 2025, (1, 2): 2250, (2, 1): 2025, (1, 1, 1): 2025}
    group_layout = {(3,): 9, (1, 2): 10, (2, 1): 9, (1, 1, 1): 9}
    for stages in TREATMENTS:
        config = SessionConfig(
            spec=ContestSpec(MoveSequence(stages)),
            policies=(EquilibriumPolicy(),) * 3,
            groups=group_layout[stages],
            rounds=25,
            seed=1234,
        )
        log = run_session(config)
        assert len(log.records) == expected_counts[stages]
        triads = defaultdict(list)
        for r in log.records:
            triads[(r.group, r.round, r.triad)].append(r)
        for rs in triads.values():
            assert sum(r.won for r in rs) == 1
            balance = sum(r.payoff for r in rs) - (3 * 240 + 240 - sum(r.investment for r in rs))
            assert abs(balance) < 1e-9

    # empirical win rates over 100,000 triad-rounds vs the success function
    spec = ContestSpec(MoveSequence((1, 2)))
    policies = (EquilibriumPolicy(),) * 3
    probs = np.asarray(win_probabilities(solve_spne(spec).per_player_investments()))
    rng = np.random.default_rng(777)
    m = 100_000
    wins = np.zeros(3)
    for _ in range(m):
        for i, record in enumerate(play_round(policies, spec, rng)):
            if record.won:
                wins[i] += 1
    freq = wins / m
    sigma = np.sqrt(probs * (1 - probs) / m)
    assert np.all(np.abs(freq - probs) < 3 * sigma), (freq, probs)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(7, f"record counts, conservation, win rates {np.round(freq, 4)} in {elapsed:.1f}s")


def test_criterion_8_statistics_oracles():
    # hand-computed 2-cluster sandwich fixture, exact rational values
    fit = cluster_ols(
        [1.0, 2.0, 2.0, 4.0],
        [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]],
        [0, 0, 1, 1],
    )
    assert fit.params == pytest.approx((0.9, 0.9), abs=1e-10)
    assert fit.cov == pytest.approx(
        np.array([[0.135, -0.045], [-0.045, 0.015]]), abs=1e-10
    )
    assert fit.se == pytest.approx(
        (math.sqrt(0.135), math.sqrt(0.015)), abs=1e-10
    )

    # exact JT enumeration on small ordered samples (N <= 8), against an
    # independent permutation-based oracle
    def perm_oracle(groups):
        def stat(gs):
            s = 0.0
            for i in range(len(gs)):
                for j in range(i + 1, len(gs)):
                    for a in gs[i]:
                        for b in gs[j]:
                            s += (a < b) + 0.5 * (a == b)
            return s

        sizes = [len(g) for g in groups]
        pooled = [v for g in groups for v in g]
        observed = stat(groups)
        n_ge = total = 0
        for perm in itertools.permutations(pooled):
            parts, pos = [], 0
            for size in sizes:
                parts.append(perm[pos : pos + size])
                pos += size
            total += 1
            if stat(parts) >= observed - 1e-9:
                n_ge += 1
        return observed, n_ge / total

    rng = np.random.default_rng(55)
    cases = [[[1, 2], [3, 4], [5, 6]], [[2, 2], [2, 2], [2, 2]]]
    while len(cases) < 10:
        sizes = rng.integers(2, 4, 3)
        if sizes.sum() <= 8:
            cases.append([rng.integers(0, 3, s).tolist() for s in sizes])
    for groups in cases:
        observed, p_ge = perm_oracle(groups)
        approx = jonckheere_terpstra(groups)
        exact = jonckheere_terpstra_exact(groups)
        assert approx.statistic == pytest.approx(observed)
        assert exact.statistic == pytest.approx(observed)
        assert exact.pvalue_greater == pytest.approx(p_ge)

    # deterministic equilibrium-agent logs reproduce the criterion-1 table
    # with zero standard errors
    for stages, (players, aggregate) in TABLE_SPNE.items():
        config = SessionConfig(
            spec=ContestSpec(MoveSequence(stages)),
            policies=(EquilibriumPolicy(),) * 3,
            groups=3,
            rounds=10,
            seed=9,
        )
        summary = treatment_summary(run_session(config))[0]
        assert summary.role_means == pytest.approx(players, abs=0.02)
        assert summary.aggregate_mean == pytest.approx(aggregate, abs=0.02)
        assert summary.role_ses == pytest.approx((0.0,) * 3, abs=1e-9)
        assert summary.aggregate_se == pytest.approx(0.0, abs=1e-9)
    report(8, "sandwich fixture, exact JT enumeration, deterministic summaries")


def test_criterion_9_monte_carlo_coverage():
    # Data generated from the estimated second-mover response for the
    # one-leader treatment: 1,200 observations, 10 balanced clusters,
    # Gaussian noise. Count replications where the nominal 95% interval,
    # refitted intercept +- t_0.975(G-1) cluster-robust SEs, holds the truth.
    rng = np.random.default_rng(20240501)
    n, g, reps = 1200, 10, 2000
    beta = (62.72, 0.091, 9.6e-5)
    critical = sps.t.ppf(0.975, g - 1)
    covered = 0
    for _ in range(reps):
        m1 = rng.uniform(0, 240, n)
        design = np.column_stack([np.ones(n), m1, m1**2])
        y = design @ beta + 60.0 * rng.standard_normal(n)
        fit = cluster_ols(y, design, np.repeat(np.arange(g), n // g))
        if abs(fit.params[0] - beta[0]) <= critical * fit.se[0]:
            covered += 1
    coverage = covered / reps
    bound = 0.95 - 3.0 * math.sqrt(0.95 * 0.05 / reps)
    assert coverage >= bound, (
        f"t({g - 1}) 95% interval covers {coverage:.4f} < {bound:.4f}, three "
        f"binomial SEs below 95% over {reps} replications. With {g} clusters "
        f"the t-ratio is close to t({g - 1}), so the interval needs the "
        f"critical value {critical:.4f}; +-2 SE covers only "
        f"P(|t_9| <= 2) = 0.9235"
    )
    report(9, f"t({g - 1}) 95% interval Monte Carlo coverage {coverage:.4f} >= {bound:.4f}")
