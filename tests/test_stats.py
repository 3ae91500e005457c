"""Tests for the analysis pipeline.

The 2-cluster regression fixture was computed by hand with exact rational
arithmetic; the decimal expected values below are exact.
"""

import collections
import copy
import dataclasses
import itertools
import json
import math
import pickle
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from scipy import stats as sps

from seqcontest.core import ContestError, ContestSpec, MoveSequence
from seqcontest.behavior import EquilibriumPolicy
from seqcontest.equilibrium import solve_spne
from seqcontest import log as log_module
from seqcontest import stats
from seqcontest.log import RoundRecord, export_log, load_log
from seqcontest.simulate import (
    SessionConfig,
    run_batch,
    run_session,
    session_config_from_dict,
)
from seqcontest.stats import (
    EmptyLog,
    RankDeficientDesign,
    TooFewClusters,
    TooFewGroups,
    cluster_ols,
    group_aggregate_means,
    jonckheere_terpstra,
    last_rounds,
    treatment_summary,
    trend_by_round,
    triad_totals,
    wald_mean,
)

import oracles
from oracles import jonckheere_terpstra_exact

# y = (1, 2, 2, 4) on x = (0, 1, 2, 3), intercept + slope, clusters (0,0,1,1).
# Exact: beta = (9/10, 9/10), cov = ((27/200, -9/200), (-9/200, 3/200)),
# R^2 = 81/95.
FIXTURE_Y = [1.0, 2.0, 2.0, 4.0]
FIXTURE_X = [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]
FIXTURE_CLUSTERS = [0, 0, 1, 1]
FIXTURE_BETA = (0.9, 0.9)
FIXTURE_COV = ((0.135, -0.045), (-0.045, 0.015))
FIXTURE_R2 = 81.0 / 95.0


class TestClusterOls:
    def test_hand_computed_fixture(self):
        fit = cluster_ols(FIXTURE_Y, FIXTURE_X, FIXTURE_CLUSTERS)
        assert fit.params == pytest.approx(FIXTURE_BETA, abs=1e-10)
        assert fit.cov == pytest.approx(np.array(FIXTURE_COV), abs=1e-10)
        assert fit.se == pytest.approx(
            (math.sqrt(0.135), math.sqrt(0.015)), abs=1e-10
        )
        assert fit.r_squared == pytest.approx(FIXTURE_R2, abs=1e-12)
        assert fit.nobs == 4 and fit.n_clusters == 2

    def test_exact_linear_data(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 10, 30)
        y = 2.0 + 3.0 * x
        fit = cluster_ols(y, np.column_stack([np.ones(30), x]), np.arange(30) % 5)
        assert fit.params == pytest.approx((2.0, 3.0), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.se == pytest.approx((0.0, 0.0), abs=1e-8)

    def test_reduces_to_hc1_with_singleton_clusters(self):
        rng = np.random.default_rng(2)
        n = 40
        x = rng.uniform(0, 10, n)
        y = 1.0 + 0.5 * x + rng.standard_normal(n) * (1 + x / 10)
        X = np.column_stack([np.ones(n), x])
        fit = cluster_ols(y, X, np.arange(n))
        # independent HC1 computation
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        u = y - X @ beta
        bread = np.linalg.inv(X.T @ X)
        meat = (X * u[:, None] ** 2).T @ X
        hc1 = n / (n - 2) * bread @ meat @ bread
        assert fit.cov == pytest.approx(hc1, rel=1e-10)

    def test_cov_symmetric_psd(self):
        rng = np.random.default_rng(3)
        n = 60
        X = np.column_stack([np.ones(n), rng.uniform(0, 5, n), rng.uniform(0, 5, n)])
        y = X @ (1.0, 2.0, -1.0) + rng.standard_normal(n) * 3
        fit = cluster_ols(y, X, rng.integers(0, 6, n))
        assert fit.cov == pytest.approx(fit.cov.T)
        assert np.all(np.linalg.eigvalsh(fit.cov) > -1e-12)

    def test_rank_deficient_rejected(self):
        X = [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]
        with pytest.raises(RankDeficientDesign):
            cluster_ols([1, 2, 3, 4], X, [0, 0, 1, 1])

    @pytest.mark.parametrize("scale", [1e-8, 1e-10])
    def test_design_without_digits_rejected(self, scale):
        # the second column is 1 + scale * x, so the true slope on it is
        # 3 / scale (3e8 and 3e10); forming X'X leaves no digit of it
        rng = np.random.default_rng(12)
        n = 200
        x = rng.uniform(0.0, 10.0, n)
        design = np.column_stack([np.ones(n), 1.0 + scale * x])
        y = 5.0 + 3.0 * x + rng.standard_normal(n)
        with pytest.raises(RankDeficientDesign):
            cluster_ols(y, design, np.arange(n) % 10)

    @pytest.mark.parametrize("column_scale", [1e-100, 1.0, 1e100])
    def test_rank_tolerance_is_relative_to_each_column(self, column_scale):
        # with z = +-1 the second column's pivot is h^2 / (1 + h^2) of its
        # sum of squares, whatever the column's scale: 1e-8 fits, 1e-12 raises
        n = 40
        z = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        clusters = np.arange(n) % 4
        y = 2.0 + z
        for h, fits in ((1e-4, True), (1e-6, False)):
            design = np.column_stack([np.ones(n), column_scale * (1.0 + h * z)])
            if fits:
                fit = cluster_ols(y, design, clusters)
                assert fit.params[1] * column_scale * h == pytest.approx(1.0, rel=1e-6)
            else:
                with pytest.raises(RankDeficientDesign):
                    cluster_ols(y, design, clusters)

    def test_zero_column_rejected(self):
        with pytest.raises(RankDeficientDesign):
            cluster_ols(FIXTURE_Y, np.zeros((4, 1)), FIXTURE_CLUSTERS)

    def test_single_cluster_rejected(self):
        with pytest.raises(TooFewClusters):
            cluster_ols([1.0, 2.0], np.ones((2, 1)), [5, 5])

    def test_one_dimensional_design_is_one_column(self):
        x = np.array(FIXTURE_X)[:, 1]
        flat = cluster_ols(FIXTURE_Y, x, FIXTURE_CLUSTERS)
        column = cluster_ols(FIXTURE_Y, x[:, None], FIXTURE_CLUSTERS)
        assert np.array_equal(flat.params, column.params)
        assert np.array_equal(flat.cov, column.cov)
        assert (flat.r_squared, flat.nobs, flat.n_clusters) == (
            column.r_squared, column.nobs, column.n_clusters
        )

    @pytest.mark.parametrize("clusters, shape", [([1, 2, 2], 3), ([1, 1, 2, 2, 3], 5)])
    def test_clusters_of_another_length_rejected(self, clusters, shape):
        with pytest.raises(ContestError, match=rf"clusters has shape \({shape},\), expected \(4,\)"):
            cluster_ols([1.0, 2.0, 3.0, 4.0], np.ones(4), clusters)

    def test_y_of_another_length_rejected(self):
        with pytest.raises(ContestError, match=r"y has shape \(3,\), expected \(4,\)"):
            cluster_ols(FIXTURE_Y[:3], FIXTURE_X, FIXTURE_CLUSTERS)

    def test_no_more_observations_than_coefficients_rejected(self):
        with pytest.raises(RankDeficientDesign, match="2 observations cannot identify 2"):
            cluster_ols(FIXTURE_Y[:2], FIXTURE_X[:2], [0, 1])

    def test_monte_carlo_recovery_and_calibration(self):
        # DGP: the bundled (1,2) second-mover response plus iid Gaussian
        # noise; 1,200 observations in 10 balanced clusters. With 10
        # clusters the t-ratio on the intercept is t(9)-distributed, so the
        # +-2 SE interval covers P(|t_9| <= 2) ~ 0.9235 of replications, not
        # 95%; the t(9)-critical interval attains its nominal 95%.
        rng = np.random.default_rng(20250809)
        n, g, reps = 1200, 10, 400
        beta = (62.72, 0.091, 9.6e-5)
        tcrit = sps.t.ppf(0.975, g - 1)
        cover2 = covert = 0
        estimates = []
        for _ in range(reps):
            m1 = rng.uniform(0, 240, n)
            X = np.column_stack([np.ones(n), m1, m1**2])
            y = X @ beta + 60.0 * rng.standard_normal(n)
            fit = cluster_ols(y, X, np.repeat(np.arange(g), n // g))
            err = abs(fit.params[0] - beta[0])
            estimates.append(fit.params[0])
            cover2 += err <= 2.0 * fit.se[0]
            covert += err <= tcrit * fit.se[0]
        theoretical = 2 * sps.t.cdf(2.0, g - 1) - 1  # 0.9235
        assert abs(cover2 / reps - theoretical) < 0.035
        assert abs(covert / reps - 0.95) < 0.035
        # unbiased recovery of the intercept
        assert np.mean(estimates) == pytest.approx(62.72, abs=0.75)


class TestWaldMean:
    def test_mean_at_hypothesis(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(40)
        values -= values.mean()  # force mean exactly ~0
        res = wald_mean(values, np.arange(40) % 4, 0.0)
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.pvalue == pytest.approx(1.0)

    def test_constant_within_cluster_fixture(self):
        # y = (1,1,3,3), clusters (1,1,2,2): mean 2, clustered SE exactly 1
        res = wald_mean([1.0, 1.0, 3.0, 3.0], [1, 1, 2, 2], 0.0)
        assert res.mean == pytest.approx(2.0)
        assert res.se == pytest.approx(1.0, abs=1e-12)
        assert res.statistic == pytest.approx(4.0, abs=1e-10)
        assert res.pvalue == pytest.approx(float(sps.chi2.sf(4.0, 1)), abs=1e-12)

    @pytest.mark.parametrize("w", [0.0, 1e-12, 0.5, 3.84, 50.0, 700.0])
    def test_pvalue_matches_chi2_oracle(self, w):
        # the fixture above has mean 2 and clustered SE 1, so W = (2 - h0)**2
        res = wald_mean([1.0, 1.0, 3.0, 3.0], [1, 1, 2, 2], 2.0 - math.sqrt(w))
        assert res.statistic == pytest.approx(w, rel=1e-9, abs=1e-15)
        oracle = float(sps.chi2.sf(res.statistic, 1))
        assert res.pvalue == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_degenerate_zero_variance(self):
        exact = solve_spne(ContestSpec(MoveSequence((3,)))).scaled_stage_investments[0]
        values = [exact] * 12
        clusters = [i // 3 for i in range(12)]
        res = wald_mean(values, clusters, exact)
        assert res.degenerate
        assert res.pvalue == 1.0
        res2 = wald_mean(values, clusters, exact + 1.0)
        assert res2.degenerate
        assert res2.pvalue == 0.0

    def test_too_few_clusters(self):
        with pytest.raises(TooFewClusters):
            wald_mean([1.0, 2.0], [0, 0], 0.0)

    @pytest.mark.parametrize("clusters, shape", [([1, 1, 2], 3), ([1, 1, 2, 2, 3], 5)])
    def test_clusters_of_another_length_rejected(self, clusters, shape):
        with pytest.raises(ContestError, match=rf"clusters has shape \({shape},\), expected \(4,\)"):
            wald_mean([1.0, 2.0, 3.0, 4.0], clusters, 2.0)


def brute_force_jt(groups):
    stat = 0.0
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            for a in groups[i]:
                for b in groups[j]:
                    stat += (a < b) + 0.5 * (a == b)
    return stat


def brute_force_exact_p(groups):
    """One-sided exact p by enumerating permutations of the pooled data."""
    sizes = [len(g) for g in groups]
    pooled = [v for g in groups for v in g]
    observed = brute_force_jt(groups)
    n_ge = total = 0
    for perm in itertools.permutations(pooled):
        parts, pos = [], 0
        for size in sizes:
            parts.append(perm[pos : pos + size])
            pos += size
        total += 1
        if brute_force_jt(parts) >= observed - 1e-9:
            n_ge += 1
    return n_ge / total


class TestJonckheereTerpstra:
    def test_maximal_separation_example(self):
        res = jonckheere_terpstra([[1, 2], [3, 4], [5, 6]])
        assert res.statistic == 12.0
        assert res.zscore > 0
        exact = jonckheere_terpstra_exact([[1, 2], [3, 4], [5, 6]])
        assert exact.pvalue_greater == pytest.approx(1 / 90)
        assert exact.pvalue == pytest.approx(2 / 90)

    def test_all_identical(self):
        res = jonckheere_terpstra([[5, 5], [5, 5, 5], [5]])
        assert res.zscore == 0.0
        assert res.pvalue == 1.0

    def test_statistic_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = int(rng.integers(3, 5))
            groups = [
                rng.integers(0, 4, rng.integers(2, 5)).astype(float).tolist()
                for _ in range(k)
            ]
            res = jonckheere_terpstra(groups)
            assert res.statistic == pytest.approx(brute_force_jt(groups))

    def test_exact_p_matches_permutation_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            sizes = rng.integers(2, 3 + 1, 3)
            while sizes.sum() > 7:
                sizes = rng.integers(2, 3 + 1, 3)
            groups = [
                rng.integers(0, 3, s).astype(float).tolist() for s in sizes
            ]
            exact = jonckheere_terpstra_exact(groups)
            assert exact.pvalue_greater == pytest.approx(brute_force_exact_p(groups))

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(8)
        groups = [rng.uniform(0, 100, 6) for _ in range(4)]
        base = jonckheere_terpstra(groups)
        warped = jonckheere_terpstra([np.exp(g / 25.0) for g in groups])
        assert warped.statistic == base.statistic
        assert warped.zscore == pytest.approx(base.zscore)

    def test_normal_approximation_tracks_exact(self):
        groups = [[1.0, 3.0, 2.0], [4.0, 2.0, 5.0], [6.0, 5.0, 8.0]]
        approx = jonckheere_terpstra(groups)
        exact = jonckheere_terpstra_exact(groups)
        assert approx.statistic == exact.statistic
        assert abs(approx.pvalue - exact.pvalue) < 0.05

    @pytest.mark.parametrize(
        "z, n, shift",
        [
            (0.0, 5, 0.0),
            (1.0, 8, 0.75),
            (1.96, 50, 3.0),
            (5.0, 406, 21.25),
            (37.0, 406, 406.0),
        ],
    )
    def test_pvalue_matches_normal_oracle(self, z, n, shift):
        # three groups of n ranks, each shifted up by `shift` from the last
        res = jonckheere_terpstra([np.arange(n) + j * shift for j in range(3)])
        assert res.zscore == pytest.approx(z, abs=0.02)
        oracle = 2.0 * float(sps.norm.sf(abs(res.zscore)))
        assert res.pvalue == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_too_few_groups(self):
        with pytest.raises(TooFewGroups):
            jonckheere_terpstra([[1, 2], [3, 4]])

    def test_empty_group_rejected(self):
        with pytest.raises(ContestError, match="at least one observation"):
            jonckheere_terpstra([[1, 2], [], [3, 4]])

    def test_exact_size_limit(self):
        with pytest.raises(ContestError):
            jonckheere_terpstra_exact([[1.0] * 4, [2.0] * 4, [3.0] * 4])

    def test_lab_layout_monte_carlo_power(self):
        # 4 treatments with group counts 9/10/9/9 and strictly decreasing
        # means: a small-noise trend must be detected at the 5% level
        rng = np.random.default_rng(9)
        means = [255, 230, 220, 205]
        sizes = [9, 10, 9, 9]
        groups = [
            m + rng.standard_normal(s) * 10 for m, s in zip(means, sizes)
        ]
        res = jonckheere_terpstra(groups[::-1])  # increasing order
        assert res.pvalue < 0.05


def make_records(rows):
    return [
        RoundRecord(
            group=g,
            round=rnd,
            triad=t,
            subject=s,
            stage=stage,
            slot=slot,
            m1=None,
            m2=None,
            investment=inv,
            won=False,
            payoff=240.0 - inv,
        )
        for (g, rnd, t, s, stage, slot, inv) in rows
    ]


class TestTrendByRound:
    def test_flat_data_zero_slope(self):
        rows = [
            (g, rnd, 1, g * 10 + s, 1, s, 50.0)
            for g in (1, 2)
            for rnd in range(1, 6)
            for s in (1, 2, 3)
        ]
        fit = trend_by_round(make_records(rows))
        assert fit.params[1] == pytest.approx(0.0, abs=1e-12)

    def test_injected_slope_recovered(self):
        rng = np.random.default_rng(10)
        rows = []
        for g in range(1, 7):
            for rnd in range(1, 26):
                for s in (1, 2, 3):
                    inv = 100.0 - 1.0 * rnd + float(rng.standard_normal() * 4)
                    rows.append((g, rnd, 1, g * 10 + s, 1, s, inv))
        fit = trend_by_round(make_records(rows))
        assert abs(fit.params[1] - (-1.0)) < 2 * fit.se[1] + 0.05
        assert fit.params[1] < 0

    def test_single_round_rejected(self):
        rows = [(1, 1, 1, 1, 1, 1, 10.0), (2, 1, 1, 2, 1, 1, 20.0)]
        with pytest.raises(ContestError):
            trend_by_round(make_records(rows))

    def test_rounds_beyond_int64_fit_alike(self, preset_run):
        # the rounds are counted from the first, so shifting every round id
        # by -2**65 (a column of Python ints) leaves every bit of the fit
        for log in preset_run:
            shifted = relabeled(log, lambda g: g, lambda n: n - 2**65)
            assert exact(trend_by_round(shifted)) == exact(trend_by_round(log))

    def test_round_span_beyond_int64_fits(self):
        # every round id fits int64 but their differences do not
        step = 2**62 + 1
        rows = [
            (g, (rnd - 2) * step, 1, g * 10 + s, 1, s, 100.0 - 2.0 * rnd + g)
            for g in (1, 2)
            for rnd in (1, 2, 3)
            for s in (1, 2, 3)
        ]
        fit = trend_by_round(make_records(rows))
        assert fit.params[0] == pytest.approx(99.5)
        assert fit.params[1] * step == pytest.approx(-2.0)

    def test_intercept_is_the_first_round(self):
        rows = [
            (g, rnd, 1, g * 10 + s, 1, s, 100.0 - 2.0 * rnd + g)
            for g in (1, 2)
            for rnd in range(5, 9)
            for s in (1, 2, 3)
        ]
        fit = trend_by_round(make_records(rows))
        assert fit.params == pytest.approx((91.5, -2.0))

    def test_treatment_guard(self):
        config = SessionConfig(
            spec=ContestSpec(MoveSequence((1, 2))),
            policies=(EquilibriumPolicy(),) * 3,
            groups=2,
            rounds=3,
            seed=1,
        )
        fit = trend_by_round(run_session(config))
        assert fit.params[1] == pytest.approx(0.0, abs=1e-9)


def spne_log(stages, groups=3, rounds=25, seed=21):
    config = SessionConfig(
        spec=ContestSpec(MoveSequence(stages)),
        policies=(EquilibriumPolicy(),) * 3,
        groups=groups,
        rounds=rounds,
        seed=seed,
    )
    return run_session(config)


class TestTreatmentSummary:
    def test_deterministic_spne_reproduces_solver(self):
        log = spne_log((2, 1))
        summary = treatment_summary(log)[0]
        assert summary.role_means == pytest.approx((67.5, 67.5, 45.0))
        assert summary.role_ses == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)
        assert summary.aggregate_mean == pytest.approx(180.0)
        assert summary.aggregate_se == pytest.approx(0.0, abs=1e-9)

    def test_single_triad_single_round(self):
        log = spne_log((1, 2), groups=1, rounds=1)
        first_triad = [r for r in log.records if r.triad == 1]
        summary = treatment_summary(log)[0]
        by_stage = {}
        for r in first_triad:
            by_stage.setdefault(r.stage, []).append(r.investment)
        assert summary.role_means[0] == pytest.approx(np.mean(by_stage[1]))
        assert summary.role_means[1] == pytest.approx(np.mean(by_stage[2]))
        assert math.isnan(summary.aggregate_se)  # one cluster: no SE

    def test_last_k_round_filter(self):
        log = spne_log((3,), groups=2, rounds=25)
        summary = treatment_summary(last_rounds(log, 5))[0]
        assert summary.n_rounds == 5
        kept = {r.round for r in log.records if r.round > 20}
        assert kept == set(range(21, 26))
        assert summary.nobs == 2 * 5 * 9

    @pytest.mark.parametrize("offset", [0, 2**70], ids=["int64-rounds", "rounds-beyond-int64"])
    @pytest.mark.parametrize("order", ["as-run", "shuffled"])
    def test_rounds_counted_once_each(self, offset, order):
        # group g plays rounds g, 2g, 3g and 4g (plus the offset): 8 distinct
        # rounds, not 4 per group, nor the 12 (group, round) pairs
        log = spne_log((1, 2), groups=3, rounds=4)
        log = replace(log, records=[replace(r, round=offset + r.round * r.group)
                                    for r in log.records])
        log = shuffled(log) if order == "shuffled" else log
        summary = treatment_summary(log)[0]
        assert summary.n_rounds == len({r.round for r in log.records}) == 8
        assert exact(summary) == exact(oracles.treatment_summary(log))

    def test_permutation_invariance_to_subject_relabeling(self):
        log = spne_log((1, 2), groups=2, rounds=4)
        base = treatment_summary(log)[0]
        relabeled = replace(
            log, records=[replace(r, subject=1000 - r.subject) for r in log.records]
        )
        shuffled = treatment_summary(relabeled)[0]
        assert shuffled.role_means == pytest.approx(base.role_means)
        assert shuffled.aggregate_mean == pytest.approx(base.aggregate_mean)

    def test_empty_rejected(self):
        with pytest.raises(EmptyLog):
            treatment_summary([])

    def test_stage_without_records_rejected(self):
        log = spne_log((1, 2), groups=2, rounds=2)
        cut = replace(log, records=[r for r in log.records if r.stage != 2])
        with pytest.raises(EmptyLog, match=r"\(1,2\) has no records in stage 2"):
            treatment_summary(cut)

    def test_group_aggregate_means_unit(self):
        log = spne_log((1, 2), groups=4, rounds=6)
        means = group_aggregate_means(log)
        assert means.shape == (4,)
        assert means == pytest.approx([180.0] * 4)


NAN, INF = math.nan, math.inf
NOT_FINITE_INPUTS = {
    "wald-inf-hypothesis": lambda: wald_mean([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2], INF),
    "wald-minus-inf-hypothesis": lambda: wald_mean([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2], -INF),
    "wald-nan-hypothesis": lambda: wald_mean([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2], NAN),
    "wald-nan-value": lambda: wald_mean([1.0, NAN, 3.0, 4.0], [1, 1, 2, 2], 2.5),
    "wald-inf-value": lambda: wald_mean([1.0, 2.0, INF, 4.0], [1, 1, 2, 2], 2.5),
    "ols-nan-y": lambda: cluster_ols([1.0, NAN, 2.0, 4.0], FIXTURE_X, FIXTURE_CLUSTERS),
    "ols-inf-y": lambda: cluster_ols([1.0, 2.0, 2.0, -INF], FIXTURE_X, FIXTURE_CLUSTERS),
    "ols-nan-design": lambda: cluster_ols(
        FIXTURE_Y, [[1.0, 0.0], [1.0, NAN], [1.0, 2.0], [1.0, 3.0]], FIXTURE_CLUSTERS
    ),
    "ols-inf-design": lambda: cluster_ols(
        FIXTURE_Y, [[1.0, 0.0], [1.0, 1.0], [INF, 2.0], [1.0, 3.0]], FIXTURE_CLUSTERS
    ),
    "jt-nan": lambda: jonckheere_terpstra([[1.0, NAN], [2.0], [3.0]]),
    "jt-inf": lambda: jonckheere_terpstra([[1.0], [2.0, INF], [3.0]]),
}


@pytest.mark.parametrize("case", sorted(NOT_FINITE_INPUTS))
def test_non_finite_inputs_refused(case):
    # a NaN or an infinity among the data or the hypothesis gave numbers
    # (W = 0 against an infinite mean, NaN coefficients, a finite JT p); the
    # hypothesis is checked by the rule for a real number, which names it
    if case.endswith("-hypothesis"):
        message = "^hypothesized must be finite, got "
    else:
        message = "must be finite$"
    with pytest.raises(ContestError, match=message):
        NOT_FINITE_INPUTS[case]()


BAD_SHAPES_AND_TYPES = {
    # 4 values of 2-d shape blamed the clusters
    "wald-2-d-values": (lambda: wald_mean([[1.0, 2.0], [3.0, 4.0]], [1, 2], 1.0),
                        "values has shape (2, 2), expected 1-d"),
    "wald-scalar-values": (lambda: wald_mean(1.0, [1], 1.0), "values has shape (), expected 1-d"),
    # True was taken as 1.0, "1" raised a raw TypeError
    "wald-true-hypothesis": (lambda: wald_mean([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2], True),
                             "hypothesized must be a real number, got True"),
    "wald-text-hypothesis": (lambda: wald_mean([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2], "1"),
                             "hypothesized must be a real number, got '1'"),
    # numpy's unpacking and broadcast ValueErrors
    "ols-3-d-design": (lambda: cluster_ols(FIXTURE_Y, np.ones((4, 2, 1)), FIXTURE_CLUSTERS),
                       "design has shape (4, 2, 1), expected (n,) or (n, k) with k >= 1"),
    "ols-no-column": (lambda: cluster_ols(FIXTURE_Y, np.ones((4, 0)), FIXTURE_CLUSTERS),
                      "design has shape (4, 0), expected (n,) or (n, k) with k >= 1"),
    "ols-scalar-design": (lambda: cluster_ols(FIXTURE_Y, 1.0, FIXTURE_CLUSTERS),
                          "design has shape (), expected (n,) or (n, k) with k >= 1"),
    # np.unique's raw TypeError
    "ols-unordered-clusters": (lambda: cluster_ols(FIXTURE_Y, FIXTURE_X, [None, 1, None, 1]),
                               "clusters must be ids of one ordered type, got ['NoneType', 'int']"),
    "wald-unordered-clusters": (lambda: wald_mean(FIXTURE_Y, [1, None, 1, None], 2.0),
                                "clusters must be ids of one ordered type, got ['NoneType', 'int']"),
    # numpy's concatenate ValueError, or all groups 2-d and pooled as rows
    "jt-2-d-group": (lambda: jonckheere_terpstra([[[1.0, 2.0]], [3.0], [4.0]]),
                     "groups[0] has shape (1, 2); every group needs a 1-d sequence"),
    "jt-all-2-d": (lambda: jonckheere_terpstra([[[1.0]], [[2.0]], [[3.0]]]),
                   "groups[0] has shape (1, 1); every group needs a 1-d sequence"),
    "jt-scalar-group": (lambda: jonckheere_terpstra([[1.0], 2.0, [3.0]]),
                        "groups[1] has shape (); every group needs a 1-d sequence"),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES_AND_TYPES))
def test_bad_shapes_and_types_refused(case):
    # each names the argument it refuses
    call, message = BAD_SHAPES_AND_TYPES[case]
    with pytest.raises(ContestError) as caught:
        call()
    assert str(caught.value).startswith(message)


BEYOND_FLOATS = 10**400
NOT_REAL_NUMBERS = {
    # each raised a raw ValueError or OverflowError, from numpy or math.isfinite
    "wald-hypothesis-beyond-floats": (
        lambda: wald_mean([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2], BEYOND_FLOATS), "hypothesized"
    ),
    "wald-text-values": (lambda: wald_mean(["x", "y"], [1, 2], 1.0), "values"),
    "wald-ragged-values": (lambda: wald_mean([[1.0, 2.0], [3.0]], [1, 2], 1.0), "values"),
    "wald-value-beyond-floats": (lambda: wald_mean([BEYOND_FLOATS, 1.0], [1, 2], 1.0), "values"),
    "ols-text-y": (lambda: cluster_ols(["a", "b", "c"], [1.0, 2.0, 3.0], [1, 2, 3]), "y"),
    "ols-text-design": (
        lambda: cluster_ols([1.0, 2.0, 3.0], ["a", "b", "c"], [1, 2, 3]), "design"
    ),
    "ols-y-beyond-floats": (
        lambda: cluster_ols([BEYOND_FLOATS, 1, 2], [1.0, 2.0, 3.0], [1, 2, 3]), "y"
    ),
    "jt-text-group": (lambda: jonckheere_terpstra([["a"], [1.0], [2.0]]), "groups[0]"),
    "jt-ragged-group": (lambda: jonckheere_terpstra([[1.0, [2.0]], [1.0], [2.0]]), "groups[0]"),
    "jt-group-beyond-floats": (
        lambda: jonckheere_terpstra([[BEYOND_FLOATS], [1.0], [2.0]]), "groups[0]"
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_REAL_NUMBERS))
def test_not_real_numbers_refused(case):
    # each names the argument it refuses, and no huge value's digits
    call, name = NOT_REAL_NUMBERS[case]
    with pytest.raises(ContestError) as caught:
        call()
    assert str(caught.value).startswith(f"{name} must ")
    assert str(BEYOND_FLOATS) not in str(caught.value)


class TestPValueRanges:
    def test_pvalues_in_unit_interval_statistics_finite(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            g = int(rng.integers(3, 7))
            values = rng.uniform(0, 240, 12 * g)
            clusters = np.repeat(np.arange(g), 12)
            res = wald_mean(values, clusters, float(rng.uniform(0, 240)))
            assert 0.0 <= res.pvalue <= 1.0
            assert math.isfinite(res.statistic)

            groups = [rng.uniform(0, 240, int(rng.integers(3, 8))) for _ in range(g)]
            jt = jonckheere_terpstra(groups)
            assert 0.0 <= jt.pvalue <= 1.0
            assert math.isfinite(jt.statistic) and math.isfinite(jt.zscore)


def exact(value):
    """``value`` spelt so that equal spellings mean equal bits and dtypes."""
    if isinstance(value, np.ndarray):
        cells = value.tolist() if value.dtype == object else value.tobytes()
        return value.dtype.str, value.shape, cells
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [exact(v) for v in value]
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value).__name__, [exact(getattr(value, f.name)) for f in fields]
    return type(value).__name__, value


def preset_logs(name, seed):
    raw = json.loads(resources.files("seqcontest.presets").joinpath(name + ".json").read_text())
    configs = [
        session_config_from_dict({**entry, "seed": seed + i})
        for i, entry in enumerate(raw["sessions"])
    ]
    return run_batch(configs)


def shuffled(log):
    order = np.random.default_rng(5).permutation(len(log.records))
    return replace(log, records=[log.records[i] for i in order])


def relabeled(log, group, round_number):
    return replace(log, records=[
        replace(r, group=group(r.group), round=round_number(r.round)) for r in log.records
    ])


def uneven(log):
    # investments of mixed magnitudes, whose sum over a triad depends on the
    # order of its terms
    rng = np.random.default_rng(8)
    n = len(log.records)
    values = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 3, n)
    return replace(log, records=[
        replace(r, investment=float(v)) for r, v in zip(log.records, values)
    ])


def triads_reversed(log):
    # in key order but for the triads, which run backwards within each round
    return replace(log, records=sorted(log.records, key=lambda r: (r.group, r.round, -r.triad)))


LOG_VARIANTS = {
    "as-run": lambda log: log,
    "shuffled": shuffled,
    "uneven-shuffled": lambda log: shuffled(uneven(log)),
    # ids with gaps, below zero and in reverse order of the run's
    "negative-ids": lambda log: relabeled(log, lambda g: 50 - 17 * g, lambda n: 40 - 3 * n),
    # group ids no int64 holds
    "huge-ids": lambda log: shuffled(relabeled(log, lambda g: 2**70 - g, lambda n: n)),
    # round ids no int64 holds
    "huge-rounds": lambda log: shuffled(relabeled(log, lambda g: g, lambda n: n - 2**65)),
    "uneven-triads-reversed": lambda log: triads_reversed(uneven(log)),
}


@pytest.fixture(scope="module", params=["spne_all_treatments", "empirical_preemption"])
def preset_run(request):
    return preset_logs(request.param, seed=11)


class TestColumnsMatchRecordWalk:
    """The statistics read record fields as columns; record by record
    (``oracles``) they give the same floats and dtypes."""

    @pytest.mark.parametrize("variant", sorted(LOG_VARIANTS))
    def test_same_bits(self, preset_run, variant):
        logs = [LOG_VARIANTS[variant](log) for log in preset_run]
        assert exact(treatment_summary(logs)) == exact(
            [oracles.treatment_summary(log) for log in logs]
        )
        for log in logs:
            totals = triad_totals(log.records)
            assert exact(totals) == exact(oracles.triad_totals(log.records))
            assert exact(trend_by_round(log)) == exact(oracles.trend_by_round(log.records))
            assert exact(group_aggregate_means(log)) == exact(
                oracles.group_aggregate_means(log)
            )
            assert exact(wald_mean(*totals, 180.0)) == exact(
                oracles.wald_mean(*oracles.triad_totals(log.records), 180.0)
            )

    def test_empty_records(self):
        assert exact(triad_totals([])) == exact(oracles.triad_totals([]))
        log = replace(spne_log((1, 2), groups=2, rounds=2), records=[])
        for statistic in (treatment_summary, trend_by_round, group_aggregate_means):
            with pytest.raises(EmptyLog):
                statistic(log)


def clustered_sample(name):
    """Values and their cluster ids: 90 draws in 9 clusters, changed as
    ``name`` says."""
    rng = np.random.default_rng(31)
    values = rng.uniform(0.0, 240.0, 90)
    clusters = rng.integers(0, 9, 90)
    if name == "two-clusters":
        clusters %= 2
    elif name == "unsorted-ids":
        clusters = np.array([40, -7, 3, 12, -300, 8, 5, 77, 0])[clusters]
    elif name == "huge-ids":
        clusters = np.array([2**70 - 3 * c for c in clusters.tolist()], dtype=object)
    elif name == "mixed-magnitudes":
        values *= 10.0 ** rng.integers(-6, 3, 90)
    elif name == "constant":
        values[:] = solve_spne(ContestSpec(MoveSequence((3,)))).scaled_stage_investments[0]
    return values, clusters


SAMPLES = ["nine-clusters", "two-clusters", "unsorted-ids", "huge-ids", "mixed-magnitudes",
           "constant"]


def noisy_log(group_ids, drop):
    """A (1,2) SPNE log with noisy investments, its groups 1, 2, ... named
    ``group_ids``, and the stage-2 records of the groups in ``drop`` left out."""
    log = spne_log((1, 2), groups=len(group_ids), rounds=4)
    rng = np.random.default_rng(17)
    return replace(log, records=[
        replace(r, group=group_ids[r.group - 1], investment=r.investment + rng.uniform(-20, 20))
        for r in log.records
        if not (r.stage == 2 and group_ids[r.group - 1] in drop)
    ])


def regression_on_ones(values, clusters):
    """The mean and SE of ``cluster_ols`` on a column of ones."""
    fit = cluster_ols(values, np.ones((len(values), 1)), clusters)
    return float(fit.params[0]), float(fit.se[0])


# cluster ids of each kind, in order and out of it
CLUSTER_IDS = {
    "sorted-ints": np.array([-4, -4, 0, 3, 3, 3, 9]),
    "sorted-int32": np.array([1, 1, 2, 5], dtype=np.int32),
    "sorted-uint64": np.array([0, 2**63, 2**63, 2**64 - 1], dtype=np.uint64),
    "sorted-list": [2, 2, 3, 8],
    "shuffled-ints": np.array([3, -4, 9, 3, 0, -4, 3]),
    "beyond-int64": np.array([2**70, 5, 2**70, -(2**64)], dtype=object),
    "sorted-beyond-int64": np.array([5, 2**70, 2**70], dtype=object),
    "floats-with-nan": np.array([1.5, np.nan, -2.0, np.nan, 1.5]),
    "signed-zeros": np.array([0.0, -0.0, 1.0, -0.0, 0.0]),
    "sorted-signed-zeros": np.array([-0.0, 0.0, 0.0, 1.0]),
    "strings": np.array(["b", "a", "b", "c"]),
    "one-id": np.array([7]),
    "no-ids": np.array([], dtype=np.int64),
    "empty-list": [],
}
CODED_BY_RUN_LENGTH = {"sorted-ints", "sorted-int32", "sorted-uint64", "sorted-list", "one-id",
                       "no-ids"}


class TestClusterCodes:
    """``stats._codes`` codes cluster ids to ``np.unique``'s arrays and
    dtypes, by run length where integer ids arrive non-decreasing."""

    @pytest.mark.parametrize("name", sorted(CLUSTER_IDS))
    def test_same_arrays_as_np_unique(self, name, monkeypatch):
        ids = CLUSTER_IDS[name]
        expected = np.unique(ids, return_inverse=True)
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        assert exact(list(stats._codes(ids, len(ids)))) == exact(list(expected))
        # integer ids in order are coded by run length, without the sort
        assert len(calls) == (name not in CODED_BY_RUN_LENGTH)

    def test_another_number_of_ids_rejected(self):
        with pytest.raises(ContestError, match=r"clusters has shape \(2, 2\), expected \(4,\)"):
            stats._codes([[1, 1], [2, 2]], 4)


class TestClusteredMean:
    """Every clustered mean is ``stats._mean_se``: the floats of
    ``cluster_ols`` on a column of ones, without the regression."""

    @pytest.mark.parametrize("name", SAMPLES)
    def test_same_floats_as_a_regression_on_ones(self, name):
        values, clusters = clustered_sample(name)
        ids, codes = np.unique(clusters, return_inverse=True)
        mean, sums, se = stats._mean_se(values, codes, ids.size)
        assert exact((mean, se)) == exact(regression_on_ones(values, clusters))
        oracle = oracles.cluster_ols(values, np.ones((values.size, 1)), clusters)
        assert exact((mean, se)) == exact((float(oracle.params[0]), float(oracle.se[0])))
        # each cluster's residuals added row by row, in the order of the ids
        expected = np.zeros(ids.size)
        np.add.at(expected, codes, values - mean)
        assert exact(sums) == exact(expected)

    @pytest.mark.parametrize("name", SAMPLES)
    def test_wald_mean_is_the_regression_on_ones(self, name):
        values, clusters = clustered_sample(name)
        for h0 in (0.0, float(values[0]), float(np.mean(values)), 300.0):
            result = wald_mean(values, clusters, h0)
            assert exact(result) == exact(oracles.wald_mean(values, clusters, h0))
            if name == "constant":
                # the SE is rounding noise, and the test is flagged degenerate
                assert result.se <= 1e-12 * 300.0 and result.degenerate
                assert result.pvalue == (0.0 if h0 in (0.0, 300.0) else 1.0)

    def test_clusters_absent_from_the_codes_are_not_counted(self):
        values, clusters = clustered_sample("nine-clusters")
        kept = clusters != 4
        ids, codes = np.unique(clusters, return_inverse=True)
        _, sums, se = stats._mean_se(values[kept], codes[kept], ids.size)
        assert sums.size == 8
        assert exact(se) == exact(regression_on_ones(values[kept], clusters[kept])[1])

    def test_one_cluster(self):
        values = np.array([1.0, 2.0, 4.0])
        mean, sums, se = stats._mean_se(values, np.zeros(3, dtype=np.intp), 1)
        assert mean == pytest.approx(7.0 / 3.0) and sums.size == 1 and math.isnan(se)
        with pytest.raises(TooFewClusters):
            wald_mean(values, [2**70] * 3, 0.0)

    @pytest.mark.parametrize("drop, present", [((), 3), ((4,), 2), ((4, 2), 1)],
                             ids=["all-groups", "one-group-left-out", "two-groups-left-out"])
    def test_summary_counts_the_clusters_each_stage_has(self, drop, present):
        # groups 9, 4 and 2, out of order; stage 2 of the groups in drop has no record
        log = noisy_log((9, 4, 2), drop)
        summary = treatment_summary(log)[0]
        assert exact(summary) == exact(oracles.treatment_summary(log))
        for stage, se in ((1, summary.role_ses[0]), (2, summary.role_ses[1])):
            kept = [r for r in log.records if r.stage == stage]
            if {r.group for r in kept} == {9}:
                assert math.isnan(se)
            else:
                values, groups = [r.investment for r in kept], [r.group for r in kept]
                assert exact(se) == exact(regression_on_ones(values, groups)[1])
        assert len({r.group for r in log.records if r.stage == 2}) == present
        assert exact(summary.aggregate_se) == exact(regression_on_ones(*triad_totals(log))[1])
        assert summary.n_clusters == 3


def analysis(log):
    """Every record-level statistic of one log, spelt bit for bit."""
    return exact([
        treatment_summary(log),
        trend_by_round(log),
        group_aggregate_means(log),
        triad_totals(log),
    ])


def edits(log):
    """Change ``log.records`` in each way the column memo must notice,
    yielding after each."""
    first, last = log.records[0], log.records[-1]
    log.records[0] = replace(first, investment=first.investment + 1.0)
    yield
    del log.records[-1]
    yield
    log.records.append(replace(last, investment=last.investment + 2.0))
    yield
    log.records = [replace(r, investment=r.investment + 0.5) for r in log.records]
    yield


LOG_SOURCES = ["run_session", "json", "csv"]
LAYOUT_NAMES = ["group", "round", "triad", "stage", "investment"]


def sourced_log(source, tmp_path):
    """A (1,2) SPNE log as ``run_session`` made it, or read back by ``load_log``
    from the format ``source``."""
    log = spne_log((1, 2), groups=2, rounds=3)
    if source == "run_session":
        return log
    path = tmp_path / f"log.{source}"
    export_log(log, source, path)
    return load_log(path)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_read_back_logs_give_the_same_statistics(preset_run, fmt, tmp_path):
    # analyze's numbers, the Wald tests against the equilibrium and the JT
    # trend across treatments included, are those of the logs in process
    def statistics(logs):
        walds = [
            wald_mean(*triad_totals(log), solve_spne(log.spec.without_joy()).scaled_aggregate)
            for log in logs
        ]
        jt = jonckheere_terpstra([group_aggregate_means(log) for log in logs])
        return [analysis(log) for log in logs], exact([treatment_summary(logs), walds, jt])

    paths = [tmp_path / f"session{i}.{fmt}" for i in range(len(preset_run))]
    for log, path in zip(preset_run, paths):
        export_log(log, fmt, path)
    back = [load_log(path) for path in paths]
    assert back == preset_run
    assert statistics(back) == statistics(preset_run)


class TestColumnMemo:
    """A log keeps the columns its statistics read in its column store, while
    its records stay the same objects in the same order."""

    def test_statistics_follow_edits_to_the_records(self, tmp_path):
        for source in LOG_SOURCES:
            log = sourced_log(source, tmp_path)
            store = log_module._columns(log)
            analysis(log)
            for _ in edits(log):
                # the seeded store is dropped after any edit
                assert log_module._columns(log) is not store
                store = log_module._columns(log)
                fresh = replace(log, records=list(log.records))
                assert analysis(log) == analysis(fresh)

    def test_tuple_records_keep_their_store(self):
        log = spne_log((1, 2), groups=2, rounds=3)
        twin = replace(log, records=tuple(log.records))
        expected = analysis(log)
        assert analysis(twin) == expected
        store = twin._store
        assert store[0] is twin.records
        assert analysis(twin) == expected and twin._store is store
        twin.records = tuple(replace(r, investment=r.investment + 0.5) for r in twin.records)
        assert analysis(twin) == analysis(replace(log, records=list(twin.records)))
        assert twin._store is not store

    def test_groups_are_coded_once(self, monkeypatch):
        # a log's groups are coded once per reading of its records: by run
        # length and summed where they stand in key order, by np.unique and
        # one np.lexsort out of it
        calls = collections.Counter()

        def counted(name, function):
            def count(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return count

        def coding_calls(log):
            calls.clear()
            treatment_summary(log)
            group_aggregate_means(log)
            triad_totals(log)
            return calls["codes"], calls["unique"], calls["lexsort"]

        monkeypatch.setattr(stats, "_codes", counted("codes", stats._codes))
        monkeypatch.setattr(np, "unique", counted("unique", np.unique))
        monkeypatch.setattr(np, "lexsort", counted("lexsort", np.lexsort))
        log = spne_log((1, 2), groups=2, rounds=3)
        assert coding_calls(log) == (1, 0, 0)
        assert coding_calls(log) == (0, 0, 0)
        for _ in edits(log):
            assert coding_calls(log) == (1, 0, 0)
        log = shuffled(spne_log((1, 2), groups=2, rounds=3))
        assert coding_calls(log) == (1, 1, 1)
        assert coding_calls(log) == (0, 0, 0)

    def test_a_record_replaced_by_an_equal_one_keeps_the_columns(self):
        log = spne_log((1, 2), groups=2, rounds=3)
        expected = analysis(log)
        store = log._store
        log.records[0] = replace(log.records[0])
        log.records[-1] = replace(log.records[-1])
        assert log.records[0] is not store[0][0]
        assert analysis(log) == expected
        assert log._store is store
        assert analysis(replace(log, records=list(log.records))) == expected

    def test_each_column_is_read_once(self, monkeypatch, tmp_path):
        reads, transposed = [], []

        def counted(values, *args, **kwargs):
            # a store column made an array: the one conversion, to int or float
            dtype = args[0] if args else kwargs.get("dtype")
            if dtype in (int, float) and not isinstance(values, np.ndarray):
                reads.append(dtype.__name__)
            return asarray(values, *args, **kwargs)

        def read_columns(log):
            reads.clear()
            transposed.clear()
            treatment_summary(log)
            trend_by_round(log)
            group_aggregate_means(log)
            triad_totals(log)
            return sorted(reads), len(transposed)

        loaded = [sourced_log("json", tmp_path), sourced_log("csv", tmp_path)]
        asarray, transpose = np.asarray, log_module._transpose
        monkeypatch.setattr(np, "asarray", counted)
        monkeypatch.setattr(
            log_module, "_transpose", lambda rows: transposed.append(rows) or transpose(rows)
        )
        log = spne_log((1, 2), groups=2, rounds=3)
        # run_session's and load_log's columns become arrays once: group,
        # round, triad and stage as ints, investment as floats; no field is
        # read from the records
        for back in [log, *loaded]:
            assert read_columns(back) == (["float"] + ["int"] * 4, 0)
            assert read_columns(back) == ([], 0)
        # the twins, with their records in a list or a tuple, have no store:
        # their records are read once
        for twin in (replace(log), replace(log, records=tuple(log.records))):
            assert read_columns(twin) == (["float"] + ["int"] * 4, 1)
            assert read_columns(twin) == ([], 0)

    def test_the_memo_shares_the_layout_snapshot(self):
        # a laid-out log holds one copy of its records, not two, and the
        # statistics keep their arrays in the store run_session seeded
        log = spne_log((1, 2), groups=2, rounds=3)
        records, columns = log._store
        analysis(log)
        assert log._store[0] is records and log._store[1] is columns
        assert columns.keys() - set(LAYOUT_NAMES) == {"_triads"}
        assert all(isinstance(columns[name], np.ndarray) for name in LAYOUT_NAMES)
        log.records[0] = replace(log.records[0], investment=1.0)
        analysis(log)
        assert log._store[0] == log.records
        assert log._store[0] is not log.records and log._store[0] is not records

    def test_a_regrouped_record_is_read_from_the_records(self):
        # a record moved to another group: the layout's group is no longer its own
        log = spne_log((1, 2), groups=2, rounds=3)
        analysis(log)
        log.records[0] = replace(log.records[0], group=2)
        assert stats._array(log_module._columns(log), "group")[0] == 2
        assert analysis(log) == analysis(replace(log, records=list(log.records)))

    def test_handed_out_columns_cannot_change_the_layout(self, tmp_path):
        for source in LOG_SOURCES:
            log = sourced_log(source, tmp_path)
            layout = {name: list(column) for name, column in log_module._columns(log).items()}
            columns = log_module._columns(log)
            for name in layout:
                with pytest.raises(ValueError, match="read-only"):
                    stats._array(columns, name)[0] = 99
            assert {name: stats._array(columns, name).tolist() for name in layout} == layout

    def test_triad_totals_are_the_callers_own(self):
        log = spne_log((1, 2), groups=2, rounds=3)
        totals, groups = triad_totals(log)
        expected = analysis(log)
        totals += 1.0
        groups += 1
        assert analysis(log) == expected

    def test_the_log_itself_is_unchanged(self):
        log = spne_log((1, 2), groups=2, rounds=3)
        twin = replace(log)
        text = repr(log)
        analysis(log)
        assert repr(log) == text and log == twin
        names = [f.name for f in dataclasses.fields(type(log))]
        assert names == [
            "spec", "groups", "rounds", "integer_rounding", "seed", "records", "rng_layout"
        ]
        # the statistics set no attribute on a log: its store is run_session's
        assert list(vars(log)) == [*names, "_store"]
        assert replace(log)._store is None

    @pytest.mark.parametrize("offset", [0, 2**70], ids=["int64-rounds", "rounds-beyond-int64"])
    @pytest.mark.parametrize("source", LOG_SOURCES)
    def test_last_rounds_cuts_the_store(self, source, offset, tmp_path, monkeypatch):
        # the cut log reads its kept records once, into a store of its own,
        # and its statistics equal those of a fresh log of its records
        log = sourced_log(source, tmp_path)
        if offset:
            log = replace(log, records=[replace(r, round=r.round + offset) for r in log.records])
        transposed = []
        transpose = log_module._transpose
        monkeypatch.setattr(
            log_module, "_transpose", lambda rows: transposed.append(rows) or transpose(rows)
        )
        log_module._columns(log)
        transposed.clear()
        for k in (2, 3, 4, np.int64(2), 10**30):
            cut = last_rounds(log, k)
            got = analysis(cut)
            assert len(transposed) == 1 and transposed[0] is cut.records
            fresh = replace(cut, records=list(cut.records))
            assert got == analysis(fresh) and cut == fresh
            assert {r.round - offset for r in cut.records} == set(range(max(4 - k, 1), 4))
            transposed.clear()

    @pytest.mark.parametrize(
        "k", [0, -1, 2.5, 3.0, True, False, "2", None, np.int64(0)],
        ids=["zero", "negative", "fraction", "whole-float", "true", "false", "text", "none",
             "numpy-zero"],
    )
    def test_last_rounds_refuses_a_bad_k(self, k):
        log = spne_log((1, 2), groups=2, rounds=4)
        with pytest.raises(ContestError, match="^k must be a whole number of at least 1, got "):
            last_rounds(log, k)

    def test_pickles_and_copies_leave_the_store_out(self):
        log = spne_log((1, 2), groups=2, rounds=3)
        twin = replace(log)
        analysis(log)
        assert pickle.dumps(log) == pickle.dumps(twin)
        for copied in (pickle.loads(pickle.dumps(log)), copy.copy(log), copy.deepcopy(log)):
            assert copied == log and copied._store is None

    def test_an_edited_deep_copy_reads_its_own_records(self):
        log = spne_log((1, 2), groups=2, rounds=3)
        analysis(log)
        copied = copy.deepcopy(log)
        for _ in edits(copied):
            assert analysis(copied) == analysis(replace(copied, records=list(copied.records)))
