"""Monte Carlo paths against their exact values over count classes.

Every seed, size and threshold here was fixed before the first run: a G-test
must give p >= 1e-6, and a mean or rate must lie within 5 standard errors of
its exact value. A failure is a finding about the sampler, not a reason to
retune them.
"""

import math
from collections import Counter

import numpy as np
import pytest
from conftest import plan_blocks
from scipy.stats import chi2

from sortition_lab import budgeting, experiments
from sortition_lab.model import Mode, panel_counts, real_feature
from sortition_lab.representativeness import PanelWasserstein, expected_w_exact
from sortition_lab.sampling import TrialPlan, count_classes, derived_seed, trial_values

P_FLOOR = 1e-6
SE_LIMIT = 5.0


@pytest.mark.parametrize("mode", list(Mode))
def test_draw_matches_count_class_pmf(mode):
    sizes, k = (5, 10, 15), 10
    plan = TrialPlan(sum(sizes), k, mode, trials=20_000, seed=0)
    group = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.concatenate([panel_counts(group[members], len(sizes)) for members in plan_blocks(plan)])
    observed = Counter(map(tuple, counts.tolist()))
    classes = dict(count_classes(sizes, k, mode))
    assert set(observed) <= set(classes)
    draws = sum(classes.values())
    g = 2.0 * sum(o * math.log(o * draws / (plan.trials * classes[t])) for t, o in observed.items())
    assert chi2.sf(g, len(classes) - 1) >= P_FLOOR


@pytest.mark.parametrize("k_idx, k", [(0, 25), (1, 100)])
def test_panel_wasserstein_mean_matches_exact(k_idx, k):
    # feature 0 and its plans exactly as the concentration kind draws them at seed 0
    feature = real_feature(np.random.default_rng(derived_seed(0, 0)).random(200))
    plan = TrialPlan(feature.n, k, trials=2000, seed=derived_seed(0, 0, k_idx))
    values = trial_values(plan, PanelWasserstein(feature))
    se = values.std(ddof=1) / math.sqrt(plan.trials)
    assert abs(values.mean() - expected_w_exact(feature, k, plan.mode)) <= SE_LIMIT * se


def test_pb_core_rate_matches_exact():
    # the default config's exact rate is 0, which nothing could miss; this one's is 0.62120
    n, k, eps, step = 200, 4, 0.1, 0.05
    inst = experiments.two_block_instance(n)
    lab = budgeting.CoreLab(inst, budgeting.simplex_cover(inst.m, inst.B, step))
    pop_blocked = lab.blocked_mask(lab.pop_counts, n, eps, eps, 1.0)
    failing = resolved = 0
    for counts, weight in count_classes(lab.pop_counts.tolist(), k, Mode.WITHOUT_REPLACEMENT):
        free = np.flatnonzero(~lab.blocked_mask(np.array(counts), k, 0.0, 0.0, 1.0))
        if free.size:
            resolved += weight
            failing += weight if pop_blocked[free[0]] else 0
    exact = failing / resolved
    assert exact == pytest.approx(0.62120, abs=5e-6)
    report = budgeting.core_extrapolation_experiment(inst, k, eps, trials=500, seed=0, step=step)
    se = math.sqrt(exact * (1.0 - exact) / (report.trials - report.unresolved))
    assert abs(report.failure_rate - exact) <= SE_LIMIT * se
