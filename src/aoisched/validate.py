"""End-to-end correctness checks runnable from the CLI or the test suite.

Each check pins one externally meaningful property of the package — analytic
identities, Monte-Carlo agreement at stated tolerances, feasibility of the
drift-based scheduler, and the expected cost ordering between policies — and
returns a CheckResult with a one-line human-readable verdict.  Every check
takes only ``threads``; its tolerances and budgets are the named contract
constants beside it, which tests patch to exercise the failure paths.

The heavy checks simulate 10^6-slot horizons over several replicas; the
acceptance tier, which runs the whole registry with four simulation threads
for the Monte-Carlo checks, takes about 20 s on two cores.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import dpp, forp, ofrp
from .model import SystemConfig, UserState
from .simulate import _DRAW_BLOCK, _mean, _stdev, run, run_replicas

# The Monte-Carlo checks' slots per run and replicas per configuration, and
# the grid step of every optimized policy.
HORIZON = 10 ** 6
REPLICAS = 4
GRID_STEP = 0.01


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    values: dict = field(default_factory=dict)
    seconds: float = 0.0


def _se_diff(se_a: float, se_b: float) -> float:
    return math.sqrt(se_a * se_a + se_b * se_b)


def _config(*, seed: int, users: int = 2, p: float = 0.8, cs: float = 1.0,
            v: float = 800.0) -> SystemConfig:
    """The reference instance every check builds on, two users by default."""
    return SystemConfig(
        num_users=users, success_prob=p, sample_cost=cs, transmit_cost=5.0,
        aoi_cap=10, aoi_limit=5.0, horizon=HORIZON, seed=seed, v_weight=v)


def _optimized_runs(cfg: SystemConfig, threads: int):
    """Replica summaries of the optimized fresh-or-old and fresh-only
    policies on ``cfg``, in that order."""
    return [run_replicas(ofrp.OfrpPolicy(search(cfg, GRID_STEP)), cfg,
                         REPLICAS, threads)[1]
            for search in (ofrp.optimize, forp.optimize)]


# ──────────────────────────────────────────────────────────────────────────
#  analytic identities
# ──────────────────────────────────────────────────────────────────────────

IDENTITY_TOLERANCE = 1e-10


def check_fresh_only_identity(threads: int = 1) -> CheckResult:
    """Closed-form age distribution of the memoryless sampling policy versus
    its solved fresh-or-cached chain over a grid of rates and caps; it
    samples every slot, so the success probability is the delivery rate."""
    user = ofrp.OfrpUserParams(1.0, 1.0, 0.0, 1.0)
    pairs = [(i / 20.0, cap) for i in range(1, 21)
             for cap in (2, 5, 10, 20, 30)]
    worst = 0.0
    for delta, cap in pairs:
        closed_pi = np.array(forp.stationary_closed_form(delta, cap))
        pi = ofrp.aoi_marginal(ofrp.stationary(user, delta, cap), cap)
        ages = np.arange(1, cap + 1)
        worst = max(worst,
                    float(np.max(np.abs(closed_pi - pi))),
                    abs(float(pi @ ages)
                        - forp.avg_aoi_closed_form(delta, cap)))
    passed = worst < IDENTITY_TOLERANCE
    return CheckResult(
        "fresh-only-identity", passed,
        f"max |closed form - chain solve| = {worst:.3e} over {len(pairs)} "
        f"(rate, cap) pairs (tol {IDENTITY_TOLERANCE:g})",
        {"worst": worst})


def check_error_free_equivalence(threads: int = 1) -> CheckResult:
    """With a perfect channel the cache never fills, so the optimized
    fresh-or-old policy must collapse to the fresh-only one: equal minimum
    cost up to one grid step per user."""
    cfg = _config(p=1.0, seed=1864)
    # Moving every user's sampling probability by one grid step moves the
    # total cost by (c_s + c_tr) * step * sum(alpha) = (c_s + c_tr) * step.
    cost_step = (cfg.sample_cost + cfg.transmit_cost) * GRID_STEP
    c_of = ofrp.total_cost(ofrp.optimize(cfg, GRID_STEP), cfg)
    c_f = forp.total_cost(forp.optimize(cfg, GRID_STEP), cfg)
    gap = abs(c_of - c_f)
    passed = gap <= cost_step + 1e-9
    return CheckResult(
        "error-free-equivalence", passed,
        f"p=1 optimum costs {c_of:.6f} (fresh-or-old) vs {c_f:.6f} "
        f"(fresh-only); gap {gap:.2e} <= grid resolution {cost_step:.3f}: "
        f"{passed}",
        {"ofrp_cost": c_of, "forp_cost": c_f, "gap": gap})


# ──────────────────────────────────────────────────────────────────────────
#  Monte-Carlo agreement
# ──────────────────────────────────────────────────────────────────────────

# Largest relative error of a simulated figure against its prediction.
FRESH_ONLY_TOLERANCE = 0.01
FRESH_OR_OLD_TOLERANCE = 0.02


def check_fresh_only_montecarlo(threads: int = 1) -> CheckResult:
    """Simulated age and cost of the fresh-only policy versus its closed
    forms, at three delivery rates."""
    p = 0.8
    worst = 0.0
    for delta in (0.2, 0.5, 0.8):
        phi = delta / p
        cfg = _config(users=1, p=p, seed=9102)
        params = ofrp.OfrpParams((ofrp.OfrpUserParams(1.0, phi, 0.0, phi),))
        stats = run(ofrp.OfrpPolicy(params), cfg)
        aoi_ref = forp.avg_aoi_closed_form(delta, cfg.aoi_cap)
        cost_ref = forp.total_cost(params, cfg)
        worst = max(worst,
                    abs(stats.avg_aoi[0] - aoi_ref) / aoi_ref,
                    abs(stats.avg_cost - cost_ref) / cost_ref)
    passed = worst < FRESH_ONLY_TOLERANCE
    return CheckResult(
        "fresh-only-montecarlo", passed,
        f"max relative error (age, cost) = {worst:.4%} over delivery rates "
        f"0.2/0.5/0.8 at {HORIZON} slots (tol {FRESH_ONLY_TOLERANCE:.0%})",
        {"worst": worst})


def check_fresh_or_old_montecarlo(threads: int = 1) -> CheckResult:
    """Chain-predicted age, empty-cache probability, and cost of the
    fresh-or-old policy versus simulation: two literal parameter points and
    the grid-search optimum of the single-user reference instance."""
    literal = ofrp.OfrpUserParams(
        alpha=1.0, sample_occupied=0.4, retransmit_old=0.2, sample_empty=0.6)
    optimum = ofrp.optimize(_config(users=1, seed=4501), GRID_STEP).users[0]
    instances = [(0.5, literal), (0.8, literal), (0.8, optimum)]

    worst = 0.0
    for p, user in instances:
        cfg = _config(users=1, p=p, seed=4501)
        pred = ofrp.metrics(user, p, cfg.aoi_cap, cfg.sample_cost,
                            cfg.transmit_cost)
        stats = run(ofrp.OfrpPolicy(ofrp.OfrpParams(users=(user,))), cfg)
        worst = max(worst,
                    abs(stats.avg_aoi[0] - pred.avg_aoi) / pred.avg_aoi,
                    abs(stats.empty_fraction[0] - pred.empty_fraction)
                    / pred.empty_fraction,
                    abs(stats.avg_cost - pred.avg_cost) / pred.avg_cost)
    passed = worst < FRESH_OR_OLD_TOLERANCE
    return CheckResult(
        "fresh-or-old-montecarlo", passed,
        f"max relative error (age, empty fraction, cost) = {worst:.4%} over "
        f"{len(instances)} instances at {HORIZON} slots "
        f"(tol {FRESH_OR_OLD_TOLERANCE:.0%})",
        {"worst": worst})


# ──────────────────────────────────────────────────────────────────────────
#  drift-based scheduler behaviour
# ──────────────────────────────────────────────────────────────────────────

# Largest average age over its limit and final queue X_T over T * limit; the
# cost checks' margins, in standard errors of a difference of means.
RATIO_TOL = 1.02
DRIFT_TOL = 0.01
ORDERING_SLACK = 2.0
V_WEIGHT_SLACK = 1.0
OLD_PACKET_MARGIN = 2.0


def check_dpp_feasibility(threads: int = 1) -> CheckResult:
    """Every user's long-run average age must land within 2% of its limit and
    the virtual queues must grow sublinearly (X_T / T small)."""
    cfg = _config(seed=6401)
    stats, _ = run_replicas(dpp.DppPolicy(), cfg, REPLICAS, threads)
    worst_ratio = max(s.avg_aoi[k] / cfg.aoi_limit[k]
                      for s in stats for k in range(cfg.num_users))
    worst_drift = max(s.final_vqueue_over_t[k] / cfg.aoi_limit[k]
                      for s in stats for k in range(cfg.num_users))
    passed = worst_ratio <= RATIO_TOL and worst_drift < DRIFT_TOL
    return CheckResult(
        "dpp-feasibility", passed,
        f"worst avg-age/limit = {worst_ratio:.4f} (tol {RATIO_TOL}), worst "
        f"X_T/(T*limit) = {worst_drift:.2e} (tol {DRIFT_TOL}) over "
        f"{REPLICAS} replicas",
        {"worst_ratio": worst_ratio, "worst_drift": worst_drift})


def check_policy_cost_ordering(threads: int = 1) -> CheckResult:
    """Mean cost must order drift-based <= fresh-or-old <= fresh-only (each
    up to ``ORDERING_SLACK`` standard errors of the difference) across a
    small grid of channel qualities and sampling costs."""
    worst_sigma = -math.inf
    worst_at = ""
    for p in (0.5, 0.7, 0.9):
        for cs in (1.0, 10.0):
            cfg = _config(p=p, cs=cs, seed=5301)
            _, s_dpp = run_replicas(dpp.DppPolicy(), cfg, REPLICAS, threads)
            s_of, s_f = _optimized_runs(cfg, threads)
            pairs = ((s_dpp, s_of, "dpp vs fresh-or-old"),
                     (s_of, s_f, "fresh-or-old vs fresh-only"))
            for lo, hi, label in pairs:
                se = _se_diff(lo.stderr_cost, hi.stderr_cost)
                sigma = (lo.mean_cost - hi.mean_cost) / se if se > 0 else (
                    0.0 if lo.mean_cost <= hi.mean_cost else math.inf)
                if sigma > worst_sigma:
                    worst_sigma = sigma
                    worst_at = f"{label} at p={p}, c_s={cs:g}"
    passed = worst_sigma <= ORDERING_SLACK
    return CheckResult(
        "policy-cost-ordering", passed,
        f"worst ordering margin = {worst_sigma:+.2f} standard errors "
        f"({worst_at}); allowed {ORDERING_SLACK:+.1f}",
        {"worst_sigma": worst_sigma})


def check_v_weight_tradeoff(threads: int = 1) -> CheckResult:
    """Raising the cost weight V must trade cost down against virtual-queue
    backlog up, monotonically within ``V_WEIGHT_SLACK`` standard errors per
    step."""
    weights = (50.0, 100.0, 200.0, 400.0, 800.0)
    cost_mean, cost_se, vq_mean, vq_se = [], [], [], []
    for v in weights:
        cfg = _config(v=v, seed=8801)
        stats, summary = run_replicas(dpp.DppPolicy(), cfg, REPLICAS, threads)
        cost_mean.append(summary.mean_cost)
        cost_se.append(summary.stderr_cost)
        per_rep = [sum(s.avg_vqueue) / cfg.num_users for s in stats]
        vq_mean.append(_mean(per_rep))
        vq_se.append(_stdev(per_rep) / math.sqrt(REPLICAS))
    breaches = []
    for i in range(1, len(weights)):
        if not cost_mean[i] <= cost_mean[i - 1] + V_WEIGHT_SLACK * _se_diff(
                cost_se[i], cost_se[i - 1]):
            breaches.append(f"cost rose at V={weights[i]:g}")
        if not vq_mean[i] >= vq_mean[i - 1] - V_WEIGHT_SLACK * _se_diff(
                vq_se[i], vq_se[i - 1]):
            breaches.append(f"backlog fell at V={weights[i]:g}")
    ok = not breaches
    spread = (f"cost {cost_mean[0]:.3f}->{cost_mean[-1]:.3f}, "
              f"mean backlog {vq_mean[0]:.1f}->{vq_mean[-1]:.1f} "
              f"over V {weights[0]:g}..{weights[-1]:g}")
    detail = spread if ok else spread + "; " + "; ".join(breaches)
    return CheckResult(
        "v-weight-tradeoff", ok, detail,
        {"cost": cost_mean, "vqueue": vq_mean})


def check_old_packet_advantage(threads: int = 1) -> CheckResult:
    """Where retransmissions are cheap relative to sampling and the channel is
    poor, keeping old packets must beat always-fresh sampling by a clear
    statistical margin."""
    s_of, s_f = _optimized_runs(_config(p=0.5, cs=10.0, seed=7701), threads)
    se = _se_diff(s_of.stderr_cost, s_f.stderr_cost)
    sigma = (s_f.mean_cost - s_of.mean_cost) / se if se > 0 else math.inf
    passed = sigma > OLD_PACKET_MARGIN
    return CheckResult(
        "old-packet-advantage", passed,
        f"fresh-or-old cost {s_of.mean_cost:.3f} vs fresh-only "
        f"{s_f.mean_cost:.3f}: advantage = {sigma:.1f} standard errors "
        f"(need > {OLD_PACKET_MARGIN:g}) at p=0.5, c_s=10",
        {"sigma": sigma, "ofrp_cost": s_of.mean_cost,
         "forp_cost": s_f.mean_cost})


# ──────────────────────────────────────────────────────────────────────────
#  decision-rule oracle
# ──────────────────────────────────────────────────────────────────────────

def _random_snapshot(rng: np.random.Generator, cap_range=(3, 12),
                     v_max: float = 1000.0, queue_floor: float = 0.0):
    """A random valid (states, config) pair with up to three users: cap
    within ``cap_range``, V 0 or below ``v_max``, each queue
    ``queue_floor`` or above it (below 100)."""
    k = int(rng.integers(1, 4))
    cap = int(rng.integers(cap_range[0], cap_range[1] + 1))
    aoi_limit = tuple(float(x) for x in rng.uniform(1.0, cap, k))
    v = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, v_max))
    cfg = SystemConfig(
        num_users=k,
        success_prob=tuple(float(x) for x in rng.uniform(0.05, 1.0, k)),
        sample_cost=float(rng.uniform(0.0, 10.0)),
        transmit_cost=float(rng.uniform(0.0, 10.0)),
        aoi_cap=cap, aoi_limit=aoi_limit, horizon=10, seed=1, v_weight=v,
        single_transmitter_mode=bool(rng.integers(0, 2)))
    states = []
    for _ in range(k):
        aoi = int(rng.integers(1, cap + 1))
        occupied = bool(rng.integers(0, 2)) and aoi >= 3
        wait = int(rng.integers(1, min(cap - 2, aoi - 2) + 1)) if occupied else 0
        x = (queue_floor if rng.random() < 0.15
             else float(rng.uniform(queue_floor, 100.0)))
        states.append(UserState(aoi=aoi, waiting_time=wait,
                                cache_occupied=occupied, vqueue=x))
    return states, cfg


# Random snapshots decided, scored runs compared, and their generator's seed.
ORACLE_SNAPSHOTS = 1000
ORACLE_RUNS = 30
ORACLE_SEED = 3301


def check_decision_oracle(threads: int = 1) -> CheckResult:
    """The decision rule (O(K) in single-transmitter mode, O(K²) otherwise)
    must reproduce exhaustive minimization of the slot objective on random
    snapshots, and be invariant to jointly scaling all virtual queues and V
    by a power of two; scored runs, which write the CSVs, equal asked ones."""
    rng = np.random.default_rng(ORACLE_SEED)
    mismatches = 0
    scale_mismatches = 0
    for _ in range(ORACLE_SNAPSHOTS):
        states, cfg = _random_snapshot(rng)
        got = dpp.decide(states, cfg)
        if got != dpp.brute_force(states, cfg):
            mismatches += 1
            continue
        for lam in (0.25, 2.0, 16.0):
            scaled = [replace(s, vqueue=s.vqueue * lam) for s in states]
            if dpp.decide(scaled, replace(cfg, v_weight=cfg.v_weight * lam)) \
                    != got:
                scale_mismatches += 1
    asked, run_mismatches = dpp.DppPolicy(), 0
    asked.penalties = lambda: None          # asked through decide every slot
    for i in range(ORACLE_RUNS):            # the first crosses a block seam
        cfg = _random_snapshot(rng)[1]
        if i % 5 != 4:                      # four in five: limits in halves, so
            # the queues are rebuilt in prefix sums, as the presets' are
            cfg = replace(cfg, aoi_limit=tuple(float(x) / 2 for x in rng.integers(
                3, 2 * cfg.aoi_cap + 1, cfg.num_users)))
        cfg = replace(cfg, horizon=int(rng.integers(100, 1000)) + (i == 0) * _DRAW_BLOCK)
        run_mismatches += repr(run(dpp.DppPolicy(), cfg)) != repr(run(asked, cfg))
    passed = mismatches == 0 and scale_mismatches == 0 and run_mismatches == 0
    return CheckResult(
        "decision-oracle", passed,
        f"{ORACLE_SNAPSHOTS} random snapshots: {mismatches} disagreements "
        f"with exhaustive search, {scale_mismatches} scale-invariance breaks; "
        f"{ORACLE_RUNS} scored runs: {run_mismatches} differ from asked ones",
        {"mismatches": mismatches, "scale_mismatches": scale_mismatches,
         "runs": ORACLE_RUNS, "run_mismatches": run_mismatches})


# ──────────────────────────────────────────────────────────────────────────
#  registry
# ──────────────────────────────────────────────────────────────────────────

CHECKS = {
    "fresh-only-identity": check_fresh_only_identity,
    "fresh-only-montecarlo": check_fresh_only_montecarlo,
    "fresh-or-old-montecarlo": check_fresh_or_old_montecarlo,
    "dpp-feasibility": check_dpp_feasibility,
    "policy-cost-ordering": check_policy_cost_ordering,
    "error-free-equivalence": check_error_free_equivalence,
    "v-weight-tradeoff": check_v_weight_tradeoff,
    "old-packet-advantage": check_old_packet_advantage,
    "decision-oracle": check_decision_oracle,
}


def select_checks(only: str | None) -> list[str]:
    """Registry names matching a comma-separated list of substrings."""
    if not only:
        return list(CHECKS)
    tokens = [t.strip() for t in only.split(",") if t.strip()]
    names = [n for n in CHECKS if any(t in n for t in tokens)]
    if not names:
        raise ValueError(
            f"--only {only!r} matches no check; available: "
            + ", ".join(CHECKS))
    return names


def run_checks(only: str | None = None, threads: int = 1,
               log=None) -> list[CheckResult]:
    """Run the selected checks in registry order, timing each."""
    say = log or (lambda *_: None)
    results = []
    for name in select_checks(only):
        say(f"running {name} ...")
        t0 = time.perf_counter()
        result = CHECKS[name](threads=threads)
        result.seconds = time.perf_counter() - t0
        say(format_result(result))
        results.append(result)
    return results


def format_result(r: CheckResult) -> str:
    flag = "PASS" if r.passed else "FAIL"
    return f"{flag}  {r.name:<26s} [{r.seconds:7.1f}s]  {r.detail}"
