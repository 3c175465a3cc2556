"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The directional study (criterion 6) runs a full
desk-scale grid and dominates the runtime.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.stats import wilcoxon

from afsched.acquisition import AcquisitionKind, scores
from afsched.benchfn import FUNCTION_IDS, evaluate, evaluate_many, make_instance
from afsched.cli import main
from afsched.gp import KernelParams, build_model, log_marginal_likelihood, predict_batch
from afsched.rng import substream
from afsched.runner import ExperimentConfig, aggregate, log_regret, run_grid, run_trial
from test_acquisition import ei, pi
from test_benchfn import _OPT_TOL, grid_oracle
from test_schedule import trace


def _check(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


def test_c1_acquisition_monte_carlo_oracle() -> None:
    """Closed-form EI/PI within 4 Monte-Carlo standard errors on 100 pairs."""
    start = time.time()
    rng = np.random.default_rng(314159)
    worst_ei = worst_pi = 0.0
    for _ in range(100):
        sigma = float(np.exp(rng.uniform(math.log(1e-3), math.log(10.0))))
        delta = float(sigma * rng.uniform(-3.0, 3.0))
        samples = rng.normal(-delta, sigma, size=1_000_000)

        improvement = np.maximum(-samples, 0.0)
        ei_mc = float(improvement.mean())
        ei_se = float(improvement.std(ddof=1) / 1000.0)
        worst_ei = max(worst_ei, abs(ei(delta, sigma) - ei_mc) / ei_se)

        hits = (samples < 0.0).astype(float)
        pi_mc = float(hits.mean())
        pi_se = float(hits.std(ddof=1) / 1000.0)
        worst_pi = max(worst_pi, abs(pi(delta, sigma) - pi_mc) / pi_se)
    elapsed = time.time() - start
    _check(
        "C1",
        worst_ei <= 4.0 and worst_pi <= 4.0 and elapsed < 30.0,
        f"max |closed-form - MC| = {worst_ei:.2f} (EI) / {worst_pi:.2f} (PI) standard errors"
        f" over 100 pairs in {elapsed:.1f}s (limit 4 SE, 30s)",
    )


def test_c2_ei_zero_sigma_branch() -> None:
    deltas = np.array([-4.0, -1e-9, 0.0, 1e-9, 4.0])
    values = scores(AcquisitionKind.EI, -deltas, np.zeros(5), 0.0).tolist()
    _check("C2", all(v == 0.0 for v in values), f"EI at sigma=0 returned {values} (exact zeros required)")


def test_c3_gp_against_dense_solve_and_finite_differences() -> None:
    start = time.time()
    rng = np.random.default_rng(271828)
    worst_post = 0.0
    worst_grad = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 21))
        d = int(rng.integers(1, 6))
        x = rng.random((n, d))
        y = rng.standard_normal(n)
        params = KernelParams(
            np.log(rng.uniform(0.2, 2.0, d)),
            float(np.log(rng.uniform(0.5, 3.0))),
            float(np.log(rng.uniform(1e-4, 1e-2))),
        )
        model = build_model(x, y, params)

        # Dense-solve oracle, no Cholesky reuse.
        y_s = (y - model.y_mean) / model.y_std
        ls = params.lengthscales
        diff = (x[:, None, :] - x[None, :, :]) / ls
        sq = np.sum(diff * diff, axis=2)
        r = np.sqrt(sq)
        k = params.signal_variance * (1 + math.sqrt(5) * r + 5 * sq / 3) * np.exp(-math.sqrt(5) * r)
        k_noisy = k + params.noise_variance * np.eye(n)
        for _ in range(3):
            q = rng.random(d)
            dq = (q[None, :] - x) / ls
            sq_q = np.sum(dq * dq, axis=1)
            r_q = np.sqrt(sq_q)
            k_star = params.signal_variance * (1 + math.sqrt(5) * r_q + 5 * sq_q / 3) * np.exp(-math.sqrt(5) * r_q)
            mean_ref = model.y_mean + model.y_std * float(k_star @ np.linalg.solve(k_noisy, y_s))
            var_ref = params.signal_variance + params.noise_variance - float(
                k_star @ np.linalg.solve(k_noisy, k_star)
            )
            var_ref = max(var_ref, 0.0) * model.y_std**2
            means, stds = predict_batch(model, q[None, :])
            worst_post = max(worst_post, abs(means[0] - mean_ref), abs(stds[0] ** 2 - var_ref))

        _, grad = log_marginal_likelihood(params, x, y_s)
        theta = params.to_vector()
        h = 1e-5
        for j in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            v_up, _ = log_marginal_likelihood(KernelParams.from_vector(up), x, y_s)
            v_down, _ = log_marginal_likelihood(KernelParams.from_vector(down), x, y_s)
            fd = (v_up - v_down) / (2 * h)
            worst_grad = max(worst_grad, abs(grad[j] - fd) / max(abs(fd), 1e-6))
    elapsed = time.time() - start
    _check(
        "C3",
        worst_post < 1e-8 and worst_grad < 1e-4 and elapsed < 60.0,
        f"posterior vs dense solve: {worst_post:.2e} (limit 1e-8); gradient vs central"
        f" differences: {worst_grad:.2e} relative (limit 1e-4); {elapsed:.1f}s (limit 60s)",
    )


def test_c4_schedule_exactness() -> None:
    ok = True
    details = []
    for name, n_ei in (("ee25", 25), ("ee50", 50), ("ee75", 75)):
        kinds = trace(name, 100, seed=0)
        prefix_ei = kinds[:n_ei].count(AcquisitionKind.EI) == n_ei
        suffix_pi = kinds[n_ei:].count(AcquisitionKind.PI) == 100 - n_ei
        ok &= prefix_ei and suffix_pi
        details.append(f"{name}={kinds.count(AcquisitionKind.EI)}xEI-then-PI")
    rr = trace("round_robin", 100, seed=0)
    rr_ok = all(k is (AcquisitionKind.EI if t % 2 == 0 else AcquisitionKind.PI) for t, k in enumerate(rr))
    ok &= rr_ok
    frac = trace("random", 10_000, seed=0).count(AcquisitionKind.EI) / 10_000
    ok &= 0.48 <= frac <= 0.52
    _check(
        "C4",
        ok,
        f"{', '.join(details)}; round robin alternates from EI: {rr_ok};"
        f" random EI fraction over T=10000: {frac:.4f} (limits [0.48, 0.52])",
    )


def test_c5_protocol_fidelity_at_default_scale() -> None:
    config = ExperimentConfig(dim=5, seeds=(0,), functions=("f1",), schedules=("ei", "ee25"))
    assert (config.doe_size, config.bo_evals) == (15, 100)
    trial_ei = run_trial("f1", "ei", 0, config)
    trial_ee = run_trial("f1", "ee25", 0, config)

    counts_ok = (
        len(trial_ei.doe_y) == 15
        and len(trial_ei.steps) == 100
        and len(trial_ee.doe_y) == 15
        and len(trial_ee.steps) == 100
    )
    doe_ok = np.array_equal(trial_ei.doe_x, trial_ee.doe_x) and np.array_equal(trial_ei.doe_y, trial_ee.doe_y)

    # The remaining schedules share the design too (design cost only).
    tiny = ExperimentConfig(dim=5, seeds=(0,), functions=("f1",), schedules=("pi",), bo_evals=1)
    for name in ("pi", "random", "round_robin", "ee50", "ee75"):
        other = run_trial("f1", name, 0, tiny)
        doe_ok &= np.array_equal(other.doe_x, trial_ei.doe_x)

    prefix_ok = all(
        np.array_equal(trial_ei.steps[t].x, trial_ee.steps[t].x) and trial_ei.steps[t].y == trial_ee.steps[t].y
        for t in range(25)
    )
    diverged = any(
        not np.array_equal(trial_ei.steps[t].x, trial_ee.steps[t].x) for t in range(25, 100)
    )
    _check(
        "C5",
        counts_ok and doe_ok and prefix_ok,
        f"15 design + 100 surrogate evaluations: {counts_ok}; design bitwise shared over"
        f" all 7 schedules: {doe_ok}; ei/ee25 trajectories identical through step 25:"
        f" {prefix_ok} (diverge afterwards: {diverged})",
    )


def test_c6_desk_scale_directional_study() -> None:
    functions = ("f1", "f5", "f16", "f23")
    schedules = ("ei", "pi", "random", "round_robin", "ee25", "ee50", "ee75")
    seeds = tuple(range(20))
    config = ExperimentConfig(
        dim=2,
        seeds=seeds,
        functions=functions,
        schedules=schedules,
        doe_size=6,
        bo_evals=40,
        gp_restarts=2,
    )
    start = time.time()
    # The records are byte-identical for any worker count (C8), so two workers only save time.
    records = run_grid(config, workers=2)
    elapsed = time.time() - start
    trajectories = [r for r in records if not hasattr(r, "message")]
    assert len(trajectories) == len(functions) * len(schedules) * len(seeds)

    report = aggregate(trajectories)
    mean_final: dict[tuple[str, str], float] = {}
    finals: dict[tuple[str, str], list[float]] = {}
    for f in report.finals:
        finals.setdefault((f.function_id, f.schedule_name), []).append(f.value)
    for key, values in finals.items():
        mean_final[key] = float(np.mean(values))

    # (a) every schedule beats same-budget uniform random search on f1.
    budget = config.doe_size + config.bo_evals
    rs_final = []
    for seed in seeds:
        inst = make_instance("f1", 2, seed)
        points = substream(seed, "random-search", "f1").uniform(-5.0, 5.0, size=(budget, 2))
        best = float(evaluate_many(inst, points).min())
        rs_final.append(math.log10(max(best - inst.f_opt, 1e-12)))
    rs_final = np.array(rs_final)
    bo_final = {
        sched: np.array(
            [log_regret(t)[-1] for t in trajectories if t.function_id == "f1" and t.schedule_name == sched]
        )
        for sched in schedules
    }
    a_ok = True
    a_lines = []
    for sched in schedules:
        stat = wilcoxon(bo_final[sched], rs_final, alternative="less")
        beats = bo_final[sched].mean() < rs_final.mean() and stat.pvalue < 0.05
        a_ok &= beats
        a_lines.append(f"{sched}: p={stat.pvalue:.1e}")
    print(
        f"  (a) f1 BO vs random search (mean log-regret {rs_final.mean():.2f}): "
        + "; ".join(a_lines)
    )

    # (b) on the linear slope, static EI does not lose to static PI.
    b_ok = mean_final[("f5", "ei")] <= mean_final[("f5", "pi")]
    print(f"  (b) f5 mean final normalized log-regret: ei={mean_final[('f5', 'ei')]:.3f}"
          f" <= pi={mean_final[('f5', 'pi')]:.3f}: {b_ok}")

    # (c) on the rugged repetitive landscape some switch beats both statics.
    statics_best = min(mean_final[("f16", "ei")], mean_final[("f16", "pi")])
    switch_best = min(mean_final[("f16", s)] for s in ("ee25", "ee50", "ee75"))
    c_ok = switch_best < statics_best
    print(f"  (c) f16 best switching schedule {switch_best:.3f} < best static {statics_best:.3f}: {c_ok}")

    # (d) round robin is never the single best schedule.
    d_ok = True
    for fid in functions:
        rr = mean_final[(fid, "round_robin")]
        others = [mean_final[(fid, s)] for s in schedules if s != "round_robin"]
        if rr < min(others):
            d_ok = False
    print(f"  (d) round robin never the single best: {d_ok}")

    _check(
        "C6",
        a_ok and b_ok and c_ok and d_ok,
        f"(a) random-search beaten on f1 by all 7 schedules: {a_ok};"
        f" (b) f5 EI<=PI: {b_ok}; (c) f16 switch beats statics: {c_ok};"
        f" (d) round robin never best: {d_ok}; grid of {len(trajectories)} trials in {elapsed/60:.1f} min",
    )


def test_c7_benchmark_validity() -> None:
    start = time.time()
    opt_ok = True
    grid_ok = True
    details = []
    for fid in FUNCTION_IDS:
        inst = make_instance(fid, 2, 7)
        gap = abs(evaluate(inst, inst.x_opt) - inst.f_opt)
        opt_ok &= gap <= _OPT_TOL[fid]
        excess = grid_oracle(fid, 7) - inst.f_opt
        grid_ok &= excess <= 1e-2
        details.append(f"{fid}:opt_gap={gap:.1e},grid_excess={excess:.1e}")
    elapsed = time.time() - start
    _check(
        "C7",
        opt_ok and grid_ok and elapsed < 300.0,
        f"optimum checks within tolerance: {opt_ok}; 2-d grid-oracle minima within 1e-2:"
        f" {grid_ok}; {elapsed:.0f}s (limit 300s) [{'; '.join(details)}]",
    )


def test_c8_end_to_end_worker_determinism(tmp_path) -> None:
    base = [
        "run",
        "--dim",
        "2",
        "--functions",
        "f1",
        "--schedules",
        "ei,ee50",
        "--seeds",
        "0..4",
        "--doe",
        "4",
        "--evals",
        "3",
        "--gp-restarts",
        "2",
    ]
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert main(base + ["--out", str(out1), "--workers", "1"]) == 0
    assert main(base + ["--out", str(out8), "--workers", "8"]) == 0
    identical = (out1 / "trajectories.jsonl").read_bytes() == (out8 / "trajectories.jsonl").read_bytes()
    _check("C8", identical, "trajectory files byte-identical for --workers 1 vs --workers 8")
