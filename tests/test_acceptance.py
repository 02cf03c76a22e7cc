"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured values.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import cap_workers, high_steps, init_high_on_all_rows
from fd_utils import central_difference, max_relative_error, relu_margin
from reckoner.cli import main as cli_main
from reckoner.confidence import BucketSpec, bucket_analysis
from reckoner.data import (
    Schema,
    SplitSpec,
    SynthConfig,
    load_csv,
    split_dataset,
    standardize,
    synth_biased,
)
from reckoner.metrics import (
    accuracy,
    demographic_parity,
    equalized_odds,
    largest_pair,
)
from reckoner.models import (
    FeedForwardClassifier,
    LinearClassifier,
    ModelParams,
    NoiseWrapper,
    ParamLayout,
    bce,
    blend,
    lr_fit,
    predict_labels,
)
from reckoner.pipeline import (
    TrainConfig,
    erm_baseline,
    initialize,
    predict,
    refinement_step,
    train,
)
from reckoner.workers import WorkerFailure, fork_map


@pytest.fixture
def report(capfd):
    """Per-criterion PASS/FAIL reporter that bypasses output capture."""

    def _report(cid: str, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line)
        assert ok, f"{cid}: {detail}"

    return _report


# --- C1: metric oracle equivalence ------------------------------------------

def oracle_dp(preds, groups):
    pos = {0: 0, 1: 0}
    tot = {0: 0, 1: 0}
    for p, g in zip(preds, groups):
        tot[g] += 1
        pos[g] += int(p)
    return abs(pos[0] / tot[0] - pos[1] / tot[1])


def oracle_eodds(preds, labels, groups):
    cells = {(g, y): [0, 0] for g in (0, 1) for y in (0, 1)}  # [positives, total]
    for p, y, g in zip(preds, labels, groups):
        cells[(g, y)][0] += int(p)
        cells[(g, y)][1] += 1
    tpr = {g: cells[(g, 1)][0] / cells[(g, 1)][1] for g in (0, 1)}
    fpr = {g: cells[(g, 0)][0] / cells[(g, 0)][1] for g in (0, 1)}
    return 0.5 * abs(tpr[0] - tpr[1]) + 0.5 * abs(fpr[0] - fpr[1])


def test_c1_metric_oracle_equivalence(report):
    rng = np.random.default_rng(1234)
    start = time.time()
    checked = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(4, 201))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        groups = rng.integers(0, 2, n)
        if not all(((groups == g) & (labels == y)).any() for g in (0, 1) for y in (0, 1)):
            continue
        dp = demographic_parity(preds, groups, 0, 1)
        eo = equalized_odds(preds, labels, groups, 0, 1)
        worst = max(worst, abs(dp - oracle_dp(preds, groups)),
                    abs(eo - oracle_eodds(preds, labels, groups)))
        checked += 1
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report("C1 metric-oracle-equivalence",
           ok, f"1000 fixtures, max deviation {worst:.2e}, {elapsed:.2f}s")


# --- C2: gradient checks -----------------------------------------------------

def _ffn_case(seed, salt=0):
    rng = np.random.default_rng(10_000 + seed * 97 + salt)
    net = FeedForwardClassifier.initialized(5, 4, 3, seed=seed)
    net.params.values += 0.2 * rng.standard_normal(net.params.values.size)
    x = rng.standard_normal((8, 5))
    y = rng.integers(0, 2, 8).astype(float)
    return net, x, y


def _checked_ffn_case(seed):
    # Finite differences need preactivations away from the ReLU kink.
    for salt in range(50):
        net, x, y = _ffn_case(seed, salt)
        _, cache = net._forward(np.asarray(x))
        if relu_margin((cache[0], cache[2])) > 1e-3:
            return net, x, y
    raise AssertionError("could not find a kink-free state")


def test_c2_gradient_checks(report):
    start = time.time()
    worst = {"linear": 0.0, "ffn": 0.0, "noise": 0.0}
    for seed in range(20):
        rng = np.random.default_rng(20_000 + seed)
        lin = LinearClassifier(5)
        lin.params.values[:] = rng.standard_normal(6)
        x = rng.standard_normal((10, 5))
        y = rng.integers(0, 2, 10).astype(float)
        numeric = central_difference(lambda: bce(lin.score(x), y), lin.params.values)
        worst["linear"] = max(worst["linear"],
                              max_relative_error(lin.backward(x, y)[0], numeric))

        net, xf, yf = _checked_ffn_case(seed)
        numeric = central_difference(lambda: bce(net.score(xf), yf), net.params.values)
        worst["ffn"] = max(worst["ffn"],
                           max_relative_error(net.backward(xf, yf)[0], numeric))

        for salt in range(50):
            rng2 = np.random.default_rng(30_000 + seed * 31 + salt)
            net2, x2, y2 = _ffn_case(seed, salt)
            wrap = NoiseWrapper.initialized(5, 5, seed=seed + 500 + salt)
            wrap.params.values += 0.2 * rng2.standard_normal(wrap.params.values.size)
            xt = wrap.apply(x2)
            _, cache = net2._forward(np.asarray(xt))
            _, wcache = wrap._forward()
            if min(relu_margin((cache[0], cache[2])), relu_margin((wcache[0],))) > 1e-3:
                break
        else:
            raise AssertionError("could not find a kink-free composed state")

        def composed_loss():
            return bce(net2.score(wrap.apply(x2)), y2)

        g_high, _, d_in = net2.backward(wrap.apply(x2), y2, return_input_grad=True)
        g_noise = wrap.backward(d_in)
        analytic = np.concatenate([g_high, g_noise])
        numeric = np.concatenate([
            central_difference(composed_loss, net2.params.values),
            central_difference(composed_loss, wrap.params.values),
        ])
        worst["noise"] = max(worst["noise"], max_relative_error(analytic, numeric))
    elapsed = time.time() - start
    worst_all = max(worst.values())
    ok = worst_all < 1e-4 and elapsed < 10.0
    report("C2 gradient-checks", ok,
           f"20 seeds/model, max rel err {worst_all:.2e} "
           f"(linear {worst['linear']:.1e}, ffn {worst['ffn']:.1e}, "
           f"noise {worst['noise']:.1e}), {elapsed:.2f}s")


# --- C3: noise bound and zero-wrapper identity -------------------------------

def test_c3_noise_bound_and_zero_identity(report):
    rng = np.random.default_rng(7)
    zero = np.zeros((1, 6))
    worst = 0.0
    for state in range(1000):
        wrap = NoiseWrapper.initialized(6, 6, seed=state)
        scale = rng.choice([0.1, 1.0, 10.0, 100.0])
        wrap.params.values += scale * rng.standard_normal(wrap.params.values.size)
        # zero input measures the perturbation itself without addition rounding
        worst = max(worst, float(np.abs(wrap.apply(zero)).max()))
    zero_wrap = NoiseWrapper(6, 6, eta=rng.standard_normal(6))
    x = rng.standard_normal((50, 6))
    exact = np.array_equal(zero_wrap.apply(x), x)
    ok = worst < 1.0 and exact
    report("C3 noise-bound-and-zero-identity", ok,
           f"1000 states, max |perturbation| {worst:.17g}, zero-wrapper exact={exact}")


# --- C4: rollback and blend algebra ------------------------------------------

def test_c4_rollback_and_blend_algebra(report):
    d = synth_biased(SynthConfig(n=2000, flip_rate_g1=0.3, seed=3))
    tr, va, _ = split_dataset(d, SplitSpec(0.7, 0.15, 0.15, seed=3))
    (tr, va), _, _ = standardize(tr, [va])
    cfg = TrainConfig(seed=4, total_iterations=400, batch_size=64, hidden1=16,
                      hidden2=8, identifier_epochs=100, learning_rate=0.005)
    model = initialize(tr, cfg)
    snap = model.low_snapshot.values.copy()
    rng = np.random.default_rng(0)
    rollback_exact = True
    for _ in range(100):
        idx = rng.integers(0, tr.n, 64)
        refinement_step(model, tr.x[idx], tr.y[idx])
        if not (np.array_equal(model.low.params.values, snap)
                and model.low_state.t == 0
                and np.all(model.low_state.m == 0.0)
                and np.all(model.low_state.v == 0.0)):
            rollback_exact = False
            break

    layout = ParamLayout((("w", (3,)),))
    a = ModelParams(layout, np.array([2.0, -1.0, 0.25]))
    b = ModelParams(layout, np.array([4.0, 3.0, 0.75]))
    algebra = (
        np.array_equal(blend(a, b, 1.0).values, a.values)
        and np.array_equal(blend(a, b, 0.0).values, b.values)
        and np.array_equal(blend(a, b, 0.5).values, np.array([3.0, 1.0, 0.5]))
    )
    ok = rollback_exact and algebra
    report("C4 rollback-and-blend-algebra", ok,
           f"100 steps rollback exact={rollback_exact}, blend identities={algebra}")


# --- C5: ablation degeneracy --------------------------------------------------

def test_c5_ablation_degeneracy(report, monkeypatch):
    d = synth_biased(SynthConfig(n=3000, flip_rate_g1=0.3, seed=5))
    tr, va, _ = split_dataset(d, SplitSpec(0.7, 0.15, 0.15, seed=5))
    (tr, va), _, _ = standardize(tr, [va])
    cfg = TrainConfig(seed=6, total_iterations=200, batch_size=64, hidden1=16,
                      hidden2=8, identifier_epochs=100, learning_rate=0.005,
                      use_noise=False, use_pseudo_learning=False)
    # The ERM baseline is by definition the flag-disabled pipeline with its
    # initialization phase run on the full training set.
    init_high_on_all_rows(monkeypatch)
    with high_steps() as reck:
        train(tr, va, cfg)
    with high_steps() as erm:
        erm_baseline(tr, cfg)
    same_len = len(reck) == len(erm) == cfg.total_iterations
    exact = same_len and all(np.array_equal(a, b) for a, b in zip(reck, erm))
    report("C5 ablation-degeneracy", exact,
           f"{len(reck)} steps compared bit-exactly, match={exact}")


# --- C6: fairness-improvement property ---------------------------------------

def _c6_seed(seed):
    """EOdds and accuracy of reckoner and of ERM on one seed's test split."""
    d = synth_biased(SynthConfig(n=20_000, flip_rate_g0=0.0, flip_rate_g1=0.3,
                                 seed=seed))
    tr, va, te = split_dataset(d, SplitSpec(0.7, 0.15, 0.15, seed=seed))
    (tr, va, te), _, _ = standardize(tr, [va, te])
    cfg = TrainConfig(seed=seed, alpha=0.7, total_iterations=3000,
                      learning_rate=0.003, batch_size=128,
                      identifier_epochs=300, identifier_lr=0.05)
    model = train(tr, va, cfg)
    preds, _ = predict(model, te.x)
    g_i, g_j = largest_pair(te.s)
    baseline = erm_baseline(tr, cfg)
    base_preds = predict_labels(np.asarray(baseline.score(te.x)))
    return (equalized_odds(preds, te.y, te.s, g_i, g_j), accuracy(preds, te.y),
            equalized_odds(base_preds, te.y, te.s, g_i, g_j), accuracy(base_preds, te.y))


def test_c6_fairness_improvement(report, monkeypatch):
    # The 10 seeds are independent; two forked workers share them.
    cap_workers(monkeypatch, 2)
    start = time.time()
    per_seed = dict(fork_map(_c6_seed, 10))
    failed = {seed: r for seed, r in per_seed.items() if isinstance(r, WorkerFailure)}
    assert not failed, failed
    r_eo, r_acc, e_eo, e_acc = zip(*(per_seed[seed] for seed in range(10)))
    elapsed = time.time() - start
    med = lambda v: float(np.median(v))
    reduction = 1.0 - med(r_eo) / med(e_eo)
    acc_drop = med(e_acc) - med(r_acc)
    ok = reduction >= 0.20 and acc_drop <= 0.02 and elapsed < 300.0
    report("C6 fairness-improvement", ok,
           f"median EOdds {med(r_eo):.4f} vs ERM {med(e_eo):.4f} "
           f"(-{reduction * 100:.1f}%), acc drop {acc_drop * 100:.2f}pp, {elapsed:.0f}s")


# --- C7: conditional COMPAS-shaped reproduction -------------------------------

def test_c7_conditional_compas_reproduction(report, capfd):
    csv_path = os.environ.get("RECKONER_COMPAS_CSV")
    schema_path = os.environ.get("RECKONER_COMPAS_SCHEMA")
    if not csv_path or not schema_path:
        with capfd.disabled():
            print("ACCEPTANCE C7 compas-reproduction: SKIP "
                  "(set RECKONER_COMPAS_CSV and RECKONER_COMPAS_SCHEMA to run)")
        pytest.skip("COMPAS-shaped CSV not supplied")
    schema = Schema.from_dict(json.loads(Path(schema_path).read_text()))
    full = load_csv(csv_path, schema)
    accs, eos = [], []
    for seed in range(5):
        tr, va, te = split_dataset(full, SplitSpec(0.7, 0.15, 0.15, seed=seed))
        (tr, va, te), _, _ = standardize(tr, [va, te])
        cfg = TrainConfig(seed=seed)
        model = train(tr, va, cfg)
        preds, _ = predict(model, te.x)
        g_i, g_j = largest_pair(te.s)
        accs.append(accuracy(preds, te.y))
        eos.append(equalized_odds(preds, te.y, te.s, g_i, g_j))
    acc, eo = float(np.mean(accs)), float(np.mean(eos))
    ok = abs(acc - 0.6492) <= 0.03 and abs(eo - 0.1747) <= 0.05
    report("C7 compas-reproduction", ok,
           f"mean acc {acc:.4f} (target 0.6492 +/- 0.03), "
           f"mean EOdds {eo:.4f} (target 0.1747 +/- 0.05); loose target")


# --- C8: confidence-trend reproduction ----------------------------------------

def test_c8_confidence_trend(report):
    start = time.time()
    wins = 0
    for seed in range(10):
        d = synth_biased(SynthConfig(n=40_000, flip_rate_g0=0.0, flip_rate_g1=0.3,
                                     seed=seed))
        tr, va, te = split_dataset(d, SplitSpec(0.6, 0.1, 0.3, seed=seed))
        (tr, va, te), _, _ = standardize(tr, [va, te])
        model = lr_fit(tr, epochs=400, learning_rate=0.05)
        scores = np.asarray(model.score(te.x))
        preds = predict_labels(scores)
        conf = np.maximum(scores, 1.0 - scores)
        g_i, g_j = largest_pair(te.s)
        rep = bucket_analysis(preds, te.y, te.s, conf, BucketSpec(), g_i, g_j)
        bottom = rep.entries[0].gaps["fnr"]
        top = rep.entries[-1].gaps["fnr"]
        if bottom is not None and top is not None and abs(top) > abs(bottom):
            wins += 1
    elapsed = time.time() - start
    ok = wins >= 7 and elapsed < 120.0
    report("C8 confidence-trend", ok,
           f"|delta FNR| top > bottom in {wins}/10 runs, {elapsed:.0f}s")


# --- C9: end-to-end determinism ------------------------------------------------

def test_c9_cmd_train_determinism(report, tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "n": 1200, "m_numeric": 4, "flip_rate_g1": 0.25, "seed": 21,
    }))
    data = tmp_path / "data.csv"
    assert cli_main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "train": {"total_iterations": 150, "batch_size": 64, "hidden1": 16,
                  "hidden2": 8, "identifier_epochs": 60, "learning_rate": 0.005,
                  "seed": 2},
        "schema": {"columns": [{"name": f"f{i}", "kind": "numeric"} for i in range(4)]
                   + [{"name": "y", "kind": "label"},
                      {"name": "s", "kind": "sensitive"}],
                   "hash_buckets": 8},
        "split": {"train_fraction": 0.7, "valid_fraction": 0.15,
                  "test_fraction": 0.15, "seed": 3},
    }))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(out)]) == 0
        outs.append(out)
    artifacts = ("manifest.json", "checkpoint.json", "training_log.jsonl",
                 "fairness_report.json")
    identical = all((outs[0] / a).read_bytes() == (outs[1] / a).read_bytes()
                    for a in artifacts)
    report("C9 cmd-train-determinism", identical,
           f"two runs, {len(artifacts)} artifacts byte-identical={identical}")
