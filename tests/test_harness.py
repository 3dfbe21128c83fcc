"""Experiment orchestration tests: sweeps, summaries, reports, configuration."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List

import numpy as np
import pytest

from beamsec import config, harness, numcore
from beamsec.attack import AttackConfig, attack_dataset
from beamsec.channel import UserGrid, build_dataset, split_dataset
from beamsec.defense import DefenseConfig, RoundRecord, adversarial_train
from beamsec.harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    SummaryRow,
    _SEED_SALT,
    emit_report,
    load_config,
    run_experiment,
    summarize,
)
from conftest import one_core, python_env
from oracles import summary_from_json


def tiny_config(tiny_scenario, **kw) -> ExperimentConfig:
    base = dict(
        scenario=tiny_scenario,
        train=numcore.TrainConfig(epochs=2),
        defense=DefenseConfig(epsilon=0.1, max_rounds=2),
        attack_grid=(0.1,),
        repetitions=1,
        num_instances=300,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------ run_experiment


def test_row_counts_single_rep(tiny_scenario):
    result = run_experiment(tiny_config(tiny_scenario))
    by_scenario = {}
    for row in result.rows:
        by_scenario.setdefault(row.scenario_id, []).append(row)
    assert len(by_scenario["SC1"]) == 1
    assert len(by_scenario["SC2"]) == 1
    assert len(by_scenario["SC3"]) == 1
    assert all(r.epsilon == 0.0 for r in by_scenario["SC1"])
    assert all(np.isfinite(r.mse) and r.mse >= 0.0 for r in result.rows)


def test_sweep_takes_one_gradient_pass_per_model_and_rows(tiny_scenario, monkeypatch):
    """FGSM's gradient sign does not depend on the budget, so a 1-repetition
    sweep over 10 budgets runs 5 gradient passes: one for SC2, one for SC3,
    and the defense's round-0 probe, round-1 attack and round-1 probe."""
    calls = []
    gradients = numcore.input_gradients

    def counted(model, X, y):
        calls.append(X.shape[0])
        return gradients(model, X, y)

    monkeypatch.setattr(numcore, "input_gradients", counted)
    run_experiment(tiny_config(tiny_scenario, attack_grid=tuple(0.01 * i for i in range(1, 11))))
    assert len(calls) == 5


def test_run_rows_equal_the_reference_path(tiny_scenario):
    """Each row of a 1-repetition run equals, bit for bit, the MSE taken on
    the repetition's own streams through predict and attack_dataset: SC1 on
    the clean test rows, SC2 and SC3 on each budget's FGSM rows against the
    trained and the defended model."""
    cfg = tiny_config(tiny_scenario, attack_grid=(0.02, 0.05, 0.1))
    result = run_experiment(cfg)

    seed = cfg.scenario.seed
    dataset = build_dataset(replace(cfg.scenario, seed=seed), cfg.num_instances)
    streams = np.random.SeedSequence([seed, _SEED_SALT]).spawn(3)
    split_rng, train_rng, defense_rng = (np.random.default_rng(s) for s in streams)
    train_ds, test = split_dataset(dataset, cfg.train_fraction, split_rng)
    plain, _ = numcore.fit(train_ds, cfg.train, train_rng)
    robust, history = adversarial_train(plain, train_ds, cfg.train, cfg.defense, defense_rng)
    assert result.rounds == [history]

    def mse(model, X):
        return numcore.mse_loss(numcore.predict(model, X), test.labels)

    expected = {("SC1", 0.0): mse(plain, test.features)}
    for eps in cfg.attack_grid:
        for sc, m in (("SC2", plain), ("SC3", robust)):
            expected[(sc, eps)] = mse(m, attack_dataset(m, test, AttackConfig(epsilon=eps)))
    assert {(r.scenario_id, r.epsilon): r.mse for r in result.rows} == expected
    assert len(result.rows) == len(expected)


def test_row_counts_multi_rep(tiny_scenario):
    cfg = tiny_config(tiny_scenario, repetitions=2, attack_grid=(0.02, 0.05, 0.1))
    result = run_experiment(cfg)
    assert len([r for r in result.rows if r.scenario_id == "SC1"]) == 2
    assert len([r for r in result.rows if r.scenario_id == "SC2"]) == 6
    assert len([r for r in result.rows if r.scenario_id == "SC3"]) == 6
    triples = [(r.scenario_id, r.epsilon, r.repetition) for r in result.rows]
    assert len(triples) == len(set(triples))
    assert triples == sorted(triples)  # deterministic row order


# Prints [elapsed seconds, stages] of run_experiment on the config file argv[1].
SERIAL_STAGES = """
import json, sys, time
from beamsec import config
from beamsec.harness import ExperimentConfig, run_experiment
with open(sys.argv[1], encoding="utf-8") as fh:
    cfg = config.load(ExperimentConfig, json.load(fh))
t0 = time.perf_counter()
stages = run_experiment(cfg).stages
print(json.dumps([time.perf_counter() - t0, stages]))
"""


def test_stage_entries_tile_the_run(tiny_scenario, tmp_path):
    """Each stage is timed from the end of the one before, so the six
    entries of each repetition add up to no more than the run's time. Pooled
    repetitions overlap, so only a serial run, in a child process bound to
    one core, must spend nearly all of its time in them."""
    cfg = tiny_config(tiny_scenario, repetitions=2)
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert [rep for rep, *_ in result.stages] == [0] * 6 + [1] * 6
    for rep in (0, 1):
        assert sum(seconds for r, _, seconds, _ in result.stages if r == rep) <= elapsed

    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.dump(cfg)))
    proc = subprocess.run(
        [sys.executable, "-c", SERIAL_STAGES, str(path)],
        env=python_env(), preexec_fn=one_core, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    elapsed, stages = json.loads(proc.stdout)
    assert [rep for rep, *_ in stages] == [0] * 6 + [1] * 6
    total = sum(seconds for _, _, seconds, _ in stages)
    assert 0.9 * elapsed <= total <= elapsed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_experiment_leaves_no_worker_running(tiny_scenario):
    """The repetitions' worker processes are gone when run_experiment
    returns, and when it raises an error a worker met (a learning rate of
    1e300 overflows training)."""
    run_experiment(tiny_config(tiny_scenario, repetitions=2))
    assert multiprocessing.active_children() == []
    diverging = numcore.TrainConfig(epochs=2, learning_rate=1e300)
    with pytest.raises(numcore.NumericalError, match="non-finite parameters"):
        run_experiment(tiny_config(tiny_scenario, repetitions=2, train=diverging))
    assert multiprocessing.active_children() == []


def _pass_threads_of_repetition(cfg, repetition):
    """Stands in for a repetition: reports the blocked passes' thread count."""
    return [], [], numcore._pass_threads()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the pool needs two usable cores")
def test_pool_workers_run_blocked_passes_on_one_thread(tiny_scenario, monkeypatch):
    """The pool's workers keep the cores busy, so each runs its blocked
    passes on one thread; the calling process, where `beamsec attack` and
    the attack grid run, keeps every usable core."""
    monkeypatch.setattr(harness, "_run_repetition", _pass_threads_of_repetition)
    result = run_experiment(tiny_config(tiny_scenario, repetitions=2))
    assert result.rounds == [1, 1]
    assert numcore._pass_threads() == len(os.sched_getaffinity(0))


def test_run_experiment_is_deterministic(tiny_scenario, tmp_path):
    cfg = tiny_config(tiny_scenario)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    key = lambda r: (r.scenario_id, r.epsilon, r.repetition, r.mse)
    assert [key(r) for r in r1.rows] == [key(r) for r in r2.rows]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1.to_csv(p1)
    r2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_stages_csv_bytes_are_pinned(tmp_path):
    stages = [(0, "build_dataset", 1.23456789, 300), (0, "train", 0.0, 240), (1, "defense", 1.5e7, 0)]
    path = tmp_path / "stages.csv"
    ExperimentResult(rows=[], stages=stages).stages_to_csv(path)
    assert path.read_bytes() == (
        b"repetition,stage,seconds,rows\n"
        b"0,build_dataset,1.23457,300\n"
        b"0,train,0,240\n"
        b"1,defense,1.5e+07,0\n"
    )


def test_defense_rounds_csv_bytes_are_pinned(tmp_path):
    """kept marks defense.kept_round: the lowest adversarial MSE, the earliest on ties."""
    rounds = [
        [RoundRecord(0, 0.25, 0.5, 240), RoundRecord(1, 0.125, 0.375, 480)],
        [RoundRecord(0, 1.23456789e-4, 0.25, 240), RoundRecord(1, 0.5, 0.25, 480)],
    ]
    path = tmp_path / "defense_rounds.csv"
    harness.rounds_to_csv(rounds, path)
    assert path.read_bytes() == (
        b"repetition,round,clean_mse,adv_mse,dataset_rows,kept\n"
        b"0,0,0.25,0.5,240,0\n"
        b"0,1,0.125,0.375,480,1\n"
        b"1,0,0.000123456789,0.25,240,1\n"
        b"1,1,0.5,0.25,480,0\n"
    )


def test_sc2_converges_to_sc1_as_epsilon_vanishes(tiny_trained):
    """The attacked MSE approaches the clean MSE linearly as the budget
    shrinks; probed at 1e-6 and 1e-8."""
    model, test = tiny_trained.model, tiny_trained.test
    table = {
        eps: numcore.mse_loss(
            numcore.predict(model, attack_dataset(model, test, AttackConfig(epsilon=eps))),
            test.labels,
        )
        for eps in (0.0, 1e-8, 1e-6)
    }
    clean = table[0.0]
    rel6 = abs(table[1e-6] - clean) / clean
    rel8 = abs(table[1e-8] - clean) / clean
    assert rel6 < 1e-3
    assert rel8 < rel6
    if rel8 > 0:
        assert 20.0 <= rel6 / rel8 <= 500.0  # roughly linear in epsilon


def test_result_csv_round_trip(tmp_path, tiny_scenario):
    result = run_experiment(tiny_config(tiny_scenario))
    path = tmp_path / "results.csv"
    result.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "scenario,epsilon,repetition,mse"
    back = ExperimentResult.from_csv(path)
    assert [(r.scenario_id, r.epsilon, r.repetition) for r in back.rows] == [
        (r.scenario_id, r.epsilon, r.repetition) for r in result.rows
    ]
    for a, b in zip(back.rows, result.rows):
        assert a.mse == pytest.approx(b.mse, rel=1e-11)

    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError):
        ExperimentResult.from_csv(bad)


# ----------------------------------------------------------------- summarize


def test_summarize_single_row():
    result = ExperimentResult(rows=[ResultRow("SC1", 0.0, 0, 0.25)])
    (row,) = summarize(result)
    assert (row.mean_mse, row.std_mse, row.min_mse, row.max_mse, row.n) == (
        0.25, 0.0, 0.25, 0.25, 1,
    )


def test_summarize_population_std_and_ratios():
    rows = [
        ResultRow("SC1", 0.0, 0, 0.1),
        ResultRow("SC1", 0.0, 1, 0.3),
        ResultRow("SC2", 0.1, 0, 0.8),
        ResultRow("SC2", 0.1, 1, 0.8),
    ]
    sc1, sc2 = summarize(ExperimentResult(rows=rows))
    assert sc1.mean_mse == pytest.approx(0.2, abs=1e-15)
    assert sc1.std_mse == pytest.approx(0.1, abs=1e-15)  # population formula
    assert sc1.ratio is None
    assert sc2.ratio == pytest.approx(4.0, abs=1e-12)


def test_summarize_group_count(tiny_scenario):
    cfg = tiny_config(tiny_scenario, repetitions=2, attack_grid=(0.05, 0.1))
    summary = summarize(run_experiment(cfg))
    # SC1 has one epsilon, SC2/SC3 have two each
    assert len(summary) == 1 + 2 + 2
    with pytest.raises(ValueError):
        summarize(ExperimentResult(rows=[]))


# --------------------------------------------------------------- emit_report


def sample_summary() -> List[SummaryRow]:
    return [
        SummaryRow("SC1", 0.0, 0.001234567, 0.0001, 0.0011, 0.0013, 20),
        SummaryRow("SC2", 0.1, 0.012345678, 0.002, 0.01, 0.015, 20, ratio=10.00462),
    ]


def test_emit_csv_report(tmp_path):
    paths = emit_report(sample_summary(), tmp_path, "csv")
    summary_csv = tmp_path / "summary.csv"
    assert summary_csv in paths
    lines = summary_csv.read_text().splitlines()
    assert lines[0] == "scenario,epsilon,mean_mse,std_mse,min_mse,max_mse,n"
    assert lines[1].startswith("SC1,0,0.00123457,")  # 6 significant digits
    ratios = (tmp_path / "ratios.csv").read_text().splitlines()
    assert ratios[0] == "scenario,epsilon,mse_ratio_vs_clean"
    assert ratios[1] == "SC2,0.1,10.0046"


def test_emit_report_byte_stable(tmp_path):
    emit_report(sample_summary(), tmp_path / "one", "csv")
    emit_report(sample_summary(), tmp_path / "two", "csv")
    assert (tmp_path / "one" / "summary.csv").read_bytes() == (
        tmp_path / "two" / "summary.csv"
    ).read_bytes()


def test_emit_json_round_trip(tmp_path):
    summary = sample_summary()
    (path,) = emit_report(summary, tmp_path, "json")
    back = summary_from_json(path)
    assert len(back) == len(summary)
    for a, b in zip(back, summary):
        assert a.scenario_id == b.scenario_id
        assert a.n == b.n
        assert a.mean_mse == pytest.approx(b.mean_mse, rel=1e-5)  # 6-digit render
    assert back[0].ratio is None
    assert back[1].ratio == pytest.approx(10.00462, rel=1e-5)


def test_emit_report_rejects_bad_format(tmp_path):
    with pytest.raises(ConfigError):
        emit_report(sample_summary(), tmp_path, "xml")
    with pytest.raises(ValueError):
        emit_report([], tmp_path, "csv")


def _grid_rows() -> List[ResultRow]:
    mses = {
        ("SC1", 0.0): (0.00123, 0.00131, 0.00118),
        ("SC2", 0.05): (0.00187, 0.00201, 0.00179),
        ("SC2", 0.1): (0.00264, 0.00293, 0.00251),
        ("SC3", 0.05): (0.00142, 0.00149, 0.00137),
        ("SC3", 0.1): (0.00171, 0.00188, 0.00166),
        ("SC4", 0.1): (0.0042, 0.0044, 0.0039),
    }
    return [
        ResultRow(sc, eps, rep, mse)
        for (sc, eps), values in mses.items()
        for rep, mse in enumerate(values)
    ]


RATIOS_HEADER_ONLY = "scenario,epsilon,mse_ratio_vs_clean\n"

# Expected report files, byte for byte, for three hand-built results: SC1 plus
# SC2 and SC3 at two budgets and an unknown SC4 (which gets no ratio) over
# three repetitions; no SC1 rows at all; an SC1 mean of 0. Neither of the
# last two has ratios.
PINNED_REPORTS = {
    "grid": (
        _grid_rows(),
        """\
scenario,epsilon,mean_mse,std_mse,min_mse,max_mse,n
SC1,0,0.00124,5.35413e-05,0.00118,0.00131,3
SC2,0.05,0.00189,9.09212e-05,0.00179,0.00201,3
SC2,0.1,0.00269333,0.000175563,0.00251,0.00293,3
SC3,0.05,0.00142667,4.92161e-05,0.00137,0.00149,3
SC3,0.1,0.00175,9.4163e-05,0.00166,0.00188,3
SC4,0.1,0.00416667,0.00020548,0.0039,0.0044,3
""",
        """\
scenario,epsilon,mse_ratio_vs_clean
SC2,0.05,1.52419
SC2,0.1,2.17204
SC3,0.05,1.15054
SC3,0.1,1.41129
""",
        """\
{
  "ratios": {
    "SC2_over_SC1": {
      "0.05": 1.52419,
      "0.1": 2.17204
    },
    "SC3_over_SC1": {
      "0.05": 1.15054,
      "0.1": 1.41129
    }
  },
  "rows": [
    {
      "epsilon": 0.0,
      "max_mse": 0.00131,
      "mean_mse": 0.00124,
      "min_mse": 0.00118,
      "n": 3,
      "scenario": "SC1",
      "std_mse": 5.35413e-05
    },
    {
      "epsilon": 0.05,
      "max_mse": 0.00201,
      "mean_mse": 0.00189,
      "min_mse": 0.00179,
      "n": 3,
      "scenario": "SC2",
      "std_mse": 9.09212e-05
    },
    {
      "epsilon": 0.1,
      "max_mse": 0.00293,
      "mean_mse": 0.00269333,
      "min_mse": 0.00251,
      "n": 3,
      "scenario": "SC2",
      "std_mse": 0.000175563
    },
    {
      "epsilon": 0.05,
      "max_mse": 0.00149,
      "mean_mse": 0.00142667,
      "min_mse": 0.00137,
      "n": 3,
      "scenario": "SC3",
      "std_mse": 4.92161e-05
    },
    {
      "epsilon": 0.1,
      "max_mse": 0.00188,
      "mean_mse": 0.00175,
      "min_mse": 0.00166,
      "n": 3,
      "scenario": "SC3",
      "std_mse": 9.4163e-05
    },
    {
      "epsilon": 0.1,
      "max_mse": 0.0044,
      "mean_mse": 0.00416667,
      "min_mse": 0.0039,
      "n": 3,
      "scenario": "SC4",
      "std_mse": 0.00020548
    }
  ]
}
""",
    ),
    "no_clean_rows": (
        [ResultRow("SC2", 0.1, 0, 0.002), ResultRow("SC3", 0.1, 0, 0.0015)],
        """\
scenario,epsilon,mean_mse,std_mse,min_mse,max_mse,n
SC2,0.1,0.002,0,0.002,0.002,1
SC3,0.1,0.0015,0,0.0015,0.0015,1
""",
        RATIOS_HEADER_ONLY,
        """\
{
  "ratios": {},
  "rows": [
    {
      "epsilon": 0.1,
      "max_mse": 0.002,
      "mean_mse": 0.002,
      "min_mse": 0.002,
      "n": 1,
      "scenario": "SC2",
      "std_mse": 0.0
    },
    {
      "epsilon": 0.1,
      "max_mse": 0.0015,
      "mean_mse": 0.0015,
      "min_mse": 0.0015,
      "n": 1,
      "scenario": "SC3",
      "std_mse": 0.0
    }
  ]
}
""",
    ),
    "zero_clean_mean": (
        [ResultRow("SC1", 0.0, 0, 0.0), ResultRow("SC2", 0.1, 0, 0.002)],
        """\
scenario,epsilon,mean_mse,std_mse,min_mse,max_mse,n
SC1,0,0,0,0,0,1
SC2,0.1,0.002,0,0.002,0.002,1
""",
        RATIOS_HEADER_ONLY,
        """\
{
  "ratios": {},
  "rows": [
    {
      "epsilon": 0.0,
      "max_mse": 0.0,
      "mean_mse": 0.0,
      "min_mse": 0.0,
      "n": 1,
      "scenario": "SC1",
      "std_mse": 0.0
    },
    {
      "epsilon": 0.1,
      "max_mse": 0.002,
      "mean_mse": 0.002,
      "min_mse": 0.002,
      "n": 1,
      "scenario": "SC2",
      "std_mse": 0.0
    }
  ]
}
""",
    ),
}


@pytest.mark.parametrize("case", PINNED_REPORTS)
def test_report_bytes_are_pinned(tmp_path, case):
    rows, summary_csv, ratios_csv, summary_json = PINNED_REPORTS[case]
    summary = summarize(ExperimentResult(rows=rows))
    emit_report(summary, tmp_path, "csv")
    emit_report(summary, tmp_path, "json")
    assert (tmp_path / "summary.csv").read_text() == summary_csv
    assert (tmp_path / "ratios.csv").read_text() == ratios_csv
    assert (tmp_path / "summary.json").read_text() == summary_json


# ------------------------------------------------------------- configuration


def test_config_defaults_round_trip():
    cfg = ExperimentConfig()
    assert cfg.repetitions == 20
    assert cfg.scenario.seed == 1
    assert cfg.attack_grid == tuple(round(0.01 * i, 2) for i in range(1, 11))
    assert cfg.num_instances == 12500
    rebuilt = config.load(ExperimentConfig, config.dump(cfg))
    assert rebuilt == cfg


def test_readme_config_block_is_the_defaults():
    """The one JSON block of README's Configuration section loads as the
    all-defaults config, so the documented schema and defaults stay current."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    (block,) = section.split("```json\n")[1:]
    doc = json.loads(block.split("```", 1)[0])
    assert config.load(ExperimentConfig, doc) == ExperimentConfig()


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config field: bogus"):
        config.load(ExperimentConfig, {"bogus": 1})
    with pytest.raises(ConfigError, match="scenario.bogus"):
        config.load(ExperimentConfig, {"scenario": {"bogus": 1}})
    with pytest.raises(ConfigError, match="train.bogus"):
        config.load(ExperimentConfig, {"train": {"bogus": 1}})
    with pytest.raises(ConfigError, match=r"unknown config field: train\.adam_beta1"):
        config.load(ExperimentConfig, {"train": {"adam_beta1": 0.9}})
    with pytest.raises(ConfigError, match="defense.bogus"):
        config.load(ExperimentConfig, {"defense": {"bogus": 1}})


def test_config_type_errors_name_the_field():
    with pytest.raises(ConfigError, match="repetitions"):
        config.load(ExperimentConfig, {"repetitions": 2.5})
    with pytest.raises(ConfigError, match="repetitions"):
        config.load(ExperimentConfig, {"repetitions": True})
    with pytest.raises(ConfigError, match="repetitions"):  # an int field takes JSON integers only
        config.load(ExperimentConfig, {"repetitions": 2.0})
    with pytest.raises(ConfigError, match="train_fraction"):
        config.load(ExperimentConfig, {"train_fraction": "most"})
    with pytest.raises(ConfigError, match=r"attack_grid\[1\]"):
        config.load(ExperimentConfig, {"attack_grid": [0.1, "x"]})
    with pytest.raises(ConfigError, match=r"attack_grid\[0\]"):
        config.load(ExperimentConfig, {"attack_grid": [float("inf")]})
    with pytest.raises(ConfigError, match=r"scenario\.snr_linear"):
        config.load(ExperimentConfig, {"scenario": {"snr_linear": float("nan")}})
    with pytest.raises(ConfigError):
        config.load(ExperimentConfig, {"attack_grid": []})
    with pytest.raises(ConfigError):
        config.load(ExperimentConfig, {"output_dir": 7})
    with pytest.raises(ConfigError):
        config.load(ExperimentConfig, {"repetitions": 0})


def test_config_dataclass_field_takes_an_object_only():
    """A dataclass field is an object of its fields; a list of them in order
    is rejected, naming the field path."""
    with pytest.raises(ConfigError, match=r"^scenario\.user_grid: expected an object$"):
        config.load(ExperimentConfig, {"scenario": {"user_grid": [1.0, 2.0, 0.0, 1.0, 0.5]}})
    with pytest.raises(ConfigError, match=r"^train: expected an object$"):
        config.load(ExperimentConfig, {"train": [0.01, 100, 10, 0.9, 0.999, 1e-8]})


def test_config_scenario_overrides_apply():
    doc = {
        "scenario": {
            "num_antennas": 8,
            "user_grid": {"x_min": 1.0, "x_max": 2.0, "y_min": 0.0, "y_max": 1.0, "spacing": 0.5},
            "walls": [[-1.0, 3.0, 10.0, 3.0]],
        },
        "attack_grid": [0.05],
    }
    cfg = config.load(ExperimentConfig, doc)
    assert cfg.scenario.num_antennas == 8
    assert cfg.scenario.user_grid == UserGrid(1.0, 2.0, 0.0, 1.0, 0.5)
    assert cfg.scenario.walls == ((-1.0, 3.0, 10.0, 3.0),)
    assert cfg.attack_grid == (0.05,)


def test_load_config_file(tmp_path):
    assert load_config(None) == ExperimentConfig()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"repetitions": 3, "scenario": {"seed": 9}}))
    cfg = load_config(path)
    assert (cfg.repetitions, cfg.scenario.seed) == (3, 9)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_experiment_config_validation(tiny_scenario):
    with pytest.raises(ValueError):
        tiny_config(tiny_scenario, attack_grid=())
    with pytest.raises(ValueError):
        tiny_config(tiny_scenario, attack_grid=(0.0,))
    for budget in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            tiny_config(tiny_scenario, attack_grid=(budget,))
    with pytest.raises(ValueError, match="6 significant digits"):
        tiny_config(tiny_scenario, attack_grid=(0.1, 0.05, 0.1000001))
    with pytest.raises(ValueError):
        tiny_config(tiny_scenario, repetitions=0)
    with pytest.raises(ValueError):
        tiny_config(tiny_scenario, train_fraction=1.0)
    with pytest.raises(ValueError):
        tiny_config(tiny_scenario, num_instances=1)
    for count in (0, -5):
        with pytest.raises(ValueError, match="num_instances must be at least 1"):
            tiny_config(tiny_scenario, num_instances=count)
    # 0.9 x 3 rounds to 3 training rows, which leaves the test side empty
    with pytest.raises(ValueError, match="train_fraction of num_instances"):
        tiny_config(tiny_scenario, num_instances=3, train_fraction=0.9)
