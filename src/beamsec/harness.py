"""Experiment orchestration: clean, attacked, and defended scenario sweeps.

Scenario ids: SC1 is the clean test MSE of the undefended model, SC2 its MSE
under FGSM at each budget in the attack grid, SC3 the MSE under the same
attacks of the model that adversarial training derives from the SC1 model
(its round 0). Every repetition r is fully determined by
base_seed + r, so results are reproducible byte for byte.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import config, numcore
from .attack import AttackConfig, attack_dataset
from .channel import (
    ScenarioParams,
    build_dataset,
    default_scenario,
    scenario_to_dict,
    split_dataset,
)
from .config import ConfigError
from .defense import DefenseConfig, adversarial_train

SC1 = "SC1"
SC2 = "SC2"
SC3 = "SC3"

DEFAULT_ATTACK_GRID = tuple(round(0.01 * i, 2) for i in range(1, 11))

SUMMARY_HEADER = "scenario,epsilon,mean_mse,std_mse,min_mse,max_mse,n"

_SEED_SALT = 0xB5EC  # keeps harness child streams apart from dataset streams


@dataclass
class ExperimentConfig:
    scenario: ScenarioParams = field(default_factory=default_scenario)
    train: numcore.TrainConfig = field(default_factory=numcore.TrainConfig)
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    attack_grid: Tuple[float, ...] = DEFAULT_ATTACK_GRID
    repetitions: int = 20
    base_seed: int = 1
    num_instances: int = 12500
    train_fraction: float = 0.8
    output_dir: str = "results"

    def __post_init__(self):
        if len(self.attack_grid) == 0:
            raise ValueError("attack_grid must be nonempty")
        if any(e <= 0 for e in self.attack_grid):
            raise ValueError("attack_grid budgets must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")
        if self.num_instances < 2:
            raise ValueError("num_instances must be at least 2")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class ResultRow:
    scenario_id: str
    epsilon: float
    repetition: int
    mse: float
    wall_time_s: float


@dataclass
class ExperimentResult:
    rows: List[ResultRow]

    def to_csv(self, path) -> None:
        """Deterministic result table; wall times go to timings_to_csv instead."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("scenario,epsilon,repetition,mse\n")
            for r in self.rows:
                fh.write(f"{r.scenario_id},{r.epsilon:.6g},{r.repetition},{r.mse:.12g}\n")

    def timings_to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("scenario,epsilon,repetition,wall_time_s\n")
            for r in self.rows:
                fh.write(
                    f"{r.scenario_id},{r.epsilon:.6g},{r.repetition},{r.wall_time_s:.6g}\n"
                )

    @staticmethod
    def from_csv(path) -> "ExperimentResult":
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "scenario,epsilon,repetition,mse":
                raise ValueError(f"unexpected results header: {header!r}")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                sc, eps, rep, mse = line.split(",")
                rows.append(ResultRow(sc, float(eps), int(rep), float(mse), 0.0))
        return ExperimentResult(rows=rows)


def _run_repetition(cfg: ExperimentConfig, repetition: int) -> List[ResultRow]:
    seed = cfg.base_seed + repetition
    params = replace(cfg.scenario, seed=seed)
    rows: List[ResultRow] = []

    t0 = time.perf_counter()
    dataset = build_dataset(params, cfg.num_instances)
    streams = np.random.SeedSequence([seed, _SEED_SALT]).spawn(3)
    split_rng, train_rng, defense_rng = (np.random.default_rng(s) for s in streams)
    train_ds, test_ds = split_dataset(dataset, cfg.train_fraction, split_rng)

    model, _ = numcore.fit(train_ds, cfg.train, train_rng)
    clean_mse = numcore.mse_loss(numcore.predict(model, test_ds.features), test_ds.labels)
    rows.append(ResultRow(SC1, 0.0, repetition, clean_mse, time.perf_counter() - t0))

    rows += _attacked_rows(SC2, model, test_ds, cfg.attack_grid, repetition, 0.0)

    t0 = time.perf_counter()
    robust, _history = adversarial_train(model, train_ds, cfg.train, cfg.defense, defense_rng)
    setup = time.perf_counter() - t0
    rows += _attacked_rows(SC3, robust, test_ds, cfg.attack_grid, repetition, setup)
    return rows


def _attacked_rows(scenario_id, model, test_ds, grid, repetition, setup_s) -> List[ResultRow]:
    """Test MSE of `model` under FGSM at each budget; setup_s is added to the
    first row's wall time."""
    rows = []
    for i, eps in enumerate(grid):
        t0 = time.perf_counter()
        x_adv = attack_dataset(model, test_ds, AttackConfig(epsilon=float(eps)))
        mse = numcore.mse_loss(numcore.predict(model, x_adv), test_ds.labels)
        elapsed = time.perf_counter() - t0 + (setup_s if i == 0 else 0.0)
        rows.append(ResultRow(scenario_id, float(eps), repetition, mse, elapsed))
    return rows


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """All repetitions of SC1/SC2/SC3, run one after another; rows come back
    sorted by (scenario, epsilon, repetition)."""
    rows = [row for r in range(cfg.repetitions) for row in _run_repetition(cfg, r)]
    rows.sort(key=lambda r: (r.scenario_id, r.epsilon, r.repetition))
    if any(not np.isfinite(r.mse) for r in rows):
        raise numcore.NumericalError("experiment produced a non-finite MSE")
    return ExperimentResult(rows=rows)


@dataclass(frozen=True)
class SummaryRow:
    scenario_id: str
    epsilon: float
    mean_mse: float
    std_mse: float
    min_mse: float
    max_mse: float
    n: int


@dataclass
class Summary:
    rows: List[SummaryRow]
    ratios: Dict[str, Dict[float, float]]


def summarize(result: ExperimentResult) -> Summary:
    """Per (scenario, epsilon) aggregates plus attacked/clean mean-MSE ratios."""
    if not result.rows:
        raise ValueError("cannot summarize an empty result")
    groups: Dict[Tuple[str, float], List[float]] = {}
    for row in result.rows:
        groups.setdefault((row.scenario_id, row.epsilon), []).append(row.mse)
    rows = []
    for (sc, eps), values in sorted(groups.items()):
        arr = np.asarray(values, dtype=np.float64)
        rows.append(
            SummaryRow(
                scenario_id=sc,
                epsilon=eps,
                mean_mse=float(arr.mean()),
                std_mse=float(arr.std()),  # population std
                min_mse=float(arr.min()),
                max_mse=float(arr.max()),
                n=int(arr.size),
            )
        )
    ratios: Dict[str, Dict[float, float]] = {}
    clean = [r for r in rows if r.scenario_id == SC1]
    if clean and clean[0].mean_mse > 0:
        base = clean[0].mean_mse
        for sc in (SC2, SC3):
            table = {
                r.epsilon: r.mean_mse / base for r in rows if r.scenario_id == sc
            }
            if table:
                ratios[f"{sc}_over_{SC1}"] = table
    return Summary(rows=rows, ratios=ratios)


def _sig6(value: float) -> float:
    return float(f"{value:.6g}")


def emit_report(summary: Summary, out_dir, fmt: str = "csv") -> List[Path]:
    """Write the summary in the requested format; returns the paths written.

    CSV: summary.csv (fixed header) plus ratios.csv. JSON: summary.json with
    the same rows and the ratio tables; floats carry 6 significant digits.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format: {fmt!r}")
    if not summary.rows:
        raise ValueError("cannot emit an empty summary")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "csv":
        path = out_dir / "summary.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            for r in summary.rows:
                fh.write(
                    f"{r.scenario_id},{r.epsilon:.6g},{r.mean_mse:.6g},{r.std_mse:.6g},"
                    f"{r.min_mse:.6g},{r.max_mse:.6g},{r.n}\n"
                )
        written.append(path)
        rpath = out_dir / "ratios.csv"
        with open(rpath, "w", encoding="utf-8") as fh:
            fh.write("scenario,epsilon,mse_ratio_vs_clean\n")
            for key in sorted(summary.ratios):
                sc = key.split("_over_")[0]
                for eps in sorted(summary.ratios[key]):
                    fh.write(f"{sc},{eps:.6g},{summary.ratios[key][eps]:.6g}\n")
        written.append(rpath)
    else:
        payload = {
            "rows": [
                {
                    "scenario": r.scenario_id,
                    "epsilon": _sig6(r.epsilon),
                    "mean_mse": _sig6(r.mean_mse),
                    "std_mse": _sig6(r.std_mse),
                    "min_mse": _sig6(r.min_mse),
                    "max_mse": _sig6(r.max_mse),
                    "n": r.n,
                }
                for r in summary.rows
            ],
            "ratios": {
                key: {f"{eps:.6g}": _sig6(v) for eps, v in sorted(table.items())}
                for key, table in sorted(summary.ratios.items())
            },
        }
        path = out_dir / "summary.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written


def summary_from_json(path) -> Summary:
    """Inverse of the JSON report, up to the 6-digit float rendering."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    rows = [
        SummaryRow(
            scenario_id=str(r["scenario"]),
            epsilon=float(r["epsilon"]),
            mean_mse=float(r["mean_mse"]),
            std_mse=float(r["std_mse"]),
            min_mse=float(r["min_mse"]),
            max_mse=float(r["max_mse"]),
            n=int(r["n"]),
        )
        for r in payload["rows"]
    ]
    ratios = {
        key: {float(eps): float(v) for eps, v in table.items()}
        for key, table in payload.get("ratios", {}).items()
    }
    return Summary(rows=rows, ratios=ratios)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a validated config from a plain JSON document; all fields optional."""
    return config.load(ExperimentConfig, doc)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    doc["scenario"] = scenario_to_dict(cfg.scenario)
    doc["attack_grid"] = list(cfg.attack_grid)
    return doc


def load_config(path=None) -> ExperimentConfig:
    """Read a JSON config file; None gives the all-defaults experiment."""
    if path is None:
        return ExperimentConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    return config_from_dict(doc)
