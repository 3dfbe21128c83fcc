"""Experiment orchestration: clean, attacked, and defended scenario sweeps.

Scenario ids: SC1 is the clean test MSE of the undefended model, SC2 its MSE
under FGSM at each budget in the attack grid, SC3 the MSE under the same
attacks of the model that adversarial training derives from the SC1 model
(its round 0). Every repetition r is fully determined by
base_seed + r, so results are reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, config, numcore
from .attack import attack_budgets
from .channel import ScenarioParams, build_dataset, default_scenario, split_dataset
from .config import ConfigError
from .defense import DefenseConfig, adversarial_train
from .framing import FormatError

SC1 = "SC1"
SC2 = "SC2"
SC3 = "SC3"

DEFAULT_ATTACK_GRID = tuple(round(0.01 * i, 2) for i in range(1, 11))

RESULTS_HEADER = "scenario,epsilon,repetition,mse"
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
        if len({f"{e:.6g}" for e in self.attack_grid}) != len(self.attack_grid):
            raise ValueError("attack_grid budgets must differ at 6 significant digits")
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
            fh.write(RESULTS_HEADER + "\n")
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
        """Read a results.csv; a malformed one, one with no rows or one that
        repeats a (scenario, epsilon, repetition) raises framing.FormatError
        naming the file and line."""
        rows, lines = [], {}
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != RESULTS_HEADER:
                raise FormatError(f"{path}:1: expected header {RESULTS_HEADER!r}, got {header!r}")
            for number, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if len(fields) != 4:
                    raise FormatError(f"{path}:{number}: expected 4 fields, got {len(fields)}")
                sc, eps, rep, mse = fields
                try:
                    row = ResultRow(sc, float(eps), int(rep), float(mse), 0.0)
                except ValueError as exc:
                    raise FormatError(f"{path}:{number}: {exc}") from None
                if not (math.isfinite(row.epsilon) and math.isfinite(row.mse)):
                    raise FormatError(f"{path}:{number}: non-finite number in {line!r}")
                first = lines.setdefault((sc, row.epsilon, row.repetition), number)
                if first != number:
                    raise FormatError(f"{path}:{number}: duplicate of the row on line {first}")
                rows.append(row)
        if not rows:
            raise FormatError(f"{path}: no result rows")
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
    del dataset

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
    first row's wall time, and so is the one gradient pass of the grid."""
    rows = []
    t0 = time.perf_counter() - setup_s
    for eps, x_adv in zip(grid, attack_budgets(model, test_ds, grid)):
        mse = numcore.mse_loss(numcore.predict(model, x_adv), test_ds.labels)
        t1 = time.perf_counter()
        rows.append(ResultRow(scenario_id, float(eps), repetition, mse, t1 - t0))
        t0 = t1
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
    ratio: Optional[float] = None  # mean_mse over the clean mean; SC2/SC3 rows only


def summarize(result: ExperimentResult) -> List[SummaryRow]:
    """Per (scenario, epsilon) aggregates, sorted by (scenario, epsilon).

    An SC2 or SC3 row carries its mean MSE over the SC1 mean (of the first
    SC1 group) as its ratio, when that clean mean is positive; every other
    row's ratio is None.
    """
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
    clean = next((r.mean_mse for r in rows if r.scenario_id == SC1), 0.0)
    if clean > 0:
        rows = [
            replace(r, ratio=r.mean_mse / clean) if r.scenario_id in (SC2, SC3) else r
            for r in rows
        ]
    return rows


def _sig6(value: float) -> float:
    return float(f"{value:.6g}")


def emit_report(rows: Sequence[SummaryRow], out_dir, fmt: str = "csv") -> List[Path]:
    """Write summarize's rows in the requested format; returns the paths written.

    CSV: summary.csv (fixed header) plus ratios.csv, one line per row that
    has a ratio. JSON: summary.json with the same rows and, under "ratios",
    an "SC2_over_SC1"/"SC3_over_SC1" table of those ratios by epsilon;
    floats carry 6 significant digits.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format: {fmt!r}")
    if not rows:
        raise ValueError("cannot emit an empty summary")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ratio_rows = [r for r in rows if r.ratio is not None]
    if fmt == "csv":
        path = out_dir / "summary.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            for r in rows:
                fh.write(
                    f"{r.scenario_id},{r.epsilon:.6g},{r.mean_mse:.6g},{r.std_mse:.6g},"
                    f"{r.min_mse:.6g},{r.max_mse:.6g},{r.n}\n"
                )
        rpath = out_dir / "ratios.csv"
        with open(rpath, "w", encoding="utf-8") as fh:
            fh.write("scenario,epsilon,mse_ratio_vs_clean\n")
            for r in ratio_rows:
                fh.write(f"{r.scenario_id},{r.epsilon:.6g},{r.ratio:.6g}\n")
        return [path, rpath]
    ratios: Dict[str, Dict[str, float]] = {}
    for r in ratio_rows:
        ratios.setdefault(f"{r.scenario_id}_over_{SC1}", {})[f"{r.epsilon:.6g}"] = _sig6(r.ratio)
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
            for r in rows
        ],
        "ratios": ratios,
    }
    path = out_dir / "summary.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path]


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a validated config from a plain JSON document; all fields optional."""
    return config.load(ExperimentConfig, doc)


def write_manifest(cfg: ExperimentConfig, path) -> None:
    """manifest.json of a run: its resolved config (config.dump, which
    config_from_dict reads back) and what the result bits also depend on,
    the numpy build's BLAS and its thread settings (null when unset)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    manifest = {
        "config": config.dump(cfg),
        "versions": {
            "beamsec": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
