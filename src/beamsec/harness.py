"""Experiment orchestration: clean, attacked, and defended scenario sweeps.

Scenario ids: SC1 is the clean test MSE of the undefended model, SC2 its MSE
under FGSM at each budget in the attack grid, SC3 the MSE under the same
attacks of the model that adversarial training derives from the SC1 model
(its round 0). All three come from attack.attacked_mse: SC1 is its budget-0
entry, at which no row moves, so SC1 rows have epsilon 0 and SC2/SC3 rows a
positive one. Every repetition r is fully determined by scenario.seed + r,
whichever process runs it, so results are reproducible byte for byte and
the repetitions can run side by side in forked worker processes.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, config, numcore
from .attack import attacked_mse
from .channel import ScenarioParams, build_dataset, default_scenario, split_dataset
from .config import ConfigError
from .defense import DefenseConfig, RoundRecord, adversarial_train, kept_round
from .framing import FormatError

SC1 = "SC1"
SC2 = "SC2"
SC3 = "SC3"

DEFAULT_ATTACK_GRID = tuple(round(0.01 * i, 2) for i in range(1, 11))

RESULTS_HEADER = "scenario,epsilon,repetition,mse"
SUMMARY_HEADER = "scenario,epsilon,mean_mse,std_mse,min_mse,max_mse,n"
RATIOS_HEADER = "scenario,epsilon,mse_ratio_vs_clean"
STAGES_HEADER = "repetition,stage,seconds,rows"
ROUNDS_HEADER = "repetition,round,clean_mse,adv_mse,dataset_rows,kept"

_SEED_SALT = 0xB5EC  # keeps harness child streams apart from dataset streams


def _write_table(path, header: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(line + "\n" for line in lines)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class ExperimentConfig:
    scenario: ScenarioParams = field(default_factory=default_scenario)
    train: numcore.TrainConfig = field(default_factory=numcore.TrainConfig)
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    attack_grid: Tuple[float, ...] = DEFAULT_ATTACK_GRID
    repetitions: int = 20
    num_instances: int = 12500
    train_fraction: float = 0.8
    output_dir: str = "results"

    def __post_init__(self):
        if len(self.attack_grid) == 0:
            raise ValueError("attack_grid must be nonempty")
        if not all(math.isfinite(e) and e > 0 for e in self.attack_grid):
            raise ValueError("attack_grid budgets must be finite and positive")
        if len({f"{e:.6g}" for e in self.attack_grid}) != len(self.attack_grid):
            raise ValueError("attack_grid budgets must differ at 6 significant digits")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.num_instances < 1:
            raise ValueError("num_instances must be at least 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if not 1 <= int(round(self.train_fraction * self.num_instances)) < self.num_instances:
            raise ValueError("train_fraction of num_instances leaves a split side empty")


@dataclass(frozen=True)
class ResultRow:
    scenario_id: str
    epsilon: float
    repetition: int
    mse: float


@dataclass
class ExperimentResult:
    rows: List[ResultRow]
    # (repetition, stage, seconds, rows) of each stage run, see _run_repetition
    stages: List[Tuple[int, str, float, int]] = field(default_factory=list)
    # each repetition's adversarial_train history, in repetition order
    rounds: List[List[RoundRecord]] = field(default_factory=list)

    def to_csv(self, path) -> None:
        """Deterministic result table; wall times go to stages_to_csv instead."""
        lines = (f"{r.scenario_id},{r.epsilon:.6g},{r.repetition},{r.mse:.12g}" for r in self.rows)
        _write_table(path, RESULTS_HEADER, lines)

    def stages_to_csv(self, path) -> None:
        lines = (f"{rep},{stage},{seconds:.6g},{rows}" for rep, stage, seconds, rows in self.stages)
        _write_table(path, STAGES_HEADER, lines)

    @staticmethod
    def from_csv(path) -> "ExperimentResult":
        """Read a results.csv; a malformed one, one with no rows, one that repeats a
        (scenario, epsilon, repetition), or a row run never writes (a scenario other
        than SC1-SC3, a negative repetition or epsilon, -0 included, an SC1 row at a
        nonzero epsilon, an SC2/SC3 row at epsilon 0, an epsilon that prints like another
        at 6 significant digits) raises framing.FormatError naming the file and line."""
        rows, lines, budgets = [], {}, {}
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
                    row = ResultRow(sc, float(eps), int(rep), float(mse))
                except ValueError as exc:
                    raise FormatError(f"{path}:{number}: {exc}") from None
                if not (math.isfinite(row.epsilon) and math.isfinite(row.mse)):
                    raise FormatError(f"{path}:{number}: non-finite number in {line!r}")
                if sc not in (SC1, SC2, SC3):
                    raise FormatError(f"{path}:{number}: unknown scenario {sc!r}")
                if row.repetition < 0 or math.copysign(1.0, row.epsilon) < 0:
                    raise FormatError(f"{path}:{number}: negative repetition or epsilon")
                if (sc == SC1) != (row.epsilon == 0):
                    at = f"nonzero epsilon {eps}" if sc == SC1 else "epsilon 0, which is SC1's"
                    raise FormatError(f"{path}:{number}: {sc} row at {at}")
                if (seen := budgets.setdefault(f"{row.epsilon:.6g}", row.epsilon)) != row.epsilon:
                    raise FormatError(f"{path}:{number}: epsilon {eps} prints like {seen!r}")
                first = lines.setdefault((sc, row.epsilon, row.repetition), number)
                if first != number:
                    raise FormatError(f"{path}:{number}: duplicate of the row on line {first}")
                rows.append(row)
        if not rows:
            raise FormatError(f"{path}: no result rows")
        return ExperimentResult(rows=rows)


def _run_repetition(cfg: ExperimentConfig, repetition: int):
    """One repetition's result rows, stage entries and defense history. As each
    stage ends, its (repetition, stage, seconds, rows) entry joins the stages,
    timed from the end of the one before, so the entries tile the repetition."""
    seed = cfg.scenario.seed + repetition
    params = replace(cfg.scenario, seed=seed)
    stages = []
    t0 = time.perf_counter()

    def lap(stage, rows):
        nonlocal t0
        t1 = time.perf_counter()
        stages.append((repetition, stage, t1 - t0, rows))
        t0 = t1

    dataset = build_dataset(params, cfg.num_instances)
    lap("build_dataset", cfg.num_instances)
    streams = np.random.SeedSequence([seed, _SEED_SALT]).spawn(3)
    split_rng, train_rng, defense_rng = (np.random.default_rng(s) for s in streams)
    train_ds, test_ds = split_dataset(dataset, cfg.train_fraction, split_rng)
    del dataset
    lap("split_dataset", cfg.num_instances)

    model, _ = numcore.fit(train_ds, cfg.train, train_rng)
    lap("train", train_ds.num_rows)
    X, y, grid = test_ds.features, test_ds.labels, cfg.attack_grid
    clean, *attacked = attacked_mse(model, X, y, (0.0, *grid))
    rows = [ResultRow(SC1, 0.0, repetition, clean)]
    rows += [ResultRow(SC2, float(eps), repetition, mse) for eps, mse in zip(grid, attacked)]
    lap("attack_sc2", test_ds.num_rows)

    robust, history = adversarial_train(model, train_ds, cfg.train, cfg.defense, defense_rng)
    lap("defense", sum(rec.dataset_rows for rec in history[1:]))
    defended = attacked_mse(robust, X, y, grid)
    rows += [ResultRow(SC3, float(eps), repetition, mse) for eps, mse in zip(grid, defended)]
    lap("attack_sc3", test_ds.num_rows)
    return rows, stages, history


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """All repetitions of SC1/SC2/SC3, each in a forked worker process, one per
    core usable at one BLAS thread (numcore._pass_threads), or all in this
    process when that is one core or one repetition. A worker runs its
    blocked passes on one thread. Rows come back sorted by (scenario,
    epsilon, repetition), stages and rounds in repetition order."""
    run, reps = partial(_run_repetition, cfg), range(cfg.repetitions)
    if (workers := min(cfg.repetitions, numcore._pass_threads())) == 1:
        outcomes = list(map(run, reps))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        init = numcore.enter_pool_worker
        with ProcessPoolExecutor(workers, mp_context=fork, initializer=init) as pool:
            outcomes = list(pool.map(run, reps))
    rep_rows, rep_stages, rounds = zip(*outcomes)
    rows = sorted(sum(rep_rows, []), key=lambda r: (r.scenario_id, r.epsilon, r.repetition))
    if any(not np.isfinite(r.mse) for r in rows):
        raise numcore.NumericalError("experiment produced a non-finite MSE")
    return ExperimentResult(rows=rows, stages=sum(rep_stages, []), rounds=list(rounds))


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


def emit_report(rows: Sequence[SummaryRow], out_dir, fmt: str = "csv") -> List[Path]:
    """Write summarize's rows in the requested format; returns the paths written.

    CSV: summary.csv (fixed header) plus ratios.csv, one line per row that
    has a ratio. JSON: summary.json with the same rows and, under "ratios",
    an "SC2_over_SC1"/"SC3_over_SC1" table of those ratios by epsilon. Every
    float is rendered once at 6 significant digits, and summary.json holds
    the numbers those CSV cells print.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format: {fmt!r}")
    if not rows:
        raise ValueError("cannot emit an empty summary")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = [
        [r.scenario_id]
        + [f"{v:.6g}" for v in (r.epsilon, r.mean_mse, r.std_mse, r.min_mse, r.max_mse)]
        + [str(r.n)]
        for r in rows
    ]
    ratios = [(c[0], c[1], f"{r.ratio:.6g}") for r, c in zip(rows, cells) if r.ratio is not None]
    if fmt == "csv":
        path, rpath = out_dir / "summary.csv", out_dir / "ratios.csv"
        _write_table(path, SUMMARY_HEADER, map(",".join, cells))
        _write_table(rpath, RATIOS_HEADER, map(",".join, ratios))
        return [path, rpath]
    keys = SUMMARY_HEADER.split(",")
    summary = [dict(zip(keys, [sc, *map(float, nums), int(n)])) for sc, *nums, n in cells]
    tables: Dict[str, Dict[str, float]] = {}
    for sc, eps, ratio in ratios:
        tables.setdefault(f"{sc}_over_{SC1}", {})[eps] = float(ratio)
    path = out_dir / "summary.json"
    _write_json(path, {"rows": summary, "ratios": tables})
    return [path]


def rounds_to_csv(histories: Sequence[Sequence[RoundRecord]], path) -> None:
    """Each repetition's adversarial_train history, one line per round; kept
    marks the round whose model the defense returns (defense.kept_round)."""
    rounds = ((rep, r, kept_round(h)) for rep, h in enumerate(histories) for r in h)
    lines = (
        f"{rep},{r.round_index},{r.clean_mse:.12g},{r.adv_mse:.12g},{r.dataset_rows},"
        f"{int(r is kept)}"
        for rep, r, kept in rounds
    )
    _write_table(path, ROUNDS_HEADER, lines)


def write_manifest(cfg: ExperimentConfig, path) -> None:
    """manifest.json of a run: its resolved config (config.dump, which config.load
    reads back) and the versions and BLAS (with numcore's thread count) the bits follow."""
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
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": numcore.BLAS_THREADS},
    }
    _write_json(path, manifest)


def load_config(path=None) -> ExperimentConfig:
    """Read a JSON config file; None gives the all-defaults experiment."""
    if path is None:
        return ExperimentConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    return config.load(ExperimentConfig, doc)
