"""One round of a workload in a fresh process: set-up, the timed part, the checks.

Started by run.py with PYTHONPATH holding the checkout's `src` and `bench`.
It writes one line `ready` to stdout when set-up is done, and one JSON line
with the round's measurements when the round ends.

    python3 bench/worker.py --workload sweep --seed 1 --dir OUT [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

SWEEP_REPS = 2
# One clean round and one adversarial round in every repetition: the
# default plateau rule stops after 2 to 5 rounds depending on the seed.
SWEEP_CONFIG = {"defense": {"max_rounds": 2}}
DATAGEN_INSTANCES = 50_000
ATTACK_INSTANCES = 50_000
ATTACK_TRAIN_FRACTION = 0.2  # 10,000 training rows, 40,000 held out
SIGN_SAMPLE_ROWS = 2_000

OPERATIONS = {"sweep": SWEEP_REPS, "datagen": 1, "attack_grid": 10}

_DONE = object()


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _invoke(cli, args) -> None:
    """Run a beamsec command in this process; its console output is kept aside."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="beamsec", standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise RuntimeError(f"beamsec {args[0]} exited with code {exc.code}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": sys.version.split()[0],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "BEAMSEC_THREADS": os.environ.get("BEAMSEC_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Sweep:
    """`beamsec run --reps 2` on the default config with the seed as base_seed."""

    def __init__(self, cli, seed: int, out: Path):
        self.cli, self.seed, self.out = cli, seed, out
        self.config = out / "config.json"
        self.config.write_text(json.dumps(SWEEP_CONFIG))

    def segments(self):
        args = ["run", "--config", str(self.config), "--reps", str(SWEEP_REPS)]
        args += ["--seed", str(self.seed), "--out", str(self.out / "results")]
        _invoke(self.cli, args)
        yield None

    def check(self) -> dict:
        import checks

        res = self.out / "results"
        results = (res / "results.csv").read_text()
        checks.check_results(results, checks.BUDGETS, SWEEP_REPS)
        checks.check_reports(results, (res / "summary.csv").read_text(), (res / "ratios.csv").read_text())
        return {"results_sha256": hashlib.sha256(results.encode()).hexdigest()}


class Datagen:
    """`beamsec generate --csv` of a 50,000-instance default-scenario dataset,
    then the binary file loaded back."""

    def __init__(self, cli, seed: int, out: Path):
        self.cli, self.seed = cli, seed
        self.bin, self.csv = out / "data.bin", out / "data.csv"

    def segments(self):
        from beamsec import channel

        args = ["generate", "--seed", str(self.seed), "--instances", str(DATAGEN_INSTANCES)]
        args += ["--out", str(self.bin), "--csv", str(self.csv)]
        _invoke(self.cli, args)
        self.loaded = channel.load_dataset(self.bin)
        yield None

    def check(self) -> dict:
        import checks

        try:
            header, X, y = checks.check_dataset_files(self.bin, self.csv, DATAGEN_INSTANCES, self.loaded)
            checks.check_dataset_values(header, X, y)
        finally:
            self.bin.unlink(missing_ok=True)
            self.csv.unlink(missing_ok=True)
        return {}


class AttackGrid:
    """FGSM and predict at the 10 default budgets over 40,000 held-out rows,
    against a model trained during set-up."""

    def __init__(self, cli, seed: int, out: Path):
        import numpy as np
        from beamsec import channel, numcore
        from checks import BUDGETS

        self.budgets = BUDGETS
        ds = channel.build_dataset(channel.default_scenario(seed=seed), ATTACK_INSTANCES)
        rng = np.random.default_rng(seed)
        train_ds, self.test = channel.split_dataset(ds, ATTACK_TRAIN_FRACTION, rng)
        self.model = numcore.init_model(train_ds.num_features, int(rng.integers(0, 2**63)))
        numcore.train(self.model, train_ds, numcore.TrainConfig(), rng)
        self.sample = rng.choice(self.test.num_rows, SIGN_SAMPLE_ROWS, replace=False)
        self.fd = None  # finite-difference signs, taken with the first check

    def segments(self):
        import numpy as np
        from beamsec import attack, numcore

        X, y = self.test.features, self.test.labels
        pred = numcore.predict(self.model, X)
        self.clean = float(np.mean((pred - y) ** 2))
        yield None
        self.attacked = []
        for eps in self.budgets:
            x_adv = attack.attack_dataset(self.model, self.test, attack.AttackConfig(epsilon=eps))
            pred = numcore.predict(self.model, x_adv)
            self.attacked.append(float(np.mean((pred - y) ** 2)))
            yield x_adv, eps

    def check_segment(self, x_adv, eps) -> None:
        import checks
        from beamsec import numcore

        if self.fd is None:
            rows = self.sample
            predict = lambda X: numcore.predict(self.model, X)
            self.fd = checks.fd_gradient_signs(predict, self.test.features[rows], self.test.labels[rows])
        signs = checks.perturbation_signs(self.test.features, x_adv, eps)
        checks.check_signs(signs[self.sample], *self.fd, eps)

    def check(self) -> dict:
        import checks

        checks.check_mse_curve(self.clean, self.attacked)
        return {"clean_mse": self.clean, "attacked_mse": self.attacked}


WORKLOADS = {"sweep": Sweep, "datagen": Datagen, "attack_grid": AttackGrid}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import beamsec.cli as cli

    import_s = time.perf_counter() - t0
    args.dir.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload](cli, args.seed, args.dir)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)

    report = {"ops": OPERATIONS[args.workload], "failed": 0, "import_s": import_s, "checks": []}
    # The timed part is the work done inside segments(); between the pieces
    # it yields, the checks of that piece run off the clock.
    wall = cpu = 0.0
    pieces = work.segments()
    try:
        while True:
            if tracer is not None:
                tracer.active = True
            c0, w0 = _cpu_s(), time.perf_counter()
            piece = next(pieces, _DONE)
            wall += time.perf_counter() - w0
            cpu += _cpu_s() - c0
            if tracer is not None:
                tracer.active = False
            if piece is _DONE:
                break
            if piece is not None:
                try:
                    work.check_segment(*piece)
                except Exception as exc:
                    report["checks"].append(f"{type(exc).__name__}: {exc}")
    except Exception as exc:
        report["failed"] = report["ops"]
        report["error"] = f"{type(exc).__name__}: {exc}"
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["wall_s"], report["cpu_s"] = wall, cpu

    if not report["failed"]:
        try:
            report.update(work.check())
        except Exception as exc:
            report["checks"].append(f"{type(exc).__name__}: {exc}")
    if tracer is not None:
        import spans

        tracer.write_csv(args.dir / "spans.csv")
        report["layers"] = spans.layer_metrics(tracer.spans, wall)
        report["layers"]["cli.import_s"] = import_s
    report["env"] = environment()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
