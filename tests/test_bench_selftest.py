"""The benchmark runs on the current program: each check in bench/checks.py
accepts real output and rejects a corrupted copy of it, and the tracer of
bench/spans.py counts every call it has a counter for."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "bench"]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# The per-layer metric that each counter of bench/spans.py feeds.
COUNTED_METRICS = {
    "channel.build_dataset": "channel.instances_per_s",
    "channel.dataset_to_csv": "channel.csv_rows_per_s",
    "numcore.train": "numcore.train_steps",
    "numcore.predict": "numcore.predict_rows_per_s",
    "numcore.input_gradients": "numcore.input_gradients_rows_per_s",
    "attack.attack_dataset": "attack.rows",
    "defense.adversarial_train": "defense.rows_trained",
}

TRACED_COMMANDS = """
import json, sys
import spans
from beamsec import cli
tracer = spans.Tracer()
tracer.install()
tracer.active = True
config, out = sys.argv[1:]
for args in (
    ["run", "--config", config, "--reps", "1", "--out", out + "/run"],
    ["generate", "--config", config, "--out", out + "/data.bin", "--csv", out + "/data.csv"],
):
    cli.main.main(args=args, prog_name="beamsec", standalone_mode=False)
metrics = spans.layer_metrics(tracer.spans, 0.0)
print(json.dumps({"counters": sorted(spans.COUNTERS), "metrics": metrics}))
"""


def test_bench_tracer_counts_every_counted_call(tmp_path, tiny_config_path):
    """The tracer binds the arguments of the calls it counts by name
    (num_instances, ds, data, cfg, X, train_cfg): a traced run and dataset
    export fire every counter, and each counter's metric reads above 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "bench"]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_COMMANDS, str(tiny_config_path), str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["counters"] == sorted(COUNTED_METRICS)
    for counter, metric in COUNTED_METRICS.items():
        assert report["metrics"][metric] > 0, counter


TRACED_TRAIN = """
import json
from types import SimpleNamespace
import numpy as np
import spans
from beamsec import cli, numcore
tracer = spans.Tracer()
tracer.install()
tracer.active = True
rng = np.random.default_rng(0)
data = SimpleNamespace(features=rng.normal(size=(100, 4)), labels=rng.uniform(-0.5, 0.5, 100))
model = numcore.init_model(4, 1, hidden_dims=(8,))
numcore.train(model, data, numcore.TrainConfig(batch_size=10, epochs=1), rng)
print(json.dumps([span.name for span in tracer.spans]))
"""


def test_bench_tracer_sees_no_span_inside_training():
    """A 10-step train holds its optimizer state in one private object, so
    a traced run records the train call and the init_model that built its
    model, and no span per step."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "bench"]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_TRAIN],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == ["numcore.init_model", "numcore.train"]
