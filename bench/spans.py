"""Spans around calls into the beamsec modules, recorded from outside the program.

`Tracer.install()` replaces every public function of the traced modules (and
the public methods of their classes, and the click command callbacks of
`beamsec.cli`) with a wrapper that records a span: name, start, end, parent.
A function is rebound wherever the program looks it up, so a name that one
module imports from another (`harness.build_dataset`, `defense.attack_dataset`,
...) is wrapped in the importing module too. Spans stay in memory until
`write_csv` is called after the timed part.
"""

from __future__ import annotations

import csv
import inspect
import math
import sys
import time
from typing import Callable, Dict, List

LAYERS = ("channel", "numcore", "attack", "defense", "harness", "cli")


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_build(a, result):
    return {"instances": int(a["num_instances"])}


def _count_csv(a, result):
    return {"rows": int(a["ds"].num_rows)}


def _count_train(a, result):
    rows = int(a["data"].features.shape[0])
    cfg = a["cfg"]
    return {"rows": rows, "steps": cfg.epochs * math.ceil(rows / cfg.batch_size)}


def _count_rows_X(a, result):
    return {"rows": int(a["X"].shape[0])}


def _count_attack(a, result):
    return {"rows": int(a["data"].features.shape[0])}


def _count_defense(a, result):
    _, history = result
    best = min(range(len(history)), key=lambda i: (history[i].adv_mse, i))
    return {
        "rounds": len(history),
        "rows_trained": sum(rec.dataset_rows for rec in history) * a["train_cfg"].epochs,
        "rounds_after_kept": len(history) - 1 - best,
    }


# Counts taken from the arguments and return value of a wrapped call.
COUNTERS: Dict[str, Callable] = {
    "channel.build_dataset": _count_build,
    "channel.dataset_to_csv": _count_csv,
    "numcore.train": _count_train,
    "numcore.predict": _count_rows_X,
    "numcore.input_gradients": _count_rows_X,
    "attack.attack_dataset": _count_attack,
    "defense.adversarial_train": _count_defense,
}


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "counts")

    def __init__(self, sid, parent, name, start):
        self.sid, self.parent, self.name, self.start = sid, parent, name, start
        self.end = start
        self.counts: Dict[str, int] = {}


class Tracer:
    """Records spans while `active`; the worker turns it off during checks."""

    def __init__(self):
        self.spans: List[Span] = []
        self.active = False
        self._stack: List[int] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), parent, name, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(_bound(fn, args, kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import click

        modules = {layer: sys.modules[f"beamsec.{layer}"] for layer in LAYERS}
        wrapped: Dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
                elif isinstance(obj, click.Command) and not isinstance(obj, click.Group):
                    obj.callback = self._wrap(f"{layer}.{attr}", obj.callback)
        # rebind each wrapped function under every name the package looks it up by
        for name, mod in list(sys.modules.items()):
            if name == "beamsec" or name.startswith("beamsec."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped and inspect.isfunction(obj):
                        setattr(mod, attr, wrapped[id(obj)])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start", "end", "counts"])
            for s in self.spans:
                counts = ";".join(f"{k}={v}" for k, v in sorted(s.counts.items()))
                parent = "" if s.parent is None else s.parent
                out.writerow([s.sid, parent, s.name, repr(s.start), repr(s.end), counts])


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: List[Span], timed_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced timed part (units in METRIC_UNITS)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    total: Dict[str, float] = {}
    self_of: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = {}
    root = 0.0
    for s in spans:
        dur = s.end - s.start
        own = dur - child_time[s.sid]
        total[s.name] = total.get(s.name, 0.0) + dur
        self_of[s.name] = self_of.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.name.split(".", 1)[0]] += own
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
        if s.parent is None:
            root += dur

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    report_s = sum(
        t(n)
        for n in (
            "harness.summarize",
            "harness.emit_report",
            "harness.ExperimentResult.to_csv",
            "harness.ExperimentResult.timings_to_csv",
        )
    )
    m = {
        "channel.build_dataset_s": t("channel.build_dataset"),
        "channel.instances_per_s": _rate(c("channel.build_dataset.instances"), t("channel.build_dataset")),
        "channel.split_dataset_s": t("channel.split_dataset"),
        "channel.save_dataset_s": t("channel.save_dataset"),
        "channel.load_dataset_s": t("channel.load_dataset"),
        "channel.dataset_to_csv_s": t("channel.dataset_to_csv"),
        "channel.csv_rows_per_s": _rate(c("channel.dataset_to_csv.rows"), t("channel.dataset_to_csv")),
        "numcore.train_s": t("numcore.train"),
        "numcore.train_calls": calls.get("numcore.train", 0),
        "numcore.train_steps": c("numcore.train.steps"),
        "numcore.train_steps_per_s": _rate(c("numcore.train.steps"), t("numcore.train")),
        "numcore.predict_s": t("numcore.predict"),
        "numcore.input_gradients_s": t("numcore.input_gradients"),
        "numcore.predict_rows_per_s": _rate(c("numcore.predict.rows"), t("numcore.predict")),
        "numcore.input_gradients_rows_per_s": _rate(
            c("numcore.input_gradients.rows"), t("numcore.input_gradients")
        ),
        "attack.attack_dataset_s": t("attack.attack_dataset"),
        "attack.attack_dataset_self_s": self_of.get("attack.attack_dataset", 0.0),
        "attack.rows": c("attack.attack_dataset.rows"),
        "defense.adversarial_train_s": t("defense.adversarial_train"),
        "defense.rounds_run": c("defense.adversarial_train.rounds"),
        "defense.rows_trained": c("defense.adversarial_train.rows_trained"),
        "defense.rounds_after_kept": c("defense.adversarial_train.rounds_after_kept"),
        "harness.run_experiment_s": t("harness.run_experiment"),
        "harness.report_s": report_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.outside_s"] = timed_wall_s - root
    m["trace.spans"] = len(spans)
    return m


# Name and unit of every per-layer metric a traced run prints, in print order.
METRIC_UNITS = {
    "channel.build_dataset_s": "s",
    "channel.instances_per_s": "1/s",
    "channel.split_dataset_s": "s",
    "channel.save_dataset_s": "s",
    "channel.load_dataset_s": "s",
    "channel.dataset_to_csv_s": "s",
    "channel.csv_rows_per_s": "1/s",
    "numcore.train_s": "s",
    "numcore.train_calls": "count",
    "numcore.train_steps": "count",
    "numcore.train_steps_per_s": "1/s",
    "numcore.predict_s": "s",
    "numcore.input_gradients_s": "s",
    "numcore.predict_rows_per_s": "1/s",
    "numcore.input_gradients_rows_per_s": "1/s",
    "attack.attack_dataset_s": "s",
    "attack.attack_dataset_self_s": "s",
    "attack.rows": "count",
    "defense.adversarial_train_s": "s",
    "defense.rounds_run": "count",
    "defense.rows_trained": "count",
    "defense.rounds_after_kept": "count",
    "harness.run_experiment_s": "s",
    "harness.report_s": "s",
    "cli.import_s": "s",
    "channel.self_s": "s",
    "numcore.self_s": "s",
    "attack.self_s": "s",
    "defense.self_s": "s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "trace.outside_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
