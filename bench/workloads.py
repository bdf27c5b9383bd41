"""The three workloads: inputs made from the seed, one unit of work, output checks.

qhead receives only the generated inputs. Every workload is a closed loop
with one client: each call into qhead starts when the previous one returns.
The timed phase runs a fixed number of units, sized from ``--seconds`` by the
unit's nominal cost on the reference machine (see README.md), so the amount
of work does not depend on how fast the program is. Each workload also names
the host-speed reference kernel its times are scaled by (hostspeed.py).
"""
from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hostspeed import Reference
from layers import Probe, instrument_model, probe_cli_models, trace_qhead
from tracing import Tracer

# the paper protocol: 436 training samples in batches of 16, 800 epochs
PAPER_BATCHES_PER_EPOCH = 436 / 16
PAPER_EPOCHS = 800


@dataclass
class Op:
    """One attempted operation and, when it failed, why."""

    name: str
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def result_problems(workload, result) -> list[str]:
    if isinstance(result, Exception):
        return [f"raised {result!r}"]
    return workload.unit_problems(result)


# ---------------------------------------------------------------------------
# paper-noisy-step: HybridHead.batch_loss_and_gradients at the paper shape


class PaperNoisyStep:
    name = "paper-noisy-step"
    nominal_unit_s = 7.3
    # like the shift rows of one sample (221 states of 1024 amplitudes), with
    # 128 rows so that its memory stays under the step's own peak
    reference = Reference(qubits=10, rows=128, sweeps=7, seconds=0.123)
    min_units = 2
    batch = 16

    def setup(self, seed: int, units: int, work: Path):
        from qhead.ansatz import CircuitSpec
        from qhead.datasets import synthetic_clusters
        from qhead.head import EncoderConfig, build_hybrid_head
        from qhead.noise import NoiseModel

        data = synthetic_clusters(dim=768, n_per_class=self.batch // 2 * units,
                                  separation=10.0, seed=seed)
        order = np.random.default_rng(seed).permutation(len(data))
        batches = [
            (data.vectors[idx], data.labels[idx])
            for idx in np.split(order, units)
        ]
        encoder = EncoderConfig(num_encoders=1, encoder_qubits=10, encoder_layers=27)
        spec = CircuitSpec(qubits=10, main_layers=2, reupload_count=4, reupload_layers=1)
        noise = NoiseModel(p1q=1e-3, p2q=1e-2, shots=8192, seed=seed)

        def build():
            return build_hybrid_head(encoder, spec, seed=seed)

        return {"batches": batches, "noise": noise, "build": build, "model": build()}

    samples_per_unit = batch

    def attach(self, stack: contextlib.ExitStack, ctx, probe: Probe) -> None:
        instrument_model(ctx["model"], probe)

    def unit(self, ctx, i: int):
        X, y = ctx["batches"][i]
        return ctx["model"].batch_loss_and_gradients(X, y, noise=ctx["noise"],
                                                     seed_path=(0, i))

    def check(self, ctx, results) -> list[Op]:
        ops = [Op(f"step {i}", result_problems(self, r)) for i, r in enumerate(results)]
        rerun = Op("re-run of step 0 with the same seed path", [])
        try:
            again = self.unit(ctx, 0)
        except Exception as exc:  # a failed call is a failed operation
            rerun.problems.append(f"raised {exc!r}")
        else:
            if not isinstance(results[0], Exception) and not self.same(results[0], again):
                rerun.problems.append("loss or gradients differ from step 0 in some bit")
        return ops + [rerun]

    def traced_unit(self, ctx, probe: Probe, tracer: Tracer | None):
        """Build the head and take step 0, with or without tracing."""
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                trace_qhead(stack, tracer, probe)
            model = instrument_model(ctx["build"](), probe, tracer)
            X, y = ctx["batches"][0]
            return model.batch_loss_and_gradients(X, y, noise=ctx["noise"], seed_path=(0, 0))

    @staticmethod
    def same(a, b) -> bool:
        (loss_a, grads_a), (loss_b, grads_b) = a, b
        return (_same_bits(loss_a, loss_b) and grads_a.keys() == grads_b.keys()
                and all(_same_bits(grads_a[k], grads_b[k]) for k in grads_a))

    @staticmethod
    def unit_problems(result) -> list[str]:
        loss, grads = result
        if all(np.all(np.isfinite(v)) for v in (loss, *grads.values())):
            return []
        return ["non-finite loss or gradients"]


# ---------------------------------------------------------------------------
# qhead train through cli.main


_OUTPUTS = ("report.json", "metrics.csv", "checkpoint.qhd1")


class CliTrain:
    """``qhead train`` on a generated EMB1 file with a counts split."""

    min_units = 2

    def __init__(self, name: str, nominal_unit_s: float, reference: Reference, config: dict,
                 make_dataset, min_test_accuracy: float | None):
        self.name = name
        self.nominal_unit_s = nominal_unit_s
        self.reference = reference
        self.config = config
        self.make_dataset = make_dataset
        self.min_test_accuracy = min_test_accuracy

    def setup(self, seed: int, units: int, work: Path):
        from qhead.datasets import save_embeddings_binary

        work.mkdir(parents=True, exist_ok=True)
        data_path = work / "data.emb"
        save_embeddings_binary(self.make_dataset(seed), data_path)
        config = dict(self.config, dataset=str(data_path), seed=seed)
        config_path = work / "config.txt"
        config_path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()),
                               encoding="utf-8")
        return {"work": work, "config": config_path}

    @property
    def samples_per_unit(self) -> int:
        return 2 * self.config["train_per_class"] * self.config["epochs"]

    def attach(self, stack: contextlib.ExitStack, ctx, probe: Probe) -> None:
        probe_cli_models(stack, probe)

    def _train(self, ctx, i, main) -> Path:
        """One ``qhead train``; outputs move to their own directory afterwards.

        Every unit writes to the same ``--out`` path, because the resolved
        config (out_dir included) is embedded in every output file.
        """
        out = ctx["work"] / "out"
        rc = main(["train", "--config", str(ctx["config"]), "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"qhead train exited with {rc}")
        kept = ctx["work"] / f"out-{i}"
        out.rename(kept)
        return kept

    def unit(self, ctx, i: int):
        from qhead import cli

        return self._train(ctx, i, cli.main)

    def traced_unit(self, ctx, probe: Probe, tracer: Tracer | None):
        from qhead import cli

        with contextlib.ExitStack() as stack:
            if tracer is None:
                probe_cli_models(stack, probe)
                return self._train(ctx, "plain", cli.main)
            trace_qhead(stack, tracer, probe)
            return self._train(ctx, f"traced-{tracer.request}",
                               tracer.timed("cli.main", cli.main))

    @staticmethod
    def same(a: Path, b: Path) -> bool:
        return all((a / f).read_bytes() == (b / f).read_bytes() for f in _OUTPUTS)

    def unit_problems(self, out: Path) -> list[str]:
        from qhead.checkpoint import load_checkpoint

        problems = []
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        rows = [line for line in (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
                if line and not line.startswith("#")][1:]
        losses = [float(line.split(",")[1]) for line in rows]
        if len(losses) != self.config["epochs"] or not all(map(math.isfinite, losses)):
            problems.append(f"metrics.csv losses {losses}")
        arrays, _ = load_checkpoint(out / "checkpoint.qhd1")
        if not all(np.all(np.isfinite(a)) for a in arrays.values()):
            problems.append("non-finite checkpoint values")
        acc = report["test_accuracy"]
        if self.min_test_accuracy is not None and not acc >= self.min_test_accuracy:
            problems.append(f"test_accuracy {acc} below {self.min_test_accuracy}")
        return problems

    def check(self, ctx, results) -> list[Op]:
        ops = [Op(f"qhead train {i}", result_problems(self, r)) for i, r in enumerate(results)]
        first = results[0]
        for op, result in zip(ops[1:], results[1:]):
            if op.ok and not isinstance(first, Exception) and not self.same(first, result):
                op.problems.append("outputs differ from run 0 in some byte")
        return ops


def _paper_clusters(seed: int):
    from qhead.datasets import synthetic_clusters

    return synthetic_clusters(dim=768, n_per_class=48, separation=10.0, seed=seed)


_SMOKE_SPLIT = {"train_per_class": 24, "val_per_class": 24}


def _smoke_features(seed: int):
    """Criterion-7 preparation: train-split PCA to 8 components plus an anchor.

    Separation 20 and 24 validation samples per class (criterion 7: 10 and 8)
    make ten epochs enough for test accuracy >= 0.90 on every seed tried.
    qhead keeps the parameters of the first epoch with the best validation
    accuracy; with criterion 7's values 1 to 2 seeds in 30 ended below the
    bound, and with 16 validation samples per class seed 31 reached full
    validation accuracy after one epoch and kept those parameters, which
    scored 0.857 on the test set.
    """
    from qhead.datasets import (
        append_anchor_feature,
        make_count_splits,
        pca_project,
        synthetic_clusters,
    )

    data = synthetic_clusters(dim=768, n_per_class=68, separation=20.0, seed=seed)
    # the same split qhead train rebuilds from the same seed and counts
    split = make_count_splits(data, seed=seed, **_SMOKE_SPLIT)
    return append_anchor_feature(pca_project(split, 8), value=6.0)


_SHAPE = {"main_layers": 2, "reupload_count": 4, "reupload_layers": 1, "batch_size": 16,
          "split_mode": "counts"}

PAPER_CLEAN_CLI = CliTrain(
    name="paper-clean-cli",
    nominal_unit_s=7.0,
    # adjoint sweeps on single 1024-amplitude states
    reference=Reference(qubits=10, rows=1, sweeps=450, seconds=0.118),
    config=dict(_SHAPE, qubits=10, encoder_layers=27, epochs=2, shots="inf",
                error_rate_1q=0.0, error_rate_2q=0.0, train_per_class=32, val_per_class=8),
    make_dataset=_paper_clusters,
    min_test_accuracy=None,
)

SMOKE_NOISY_CLI = CliTrain(
    name="smoke-noisy-cli",
    nominal_unit_s=6.8,
    # the shift rows of one sample: 133 states of 64 amplitudes
    reference=Reference(qubits=6, rows=133, sweeps=200, seconds=0.124),
    config=dict(_SHAPE, **_SMOKE_SPLIT, qubits=6, encoder_layers=3, epochs=10,
                learning_rate=0.05, shots="inf", error_rate_1q=1e-3, error_rate_2q=1e-2),
    make_dataset=_smoke_features,
    min_test_accuracy=0.90,
)

WORKLOADS = {w.name: w for w in (PaperNoisyStep(), PAPER_CLEAN_CLI, SMOKE_NOISY_CLI)}
