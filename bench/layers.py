"""Where the benchmark attaches to qhead, and the per-layer metrics it derives.

Two kinds of attachment, both from outside the package:

* a probe on the model object, present in every run: it times each
  ``batch_loss_and_gradients`` call (the ``step_s_p50`` samples) and checks
  that every loss, gradient and logit is finite;
* tracing, only in ``--trace 1`` runs: spans around the entry points of each
  module and counters on the simulator kernels (see README.md for the map
  from each per-layer metric to the end-to-end metric it should move).
"""
from __future__ import annotations

import contextlib
import time

import numpy as np

from tracing import Tracer, patch

# the counters that must repeat exactly between two traced runs of one seed
DETERMINISTIC_COUNTERS = (
    "simcore.gate_rows",
    "grad.shift_rows",
    "grad.adjoint_sweeps",
    "noise.trajectories",
    "noise.pauli_insertions",
    "noise.shot_clamp_hits",
)

_HEAD_CALLS = {"trainer.step", "head.predict"}
_ENCODER_CALLS = {"head.encoder_fwd", "head.encoder_bwd"}


class Probe:
    """Step times and non-finite outputs seen on one model.

    With a ``host``, every step is followed by the reference samples that
    keep the host-speed measurement in step with the work.
    """

    def __init__(self, host=None):
        self.step_s: list[float] = []
        self.step_at: list[tuple[float, float]] = []
        self.nonfinite: list[str] = []
        self.host = host

    def check(self, what: str, *values) -> None:
        if not all(np.all(np.isfinite(v)) for v in values):
            self.nonfinite.append(what)


def instrument_model(model, probe: Probe, tracer: Tracer | None = None):
    """Attach the probe (and, when tracing, spans) to one model instance."""
    step = model.batch_loss_and_gradients
    predict = model.predict_logits

    def probed_step(X, y, noise=None, seed_path=()):
        start = time.perf_counter()
        loss, grads = step(X, y, noise=noise, seed_path=seed_path)
        end = time.perf_counter()
        probe.step_s.append(end - start)
        probe.step_at.append((start, end))
        if probe.host is not None:
            probe.host.after_work(end - start)
        probe.check(f"loss/gradients at seed path {seed_path}", loss, *grads.values())
        return loss, grads

    def probed_predict(X, noise=None, seed_path=()):
        logits = predict(X, noise=noise, seed_path=seed_path)
        probe.check(f"logits at seed path {seed_path}", logits)
        return logits

    model.batch_loss_and_gradients = probed_step
    model.predict_logits = probed_predict
    if tracer is None:
        return model

    def count_samples(result, X, *args, **kwargs):
        tracer.counters["head.samples"] += len(X)

    def count_batch(result, X, *args, **kwargs):
        count_samples(result, X)
        tracer.counters["trainer.batches"] += 1

    model.batch_loss_and_gradients = tracer.timed("trainer.step", probed_step, count_batch)
    model.predict_logits = tracer.timed("head.predict", probed_predict, count_samples)
    encoder = model.encoder
    encoder.forward = tracer.timed("head.encoder_fwd", encoder.forward)
    encoder.backward = tracer.timed("head.encoder_bwd", encoder.backward)
    return model


def _kernel_counter(tracer: Tracer, kind: str):
    counters = tracer.counters

    def on_call(amps, num_qubits, *rest):
        counters["simcore.gate_rows"] += amps.size >> num_qubits
        # computed bytes: RY and X/Y read and write every amplitude; CNOT and
        # Z touch only the half where the control (or the qubit) is 1
        half = kind == "cnot" or (kind == "pauli" and rest[1] == "Z")
        counters["simcore.amp_bytes"] += amps.nbytes if half else 2 * amps.nbytes

    return on_call


def trace_qhead(stack: contextlib.ExitStack, tracer: Tracer, probe: Probe) -> None:
    """Wrap qhead's module-level entry points until ``stack`` closes.

    Each function is replaced in the namespace its caller looks it up in:
    ``run_gates`` reads the kernels from ``qhead.grad``, the head reads the
    shift batch and adjoint sweep from ``qhead.head``, and ``qhead train``
    reads its helpers from ``qhead.cli``.
    """
    from qhead import cli, grad, head, noise, trainer

    counters = tracer.counters
    for kind in ("ry", "cnot", "pauli"):
        patch(stack, grad, f"_{kind}",
              lambda fn, kind=kind: tracer.counted(fn, _kernel_counter(tracer, kind)))

    def shift_rows(result, circuit, rows, *args, **kwargs):
        counters["grad.shift_rows"] += rows.shape[0]

    def adjoint_sweep(result, *args, **kwargs):
        counters["grad.adjoint_sweeps"] += 1

    def trajectory(result, circuit, model, rng):
        if model.p1q > 0.0 or model.p2q > 0.0:
            counters["noise.trajectories"] += 1
            counters["noise.pauli_insertions"] += len(result) - len(circuit)

    def shot_estimates(result, z, shots, eps):
        z = np.asarray(z, dtype=np.float64)
        raw = z + np.asarray(eps) * np.sqrt(np.clip(1.0 - z * z, 0.0, None) / shots)
        counters["noise.shot_estimates"] += np.size(result)
        counters["noise.shot_clamp_hits"] += int(np.count_nonzero(np.abs(raw) > 1.0))

    def checkpoint_bytes(result, path, *args, **kwargs):
        with open(path, "rb") as fh:
            counters["checkpoint.bytes"] += len(fh.read())

    spans = [
        (head, "_batch_expectations", "grad.shift", shift_rows),
        (head, "adjoint_observable_gradients", "grad.adjoint", adjoint_sweep),
        (noise, "sample_pauli_insertions", "noise.sample", trajectory),
        (noise, "gaussian_shot_estimate", "noise.sample", shot_estimates),
        (head, "_plan_pqc", "ansatz.plan", None),
        (head, "encoder_circuit", "ansatz.plan", None),
        (trainer, "adam_step", "trainer.adam", None),
        (trainer, "evaluate", "trainer.eval", None),
        (cli, "train", "trainer.train", None),
        (cli, "load_embeddings", "datasets.load", None),
        (cli, "make_count_splits", "datasets.split", None),
        (cli, "make_benchmark_splits", "datasets.split", None),
        (cli, "save_checkpoint", "checkpoint.save", checkpoint_bytes),
    ]
    for owner, attr, name, on_return in spans:
        patch(stack, owner, attr,
              lambda fn, name=name, on_return=on_return: tracer.timed(name, fn, on_return))
    probe_cli_models(stack, probe, tracer)


def probe_cli_models(stack: contextlib.ExitStack, probe: Probe,
                     tracer: Tracer | None = None) -> None:
    """Instrument every model ``qhead train`` builds until ``stack`` closes."""
    from qhead import cli

    def instrumented_build(fn):
        def build(*args, **kwargs):
            return instrument_model(fn(*args, **kwargs), probe, tracer)
        return build

    patch(stack, cli, "build_model", instrumented_build)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced unit of work."""
    t = tracer.totals()

    def total(name):
        return t.get(name, {}).get("total", 0.0)

    def self_time(name):
        return t.get(name, {}).get("self", 0.0)

    c = tracer.counters
    head_total = total("trainer.step") + total("head.predict")
    return {
        "simcore.gate_rows": c["simcore.gate_rows"],
        "simcore.amp_bytes": c["simcore.amp_bytes"],
        "grad.shift_rows": c["grad.shift_rows"],
        "grad.shift_s": total("grad.shift"),
        "grad.adjoint_sweeps": c["grad.adjoint_sweeps"],
        "grad.adjoint_s": total("grad.adjoint"),
        "noise.trajectories": c["noise.trajectories"],
        "noise.pauli_insertions": c["noise.pauli_insertions"],
        "noise.shot_estimates": c["noise.shot_estimates"],
        "noise.shot_clamp_hits": c["noise.shot_clamp_hits"],
        "noise.sample_s": total("noise.sample"),
        "head.encoder_fwd_s": total("head.encoder_fwd"),
        "head.encoder_bwd_s": total("head.encoder_bwd"),
        "head.pqc_s": head_total - tracer.child_total(_HEAD_CALLS, _ENCODER_CALLS),
        "head.samples": c["head.samples"],
        "trainer.step_s": total("trainer.step"),
        "trainer.adam_s": total("trainer.adam"),
        "trainer.eval_s": total("trainer.eval"),
        "trainer.self_s": self_time("trainer.train"),
        "trainer.batches": c["trainer.batches"],
        "ansatz.plan_s": total("ansatz.plan"),
        "datasets.load_s": total("datasets.load"),
        "datasets.split_s": total("datasets.split"),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.bytes": c["checkpoint.bytes"],
        "cli.self_s": self_time("cli.main"),
    }


def step_profile(tracer: Tracer) -> dict[str, float]:
    """Shares of ``trainer.step_s`` taken by its main children."""
    step = tracer.totals().get("trainer.step", {}).get("total", 0.0)
    if step <= 0.0:
        return {}
    shift = tracer.child_total({"trainer.step"}, {"grad.shift"})
    encoders = tracer.child_total({"trainer.step"}, _ENCODER_CALLS)
    return {
        "grad.shift": shift / step,
        "head.encoder_fwd+bwd": encoders / step,
        "rest of head.pqc": 1.0 - (shift + encoders) / step,
    }
