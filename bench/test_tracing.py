"""Checks of the benchmark's own tracing on a tiny head (runs in well under a second)."""
from __future__ import annotations

import contextlib
import time

import numpy as np

from layers import DETERMINISTIC_COUNTERS, Probe, instrument_model, layer_metrics, trace_qhead
from tracing import Tracer, patch


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.timed("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()

    tracer.timed("outer", body)()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 2
    outer = totals["outer"]
    assert abs(outer["self"] - (outer["total"] - totals["inner"]["total"])) < 1e-9
    assert tracer.child_total({"outer"}, {"inner"}) == totals["inner"]["total"]


def test_patch_restores_on_exit():
    class Owner:
        value = 1

    with contextlib.ExitStack() as stack:
        patch(stack, Owner, "value", lambda original: original + 1)
        assert Owner.value == 2
    assert Owner.value == 1


def _tiny_step(tracer):
    from qhead.ansatz import CircuitSpec
    from qhead.head import EncoderConfig, build_hybrid_head
    from qhead.noise import NoiseModel

    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((2, 4)), np.array([0, 1])
    noise = NoiseModel(p1q=0.2, p2q=0.2, shots=64, seed=1)
    probe = Probe()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            trace_qhead(stack, tracer, probe)
        model = build_hybrid_head(EncoderConfig(1, 2, 1), CircuitSpec(2, main_layers=1,
                                  reupload_count=1, reupload_layers=1), seed=3)
        instrument_model(model, probe, tracer)
        loss, grads = model.batch_loss_and_gradients(X, y, noise=noise, seed_path=(0, 0))
    assert not probe.nonfinite and len(probe.step_s) == 1
    return loss, grads


def test_tracing_does_not_change_results_and_counts_repeat():
    plain = _tiny_step(None)
    first, second = Tracer(1), Tracer(2)
    for tracer in (first, second):
        loss, grads = _tiny_step(tracer)
        assert loss == plain[0]
        assert all(np.array_equal(grads[k], plain[1][k]) for k in plain[1])
    assert all(first.counters[k] == second.counters[k] for k in DETERMINISTIC_COUNTERS)
    metrics = layer_metrics(first)
    assert metrics["trainer.batches"] == 1 and metrics["head.samples"] == 2
    assert metrics["grad.shift_rows"] > 0 and metrics["noise.trajectories"] == 2
    assert metrics["simcore.gate_rows"] > 0 and metrics["grad.shift_s"] > 0.0
