"""Command-line surface: train, eval, sweep, ablate, gradcheck, energy.

Every run receives a flat key = value config file; ``--seed`` and ``--out``
override the corresponding config entries. Every artifact written (report,
metrics, summary, checkpoint, energy curve) embeds the fully resolved config
and the seed. Reports are bit-reproducible for identical (config, seed);
wall-clock timing therefore goes to a separate timing.json, which is the one
file excluded from that guarantee.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import sys
import time
from pathlib import Path

from . import seeding
from .baselines import LogisticModel, MlpEncoder, MlpHead
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    ExperimentConfig,
    _coerce,
    config_from_mapping,
    expand_sweep,
    load_config,
    serialize_flat,
    sweep_axes,
)
from .datasets import load_embeddings, make_count_splits, make_benchmark_splits
from .energy import DEFAULT_CONSTANTS, EnergyConstants, crossover_curve, find_crossover
from .errors import (
    ConfigurationError,
    DataError,
    DataFormatError,
    DegenerateInputError,
    UnsupportedModeError,
)
from .head import HybridHead, build_hybrid_head
from .trainer import (
    count_model_parameters,
    evaluate,
    load_parameters,
    train,
)

_USAGE_ERROR = 2


def build_model(cfg: ExperimentConfig, input_dim: int):
    """Instantiate the configured model, all parameters from the PARAM_INIT stream."""
    rng = seeding.stream(cfg.seed, seeding.PARAM_INIT)
    if cfg.model == "logistic":
        return LogisticModel(input_dim)
    if cfg.model == "mlp-head":
        return MlpHead(input_dim, cfg.num_classes, cfg.mlp_config(), rng)
    if cfg.encoder_type == "quantum":
        return build_hybrid_head(cfg.encoder_config(), cfg.circuit_spec(), cfg.num_classes,
                                 cfg.final_linear, cfg.seed)
    encoder = MlpEncoder(input_dim, cfg.latent_dim(), cfg.encoder_mlp_config(), rng)
    return HybridHead(encoder, cfg.circuit_spec(), num_classes=cfg.num_classes,
                      final_linear=cfg.final_linear, rng=rng)


def load_dataset(cfg: ExperimentConfig):
    if not cfg.dataset:
        raise ConfigurationError("dataset: no path configured")
    path = Path(cfg.dataset)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    dataset = load_embeddings(path, cfg.dataset_format, num_classes=cfg.num_classes)
    if cfg.split_mode == "benchmark":
        return make_benchmark_splits(dataset, cfg.seed)
    return make_count_splits(dataset, cfg.train_per_class, cfg.val_per_class, cfg.seed)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _config_comment_lines(mapping: dict) -> str:
    return "".join(f"# {line}\n" for line in serialize_flat(mapping).splitlines())


def run_train(mapping: dict, out_dir: Path) -> dict:
    """Train per config, write report.json / metrics.csv / checkpoint, return report."""
    cfg = config_from_mapping(mapping)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    dataset = load_dataset(cfg)
    model = build_model(cfg, dataset.dim)
    with open(out_dir / "metrics.csv", "w", encoding="utf-8", buffering=1) as metrics:
        metrics.write(_config_comment_lines(mapping))
        metrics.write("epoch,loss,val_acc\n")

        def stream_row(epoch, loss, val_acc):
            metrics.write(f"{epoch},{loss!r},{val_acc!r}\n")

        report, _ = train(model, dataset, cfg.train_config(), noise=cfg.noise_model(),
                          on_epoch=stream_row)
    wall = time.perf_counter() - started

    payload = {
        "config": mapping,
        "seed": cfg.seed,
        "parameter_count": report.parameter_count,
        "best_epoch": report.best_epoch,
        "best_val_accuracy": report.best_val_accuracy,
        "test_accuracy": report.test_accuracy,
        "epochs": len(report.epoch_loss),
    }
    _write_json(out_dir / "report.json", payload)
    save_checkpoint(out_dir / "checkpoint.qhd1", model.parameter_arrays(),
                    meta=serialize_flat(mapping))
    # wall time is intentionally outside report.json so reports stay
    # bit-reproducible for identical (config, seed)
    _write_json(out_dir / "timing.json", {
        "config": mapping,
        "seed": cfg.seed,
        "wall_time_seconds": wall,
    })
    return payload


def _resolved_mapping(args, extra: dict | None = None) -> dict:
    mapping = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        mapping["seed"] = args.seed
    if getattr(args, "out", None):
        mapping["out_dir"] = args.out
    if extra:
        mapping.update(extra)
    # one directory for every command, a sweep included
    _coerce("out_dir", mapping.get("out_dir", ""))
    return mapping


def cmd_train(args) -> int:
    mapping = _resolved_mapping(args)
    payload = run_train(mapping, Path(mapping.get("out_dir", "runs/experiment")))
    print(
        f"train: best_val={payload['best_val_accuracy']:.4f} "
        f"test={payload['test_accuracy']:.4f} params={payload['parameter_count']}"
    )
    return 0


def cmd_eval(args) -> int:
    mapping = _resolved_mapping(args)
    cfg = config_from_mapping(mapping)
    dataset = load_dataset(cfg)
    model = build_model(cfg, dataset.dim)
    if isinstance(model, MlpHead) and model.bn is not None:
        raise UnsupportedModeError(
            "batch norm running statistics are not stored in checkpoints, "
            "so this checkpoint cannot be evaluated"
        )
    arrays, _ = load_checkpoint(args.checkpoint)
    load_parameters(model, arrays)
    accuracy = evaluate(model, dataset, args.split, cfg.noise_model(),
                        seed_path=(seeding.TEST,))
    out_dir = Path(mapping.get("out_dir", "runs/experiment"))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "eval_report.json", {
        "config": mapping,
        "seed": cfg.seed,
        "split": args.split,
        "checkpoint": str(args.checkpoint),
        "accuracy": accuracy,
        "parameter_count": count_model_parameters(model),
    })
    print(f"eval: split={args.split} accuracy={accuracy:.4f}")
    return 0


def _sweep_point(task):
    index, point, base_dir = task
    out = Path(base_dir) / f"point_{index:03d}"
    try:
        payload, status = run_train(point, out), "ok"
    except Exception as exc:  # keep sweeping; record the failure
        payload, status = {}, f"failed: {exc}"
    return {
        "point": f"point_{index:03d}",
        "status": status,
        "qubits": point.get("qubits", ExperimentConfig.qubits),
        "best_val_accuracy": payload.get("best_val_accuracy"),
        "test_accuracy": payload.get("test_accuracy"),
    }


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    mapping = _resolved_mapping(args)
    base_dir = Path(mapping.get("out_dir", "runs/sweep"))
    base_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(i, point, str(base_dir)) for i, point in enumerate(expand_sweep(mapping))]
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_sweep_point, tasks)
    else:
        results = [_sweep_point(task) for task in tasks]

    best_per_qubits: dict[int, dict] = {}
    for row in results:
        if row["status"] != "ok":
            continue
        q = row["qubits"]
        if q not in best_per_qubits or row["best_val_accuracy"] > best_per_qubits[q]["best_val_accuracy"]:
            best_per_qubits[q] = row
    lines = [_config_comment_lines(mapping), "qubits,best_val_accuracy,test_accuracy,point\n"]
    for q in sorted(best_per_qubits):
        row = best_per_qubits[q]
        lines.append(
            f"{q},{row['best_val_accuracy']!r},{row['test_accuracy']!r},{row['point']}\n"
        )
    (base_dir / "summary.csv").write_text("".join(lines), encoding="utf-8")
    _write_json(base_dir / "sweep_report.json", {
        "config": mapping,
        "seed": mapping.get("seed", 0),
        "axes": sweep_axes(mapping),
        "points": results,
    })
    failures = sum(1 for row in results if row["status"] != "ok")
    print(f"sweep: {len(results)} points, {failures} failed, "
          f"summary at {base_dir / 'summary.csv'}")
    return 0


_ABLATION_PATCHES = {
    "nn-encoder": {"encoder_type": "mlp"},
    "nn-head": {"model": "mlp-head"},
    "no-final-linear": {"final_linear": False},
}


def cmd_ablate(args) -> int:
    mapping = _resolved_mapping(args, extra=_ABLATION_PATCHES[args.mode])
    out_dir = Path(mapping.get("out_dir", "runs/ablate")) / args.mode
    payload = run_train(mapping, out_dir)
    print(
        f"ablate[{args.mode}]: best_val={payload['best_val_accuracy']:.4f} "
        f"test={payload['test_accuracy']:.4f} params={payload['parameter_count']}"
    )
    return 0


def cmd_gradcheck(args) -> int:
    mapping = _resolved_mapping(args)
    mapping.update({"error_rate_1q": 0.0, "error_rate_2q": 0.0, "shots": float("inf")})
    cfg = config_from_mapping(mapping)
    input_dim = min(768, 1 << cfg.resolved_encoder_qubits())
    model = build_model(cfg, input_dim)
    rng = seeding.stream(cfg.seed, seeding.GRADCHECK)
    X = rng.standard_normal((2, input_dim))
    y = rng.integers(cfg.num_classes, size=2)
    _, grads = model.batch_loss_and_gradients(X, y)

    def loss_now() -> float:
        # the loss the gradients belong to: a batch-norm head normalizes by the
        # batch's statistics here, and by its running ones in predict_logits
        return model.batch_loss_and_gradients(X, y)[0]

    h = 1e-5
    worst = 0.0
    for key, arr in model.parameter_arrays().items():
        flat = arr.reshape(-1)
        gflat = grads[key].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_now()
            flat[j] = orig - h
            down = loss_now()
            flat[j] = orig
            worst = max(worst, float(abs((up - down) / (2 * h) - gflat[j])))
    passed = bool(worst < 1e-4)
    if getattr(args, "out", None):
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "gradcheck.json", {
            "config": mapping,
            "seed": cfg.seed,
            "max_deviation": worst,
            "passed": passed,
        })
    print(f"gradcheck: max deviation {worst:.3e} -> {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# each ``qhead energy`` flag sets one EnergyConstants field, with its default
# taken from DEFAULT_CONSTANTS
_ENERGY_FLAGS = {
    "--qpu-watts": "qpu_watts_per_qubit",
    "--t-1q": "t_1q_seconds",
    "--t-2q": "t_2q_seconds",
    "--shots": "shots",
    "--gpu-watts": "gpu_watts",
    "--gpu-flops": "gpu_flops",
}


def cmd_energy(args) -> int:
    if args.min_qubits > args.max_qubits:
        raise ConfigurationError(f"--min-qubits {args.min_qubits} exceeds "
                                 f"--max-qubits {args.max_qubits}")
    constants = EnergyConstants(**{f: getattr(args, f) for f in _ENERGY_FLAGS.values()})
    qubit_range = range(args.min_qubits, args.max_qubits + 1)
    crossover = find_crossover(constants, qubit_range)
    rows = crossover_curve(constants, qubit_range)
    settings = dict(dataclasses.asdict(constants), crossover_qubits=crossover)
    lines = [_config_comment_lines(settings), "qubits,e_qpu_kj,e_gpu_kj\n"]
    lines.extend(f"{q},{e_qpu!r},{e_gpu!r}\n" for q, e_qpu, e_gpu in rows)
    out = Path(args.out) if args.out else Path("energy.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(lines), encoding="utf-8")
    print(f"energy: crossover at {crossover} qubits, curve at {out}")
    return 0


def _add_common(parser):
    parser.add_argument("--config", required=True, help="flat key = value config file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="root seed override")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhead",
        description="Hybrid quantum-classical classification heads: training, "
                    "sweeps, ablations, gradient checks, and energy estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("train", help="train one configuration"))

    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    _add_common(eval_p)
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--split", choices=("train", "val", "test"), default="test")

    sweep_p = sub.add_parser("sweep", help="train every point of the config grid")
    _add_common(sweep_p)
    sweep_p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    ablate_p = sub.add_parser("ablate", help="train one component-swap variant")
    _add_common(ablate_p)
    ablate_p.add_argument("--mode", required=True, choices=sorted(_ABLATION_PATCHES))

    _add_common(sub.add_parser("gradcheck", help="finite-difference check of head gradients"))

    energy_p = sub.add_parser("energy", help="QPU/GPU energy curves and crossover")
    energy_p.add_argument("--out", default=None, help="curve CSV path")
    for flag, field in _ENERGY_FLAGS.items():
        default = getattr(DEFAULT_CONSTANTS, field)
        energy_p.add_argument(flag, type=type(default), default=default, dest=field)
    energy_p.add_argument("--min-qubits", type=int, default=2, dest="min_qubits")
    energy_p.add_argument("--max-qubits", type=int, default=60, dest="max_qubits")

    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "sweep": cmd_sweep,
        "ablate": cmd_ablate,
        "gradcheck": cmd_gradcheck,
        "energy": cmd_energy,
    }
    try:
        return handlers[args.command](args)
    except (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
            ConfigurationError, DataError, DataFormatError, DegenerateInputError,
            UnsupportedModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
