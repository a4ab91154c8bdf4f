"""Command-line entry point.

Every artifact-producing run takes an --out directory and writes a
provenance.json (resolved config, tool version, wall time) beside its
outputs. Artifacts and reports are byte-reproducible for identical inputs
and seeds; provenance carries the only volatile fields.

Exit codes: 0 success, 1 usage/config error, 2 validation error (digest
mismatch, misalignment, malformed file, capacity), 3 runtime failure
(divergence, failed harness assertion). Errors print a JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .adapter import (
    apply_adapter,
    compression_report,
    decode,
    encode,
    load_adapter,
    save_adapter,
)
from .errors import (
    AlignmentError,
    CapacityError,
    ConfigError,
    DigestMismatchError,
    DivergenceError,
    FormatError,
    HarnessError,
    NonFiniteError,
)
from .harness import DEFAULT_SEEDS, EXPERIMENT_KINDS, ModelSpec, run_experiment
from .merging import (
    MergeEntry,
    MergeSpec,
    _finite_real,
    merge_lota,
    run_merge_spec,
)
from .params import digest, load_checkpoint, save_checkpoint
from .sparsity import compute_task_vector, load_mask, save_mask, sparsify
from .tasks import SyntheticTaskSpec
from .training import TrainConfig, lota, lotto, train

USAGE_ERROR, VALIDATION_ERROR, RUNTIME_ERROR = 1, 2, 3

_ERROR_CODES = (
    (ConfigError, USAGE_ERROR),
    (FileNotFoundError, USAGE_ERROR),
    (DigestMismatchError, VALIDATION_ERROR),
    (AlignmentError, VALIDATION_ERROR),
    (FormatError, VALIDATION_ERROR),
    (NonFiniteError, VALIDATION_ERROR),
    (CapacityError, VALIDATION_ERROR),
    (DivergenceError, RUNTIME_ERROR),
    (HarnessError, RUNTIME_ERROR),
)


def _print_error(exc: Exception) -> int:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            break
    else:
        raise exc
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _load_json(path: str) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_provenance(out: Path, args, config: dict, outputs: list[str],
                      started: float) -> None:
    record = {
        "tool": "lota",
        "version": __version__,
        "subcommand": args.command,
        "config": config,
        "outputs": sorted(outputs),
        "wall_time_s": time.perf_counter() - started,
    }
    (out / "provenance.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n"
    )


def _build_train_config(data: dict, seed_override: int | None) -> TrainConfig:
    try:
        config = TrainConfig(**data)
    except TypeError as exc:
        raise ConfigError(f"bad train config: {exc}") from exc
    if seed_override is not None:
        config = config.replace(seed=seed_override)
    return config


def _model_and_task(config: dict):
    try:
        model_spec = ModelSpec.from_json_dict(config["model"])
        task = SyntheticTaskSpec.from_json_dict(config["task"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad model/task config: {exc}") from exc
    model_spec.check_task(task)
    init_seed = int(config.get("init_seed", 0))
    return model_spec.build(init_seed), task


# -- subcommands ------------------------------------------------------------


def cmd_diff(args) -> int:
    started = time.perf_counter()
    base = load_checkpoint(args.base)
    finetuned = load_checkpoint(args.finetuned)
    adapter = encode(compute_task_vector(finetuned, base))
    out = _out_dir(args)
    save_adapter(adapter, out / "adapter.lta")
    _write_provenance(
        out, args, {"base": args.base, "finetuned": args.finetuned},
        ["adapter.lta"], started,
    )
    return 0


def cmd_sparsify(args) -> int:
    started = time.perf_counter()
    adapter = load_adapter(args.adapter)
    tv = decode(adapter)
    mask = sparsify(tv, args.sparsity)
    out = _out_dir(args)
    save_mask(mask, out / "mask.bin", source=f"sparsify:{args.adapter}")
    _write_provenance(
        out, args, {"adapter": args.adapter, "sparsity": args.sparsity},
        ["mask.bin", "mask.bin.json"], started,
    )
    return 0


def cmd_train(args) -> int:
    started = time.perf_counter()
    config = _load_json(args.config)
    model, task = _model_and_task(config)
    train_config = _build_train_config(config.get("train", {}), args.seed)
    if config.get("mask"):
        train_config = train_config.replace(mask=load_mask(config["mask"]))
    train_data, _ = task.make()
    final, record = train(model, train_data, train_config)
    out = _out_dir(args)
    save_checkpoint(model.params, out / "initial.ckpt")
    save_checkpoint(final, out / "final.ckpt")
    (out / "run.json").write_text(
        json.dumps(record.to_json_dict(), sort_keys=True, indent=2) + "\n"
    )
    _write_provenance(
        out, args, config, ["initial.ckpt", "final.ckpt", "run.json"], started
    )
    return 0


def cmd_lota(args) -> int:
    started = time.perf_counter()
    config = _load_json(args.config)
    model, task = _model_and_task(config)
    train_config = _build_train_config(config.get("train", {}), args.seed)
    sparsity = args.sparsity if args.sparsity is not None else float(
        config.get("sparsity", 0.9)
    )
    fraction = float(config.get("calibration_fraction", 1.0))
    train_data, _ = task.make()
    result = lota(model, train_data, sparsity, train_config, fraction)
    out = _out_dir(args)
    save_checkpoint(model.params, out / "initial.ckpt")
    save_checkpoint(result.w_final, out / "final.ckpt")
    save_adapter(result.adapter, out / "adapter.lta")
    save_mask(result.mask, out / "mask.bin", source="lota",
              seed=train_config.seed)
    records = {
        "calibration": result.calibration_record.to_json_dict()
        if result.calibration_record
        else None,
        "sparse": result.train_record.to_json_dict(),
    }
    (out / "run.json").write_text(
        json.dumps(records, sort_keys=True, indent=2) + "\n"
    )
    outputs = ["initial.ckpt", "final.ckpt", "adapter.lta", "mask.bin",
               "mask.bin.json", "run.json"]
    _write_provenance(out, args, {**config, "sparsity": sparsity}, outputs, started)
    return 0


def cmd_lotto(args) -> int:
    started = time.perf_counter()
    config = _load_json(args.config)
    try:
        model_spec = ModelSpec.from_json_dict(config["model"])
        tasks = [SyntheticTaskSpec.from_json_dict(t) for t in config["tasks"]]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad lotto config: {exc}") from exc
    model = model_spec.build(int(config.get("init_seed", 0)))
    train_config = _build_train_config(config.get("train", {}), args.seed)
    sparsity = args.sparsity if args.sparsity is not None else float(
        config.get("sparsity", 0.9)
    )
    constraints = (
        load_mask(config["initial_constraints"])
        if config.get("initial_constraints")
        else None
    )
    datasets = [task.make()[0] for task in tasks]
    result = lotto(
        model, datasets, sparsity, train_config, initial_constraints=constraints
    )
    out = _out_dir(args)
    outputs = []

    def emit(name, writer):
        writer(out / name)
        outputs.append(name)

    emit("initial.ckpt", lambda p: save_checkpoint(model.params, p))
    emit("final.ckpt", lambda p: save_checkpoint(result.w_final, p))
    for i, (mask, adapter) in enumerate(zip(result.masks, result.adapters)):
        emit(f"task{i}.mask.bin", lambda p, m=mask: save_mask(m, p, source=f"lotto:task{i}"))
        outputs.append(f"task{i}.mask.bin.json")
        emit(f"task{i}.adapter.lta", lambda p, a=adapter: save_adapter(a, p))
    emit(
        "constraints.mask.bin",
        lambda p: save_mask(result.constraint_trace[-1], p, source="lotto:union"),
    )
    outputs.append("constraints.mask.bin.json")
    (out / "run.json").write_text(
        json.dumps(
            [r.to_json_dict() for r in result.records], sort_keys=True, indent=2
        )
        + "\n"
    )
    outputs.append("run.json")
    _write_provenance(out, args, {**config, "sparsity": sparsity}, outputs, started)
    return 0


def cmd_encode(args) -> int:
    started = time.perf_counter()
    base = load_checkpoint(args.base)
    delta = load_checkpoint(args.delta)
    base.layout.require_aligned(delta.layout, "base and delta")
    from .sparsity import TaskVector

    tv = TaskVector(entries=delta, base_digest=digest(base))
    out = _out_dir(args)
    save_adapter(encode(tv), out / "adapter.lta")
    _write_provenance(
        out, args, {"base": args.base, "delta": args.delta}, ["adapter.lta"],
        started,
    )
    return 0


def cmd_decode(args) -> int:
    started = time.perf_counter()
    adapter = load_adapter(args.adapter)
    tv = decode(adapter)
    out = _out_dir(args)
    save_checkpoint(tv.entries, out / "delta.ckpt")
    _write_provenance(out, args, {"adapter": args.adapter}, ["delta.ckpt"], started)
    return 0


def cmd_apply(args) -> int:
    started = time.perf_counter()
    base = load_checkpoint(args.base)
    adapter = load_adapter(args.adapter)
    result = apply_adapter(base, adapter, check_digest=not args.no_check_digest)
    out = _out_dir(args)
    save_checkpoint(result, out / "model.ckpt")
    _write_provenance(
        out, args,
        {"base": args.base, "adapter": args.adapter,
         "check_digest": not args.no_check_digest},
        ["model.ckpt"], started,
    )
    return 0


def _merge_config(config: dict):
    """Checked (base path, adapter paths, entries, elect_signs, scaling).

    Entries are None for the default elect merge without per-entry items.
    """
    try:
        base_path, paths = config["base"], config["adapters"]
    except KeyError as exc:
        raise ConfigError(f"merge config missing key: {exc}") from exc
    if not isinstance(base_path, str):
        raise ConfigError(f"merge base must be a path string: {base_path!r}")
    if not (isinstance(paths, list) and all(isinstance(p, str) for p in paths)):
        raise ConfigError(f"merge adapters must be a list of path strings: {paths!r}")
    scaling = config.get("scaling", 1.0)
    if not _finite_real(scaling):
        raise ConfigError(f"merge scaling must be a finite number: {scaling!r}")
    scaling = float(scaling)
    elect = config.get("elect_signs", True)
    if not isinstance(elect, bool):
        raise ConfigError(f"elect_signs must be true or false: {elect!r}")
    items = config.get("entries")
    if items is None and elect:
        return base_path, paths, None, elect, scaling
    items = items or [{} for _ in paths]
    if not (isinstance(items, list) and all(isinstance(e, dict) for e in items)):
        raise ConfigError(f"merge entries must be a list of objects: {items!r}")
    if len(items) != len(paths):
        raise ConfigError("one entries item per adapter required")
    entries = tuple(
        MergeEntry(
            weight=e.get("weight", 1.0),
            trim_keep_fraction=e.get("trim_keep_fraction"),
            source=p,
        )
        for e, p in zip(items, paths)
    )
    return base_path, paths, entries, elect, scaling


def cmd_merge(args) -> int:
    started = time.perf_counter()
    config = _load_json(args.config)
    base_path, adapter_paths, entries, elect, scaling = _merge_config(config)
    base = load_checkpoint(base_path)
    adapters = [load_adapter(p) for p in adapter_paths]
    spec_record = MergeSpec(
        base_digest=digest(base).hex(),
        entries=entries or tuple(
            MergeEntry(weight=1.0, trim_keep_fraction=1.0, source=p)
            for p in adapter_paths
        ),
        elect_signs=elect,
        scaling=scaling,
    )
    if entries is None:
        merged = merge_lota(base, adapters, lam=scaling)
    else:
        merged = run_merge_spec(base, adapters, spec_record)
    out = _out_dir(args)
    save_checkpoint(merged, out / "merged.ckpt")
    (out / "merge_spec.json").write_text(
        json.dumps(spec_record.to_json_dict(), sort_keys=True, indent=2) + "\n"
    )
    _write_provenance(
        out, args, config, ["merged.ckpt", "merge_spec.json"], started
    )
    return 0


def cmd_inspect(args) -> int:
    if bool(args.adapter) == bool(args.mask):
        raise ConfigError("inspect needs exactly one of --adapter / --mask")
    if args.adapter:
        adapter = load_adapter(args.adapter)
        report = compression_report(adapter)
        ideal = report.ideal_ratio
        payload = {
            "kind": "adapter",
            "base_digest": adapter.base_digest.hex(),
            "tensors": [
                {"name": r.name, "n": r.n, "c": r.c,
                 "gap_bytes": len(r.gap_bytes)}
                for r in adapter.records
            ],
            "n_total": report.n_total,
            "c_total": report.c_total,
            "declared_sparsity": adapter.declared_sparsity,
            "compression": {
                "ideal_ratio": "inf" if ideal == float("inf") else ideal,
                "measured_ratio": report.measured_ratio,
                "payload_bits": report.payload_bits,
                "overhead_bits": report.overhead_bits,
            },
        }
    else:
        mask = load_mask(args.mask)
        payload = {
            "kind": "mask",
            "declared_sparsity": mask.declared_sparsity,
            "measured_sparsity": mask.measured_sparsity,
            "kept_count": mask.kept_count,
            "total_elements": mask.total_elements,
            "tensors": [
                {"name": n, "kept": int(a.sum()), "total": int(a.size)}
                for n, a in mask.items()
            ],
        }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _experiment_spec_from_config(config: dict):
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; expected one of "
            f"{sorted(EXPERIMENT_KINDS)}"
        )
    spec_cls, default_factory = EXPERIMENT_KINDS[kind]
    fields = {k: v for k, v in config.items() if k not in ("kind", "defaults")}
    try:
        if config.get("defaults"):
            return default_factory(seeds=tuple(config.get("seeds", DEFAULT_SEEDS)))
        fields["model"] = ModelSpec.from_json_dict(fields["model"])
        for key in ("task", "task_a", "task_b", "base_task"):
            if key in fields and fields[key] is not None:
                fields[key] = SyntheticTaskSpec.from_json_dict(fields[key])
        for key in ("seeds", "grid", "fractions", "fraction_grid",
                    "method_pairs", "pairs", "iterative_schedule"):
            if key in fields and fields[key] is not None:
                fields[key] = tuple(fields[key])
        spec = spec_cls(**fields)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad experiment spec: {exc}") from exc
    return spec


def cmd_experiment(args) -> int:
    started = time.perf_counter()
    config = _load_json(args.config)
    if args.seed is not None:
        config["seeds"] = [args.seed]
    report = run_experiment(_experiment_spec_from_config(config))
    out = _out_dir(args)
    (out / "report.json").write_text(report.to_json() + "\n")
    (out / "report.csv").write_text(report.to_csv())
    _write_provenance(
        out, args, config, ["report.json", "report.csv"], started
    )
    return 0


# -- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; usage errors are exit 1 here
        print(
            json.dumps({"error": {"type": "UsageError", "message": message}}),
            file=sys.stderr,
        )
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lota", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("diff", cmd_diff, "encode the delta between two checkpoints")
    p.add_argument("base")
    p.add_argument("finetuned")
    p.add_argument("--out", required=True)

    p = add("sparsify", cmd_sparsify, "magnitude mask from an adapter's deltas")
    p.add_argument("--adapter", required=True)
    p.add_argument("--sparsity", type=float, required=True)
    p.add_argument("--out", required=True)

    for name, fn, help_text in (
        ("train", cmd_train, "train a model per a JSON config"),
        ("lota", cmd_lota, "calibrate, extract mask, retrain sparsely"),
        ("lotto", cmd_lotto, "sequential disjoint-mask training"),
    ):
        p = add(name, fn, help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--sparsity", type=float)

    p = add("encode", cmd_encode, "dense delta checkpoint -> sparse adapter")
    p.add_argument("--base", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--out", required=True)

    p = add("decode", cmd_decode, "sparse adapter -> dense delta checkpoint")
    p.add_argument("--adapter", required=True)
    p.add_argument("--out", required=True)

    p = add("apply", cmd_apply, "apply an adapter to a base checkpoint")
    p.add_argument("--base", required=True)
    p.add_argument("--adapter", required=True)
    p.add_argument("--no-check-digest", action="store_true")
    p.add_argument("--out", required=True)

    p = add("merge", cmd_merge, "merge adapters per a JSON merge spec")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = add("inspect", cmd_inspect, "print adapter or mask statistics")
    p.add_argument("--adapter")
    p.add_argument("--mask")

    p = add("experiment", cmd_experiment, "run an experiment spec")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # mapped to documented exit codes
        return _print_error(exc)


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
