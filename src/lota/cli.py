"""Command-line entry point.

Every artifact-producing run takes an --out directory; it returns its
resolved config and the names of its outputs, and `dispatch` writes
provenance.json (resolved config, tool version, wall time) beside them.
Artifacts and reports are byte-reproducible for identical inputs and seeds;
provenance carries the only volatile fields.

Every config key, and every --seed or --sparsity flag, is checked before
any file is read or any step is taken; an unknown key, or one that the
command does not read, is refused, so a typo never runs at a default.

Exit codes: 0 success, 1 usage/config error, 2 validation error (digest
mismatch, misalignment, malformed file, capacity), 3 runtime failure
(divergence, failed harness assertion). Errors print a JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
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
from .config import (BOOL, SEED_MAX, STRING, check_fields, checked, choice, from_json,
                     integer, optional, real, seq)
from .container import write_atomic
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
from .harness import EXPERIMENT_KINDS, ModelSpec, run_experiment
from .merging import MergeEntry, MergeSpec, run_merge_spec
from .params import digest, load_checkpoint, save_checkpoint
from .sparsity import SPARSITY, compute_task_vector, load_mask, save_mask, sparsify
from .tasks import SyntheticTaskSpec
from .training import FRACTION, TrainConfig, lota, lotto, train

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


def _write_json(path: Path, obj) -> None:
    """Sorted, indented JSON and a newline, written atomically."""
    write_atomic(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())


@dataclass(frozen=True)
class RunConfig:
    """The config of `lota train` and `lota lota` (`task`) and `lota lotto`
    (`tasks`); `mask` and `initial_constraints` are mask file paths. Each
    command takes only the keys that `_RUN_KEYS` lists for it."""

    model: ModelSpec
    train: TrainConfig
    task: SyntheticTaskSpec | None = None
    tasks: tuple[SyntheticTaskSpec, ...] | None = None
    init_seed: int = checked(integer(0, SEED_MAX), default=0)
    sparsity: float = checked(SPARSITY, default=0.9)
    calibration_fraction: float = checked(FRACTION, default=1.0)
    mask: str | None = checked(optional(STRING), default=None)
    initial_constraints: str | None = checked(optional(STRING), default=None)

    def __post_init__(self):
        check_fields(self)
        for task in (self.task, *(self.tasks or ())):
            if task is not None:
                self.model.check_task(task)


# the RunConfig keys that each run command reads
_RUN_KEYS = {
    "train": {"model", "train", "task", "init_seed", "mask"},
    "lota": {"model", "train", "task", "init_seed", "sparsity", "calibration_fraction"},
    "lotto": {"model", "train", "tasks", "init_seed", "sparsity", "initial_constraints"},
}


def _run_config(args, task_key: str) -> tuple[dict, RunConfig]:
    """The JSON config of a run command and its RunConfig, `--seed` applied
    to both, so that the config that provenance records is the one run."""
    config = _load_json(args.config)
    unread = sorted(config.keys() - _RUN_KEYS[args.command])
    if unread:
        raise ConfigError(
            f"unknown key {unread[0]!r} in config: lota {args.command} does not read it"
        )
    run = from_json(RunConfig, config, "config")
    if getattr(run, task_key) is None:
        raise ConfigError(f"missing key {task_key!r} in config")
    if args.seed is not None:
        run = dataclasses.replace(run, train=run.train.replace(seed=args.seed))
        config = {**config, "train": {**config["train"], "seed": args.seed}}
    if getattr(args, "sparsity", None) is not None:
        run = dataclasses.replace(run, sparsity=args.sparsity)
    return config, run


# -- subcommands ------------------------------------------------------------


# Each artifact command returns its config and the names of its outputs.
Done = tuple[dict, list[str]]


def cmd_diff(args) -> Done:
    base = load_checkpoint(args.base)
    finetuned = load_checkpoint(args.finetuned)
    adapter = encode(compute_task_vector(finetuned, base))
    out = _out_dir(args)
    save_adapter(adapter, out / "adapter.lta")
    return {"base": args.base, "finetuned": args.finetuned}, ["adapter.lta"]


def cmd_sparsify(args) -> Done:
    SPARSITY.require("sparsity", args.sparsity)
    adapter = load_adapter(args.adapter)
    tv = decode(adapter)
    mask = sparsify(tv, args.sparsity)
    out = _out_dir(args)
    save_mask(mask, out / "mask.bin", source=f"sparsify:{args.adapter}")
    config = {"adapter": args.adapter, "sparsity": args.sparsity}
    return config, ["mask.bin", "mask.bin.json"]


def cmd_train(args) -> Done:
    config, run = _run_config(args, "task")
    model = run.model.build(run.init_seed)
    train_config = run.train.replace(mask=load_mask(run.mask) if run.mask else None)
    train_data, _ = run.task.make()
    final, record = train(model, train_data, train_config)
    out = _out_dir(args)
    save_checkpoint(model.params, out / "initial.ckpt")
    save_checkpoint(final, out / "final.ckpt")
    _write_json(out / "run.json", record.to_json_dict())
    return config, ["initial.ckpt", "final.ckpt", "run.json"]


def cmd_lota(args) -> Done:
    config, run = _run_config(args, "task")
    model, train_config = run.model.build(run.init_seed), run.train
    sparsity, fraction = float(run.sparsity), float(run.calibration_fraction)
    train_data, _ = run.task.make()
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
    _write_json(out / "run.json", records)
    outputs = ["initial.ckpt", "final.ckpt", "adapter.lta", "mask.bin",
               "mask.bin.json", "run.json"]
    return {**config, "sparsity": sparsity}, outputs


def cmd_lotto(args) -> Done:
    config, run = _run_config(args, "tasks")
    model, train_config = run.model.build(run.init_seed), run.train
    sparsity = float(run.sparsity)
    constraints = load_mask(run.initial_constraints) if run.initial_constraints else None
    datasets = [task.make()[0] for task in run.tasks]
    result = lotto(
        model, datasets, sparsity, train_config, initial_constraints=constraints
    )
    out = _out_dir(args)
    save_checkpoint(model.params, out / "initial.ckpt")
    save_checkpoint(result.w_final, out / "final.ckpt")
    outputs = ["initial.ckpt", "final.ckpt"]
    for i, (mask, adapter) in enumerate(zip(result.masks, result.adapters)):
        save_mask(mask, out / f"task{i}.mask.bin", source=f"lotto:task{i}")
        save_adapter(adapter, out / f"task{i}.adapter.lta")
        outputs += [f"task{i}.mask.bin", f"task{i}.mask.bin.json", f"task{i}.adapter.lta"]
    save_mask(result.constraint_trace[-1], out / "constraints.mask.bin",
              source="lotto:union")
    _write_json(out / "run.json", [r.to_json_dict() for r in result.records])
    outputs += ["constraints.mask.bin", "constraints.mask.bin.json", "run.json"]
    return {**config, "sparsity": sparsity}, outputs


def cmd_encode(args) -> Done:
    base = load_checkpoint(args.base)
    delta = load_checkpoint(args.delta)
    base.layout.require_aligned(delta.layout, "base and delta")
    from .sparsity import TaskVector

    tv = TaskVector(entries=delta, base_digest=digest(base))
    out = _out_dir(args)
    save_adapter(encode(tv), out / "adapter.lta")
    return {"base": args.base, "delta": args.delta}, ["adapter.lta"]


def cmd_decode(args) -> Done:
    adapter = load_adapter(args.adapter)
    tv = decode(adapter)
    out = _out_dir(args)
    save_checkpoint(tv.entries, out / "delta.ckpt")
    return {"adapter": args.adapter}, ["delta.ckpt"]


def cmd_apply(args) -> Done:
    base = load_checkpoint(args.base)
    adapter = load_adapter(args.adapter)
    result = apply_adapter(base, adapter, check_digest=not args.no_check_digest)
    out = _out_dir(args)
    save_checkpoint(result, out / "model.ckpt")
    config = {"base": args.base, "adapter": args.adapter,
              "check_digest": not args.no_check_digest}
    return config, ["model.ckpt"]


@dataclass(frozen=True)
class MergeConfig:
    """The config of `lota merge`: without `entries`, a sign-elect merge is
    a LoTA merge (no trim); empty `entries` mean one default entry each."""

    base: str = checked(STRING)
    adapters: tuple[str, ...] = checked(seq(STRING, min_len=1))
    scaling: float = checked(real(), default=1.0)
    elect_signs: bool = checked(BOOL, default=True)
    entries: tuple[MergeEntry, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        if self.entries and len(self.entries) != len(self.adapters):
            raise ConfigError("one entries item per adapter required")


def cmd_merge(args) -> Done:
    config = _load_json(args.config)
    spec = from_json(MergeConfig, config, "config")
    base = load_checkpoint(spec.base)
    adapters = [load_adapter(p) for p in spec.adapters]
    # a sign-elect merge without entries is a LoTA merge: every adapter whole
    trim = 1.0 if spec.entries is None and spec.elect_signs else None
    items = spec.entries or [MergeEntry(trim_keep_fraction=trim) for _ in spec.adapters]
    scaling = float(spec.scaling)
    spec_record = MergeSpec(
        base_digest=digest(base).hex(),
        entries=tuple(
            dataclasses.replace(e, source=p) for e, p in zip(items, spec.adapters)
        ),
        elect_signs=spec.elect_signs,
        scaling=scaling,
    )
    merged = run_merge_spec(base, adapters, spec_record)
    out = _out_dir(args)
    save_checkpoint(merged, out / "merged.ckpt")
    _write_json(out / "merge_spec.json", spec_record.to_json_dict())
    return config, ["merged.ckpt", "merge_spec.json"]


def cmd_inspect(args) -> None:
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


def _experiment_spec_from_config(config: dict):
    choice(EXPERIMENT_KINDS).require("kind", config.get("kind"))
    spec_cls, default_factory = EXPERIMENT_KINDS[config["kind"]]
    fields = {k: v for k, v in config.items() if k not in ("kind", "defaults")}
    defaults = config.get("defaults", False)
    BOOL.require("defaults", defaults)
    if defaults:  # the default spec, with only its seeds taken from the config
        extra = sorted(fields.keys() - {"seeds"})
        if extra:
            raise ConfigError(f"unknown key {extra[0]!r} beside defaults")
        fields = {**default_factory().to_json_dict(), **fields}
    return from_json(spec_cls, fields, "config")


def cmd_experiment(args) -> Done:
    config = _load_json(args.config)
    if args.seed is not None:
        config["seeds"] = [args.seed]
    report = run_experiment(_experiment_spec_from_config(config))
    out = _out_dir(args)
    write_atomic(out / "report.json", (report.to_json() + "\n").encode())
    write_atomic(out / "report.csv", report.to_csv().encode())
    return config, ["report.json", "report.csv"]


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
        if name != "train":
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
    started = time.perf_counter()
    try:
        done = args.fn(args)
        if done is not None:  # an artifact command: its config and outputs
            config, outputs = done
            _write_json(Path(args.out) / "provenance.json", {
                "tool": "lota",
                "version": __version__,
                "subcommand": args.command,
                "config": config,
                "outputs": sorted(outputs),
                "wall_time_s": time.perf_counter() - started,
            })
        return 0
    except Exception as exc:  # mapped to documented exit codes
        return _print_error(exc)


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
