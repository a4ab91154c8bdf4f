"""Command-line entry point.

Every artifact-producing run takes an --out directory, which `dispatch`
alone writes. The command writes its files into a fresh staging directory
`.<name>.<hex>.staging` in --out (beside it if --out is new) and returns its
config; `dispatch` writes provenance.json (config, outputs, tool version,
wall time) there, removes the old one from --out, and moves each file in,
provenance.json last. A failed run leaves --out as it was, or without a
provenance.json if a move failed; a killed run also leaves its staging
directory. A provenance.json never names a file that its run did not write.
Artifacts and reports are byte-reproducible for identical inputs and seeds;
provenance carries the only volatile fields.

Every config key, and every --seed or --sparsity flag, is checked before
any file is read or any step is taken; an unknown key, or one that the
command does not read, is refused, so a typo never runs at a default.

Exit codes: 0 success, 1 usage/config error (a missing input file too),
2 validation error (digest mismatch, misalignment, malformed file,
capacity), 3 runtime failure (divergence, failed harness assertion, any
other I/O error such as a full disk). Errors print a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import secrets
import shutil
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
from .merging import _merge
from .params import digest, load_checkpoint, save_checkpoint
from .sparsity import (SPARSITY, TaskVector, compute_task_vector, load_mask, save_mask,
                       sparsify)
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
    (OSError, RUNTIME_ERROR),
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


def _write_json(path: Path, obj) -> None:
    """Sorted, indented JSON and a newline, written atomically."""
    write_atomic(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())


@dataclass(frozen=True, kw_only=True)
class _RunCommandConfig:
    """The keys that `lota train`, `lota lota` and `lota lotto` share."""

    model: ModelSpec
    train: TrainConfig
    init_seed: int = checked(integer(0, SEED_MAX), default=0)

    def __post_init__(self):
        check_fields(self)
        for task in self.tasks if hasattr(self, "tasks") else (self.task,):
            self.model.check_task(task)


@dataclass(frozen=True, kw_only=True)
class TrainCommandConfig(_RunCommandConfig):
    """The config of `lota train`; `mask` is a mask file path."""

    task: SyntheticTaskSpec
    mask: str | None = checked(optional(STRING), default=None)


@dataclass(frozen=True, kw_only=True)
class LotaCommandConfig(_RunCommandConfig):
    """The config of `lota lota`."""

    task: SyntheticTaskSpec
    sparsity: float = checked(SPARSITY, default=0.9)
    calibration_fraction: float = checked(FRACTION, default=1.0)


@dataclass(frozen=True, kw_only=True)
class LottoCommandConfig(_RunCommandConfig):
    """The config of `lota lotto`; `initial_constraints` is a mask file path."""

    tasks: tuple[SyntheticTaskSpec, ...]
    sparsity: float = checked(SPARSITY, default=0.9)
    initial_constraints: str | None = checked(optional(STRING), default=None)


def _run_config(args, cls):
    """The JSON config of a run command and the `cls` built from it. `--seed`
    is applied to both, so that the config that provenance records is the
    one run; `--sparsity` is applied to the `cls`."""
    config = _load_json(args.config)
    run = from_json(cls, config, f"config of lota {args.command}")
    if args.seed is not None:
        run = dataclasses.replace(run, train=run.train.replace(seed=args.seed))
        config = {**config, "train": {**config["train"], "seed": args.seed}}
    if getattr(args, "sparsity", None) is not None:
        run = dataclasses.replace(run, sparsity=args.sparsity)
    return config, run


# -- subcommands ------------------------------------------------------------
# Each artifact command writes its files into `out`, the staging directory
# that `dispatch` made for it, and returns its config.


def cmd_diff(args, out: Path) -> dict:
    base = load_checkpoint(args.base)
    finetuned = load_checkpoint(args.finetuned)
    adapter = encode(compute_task_vector(finetuned, base))
    save_adapter(adapter, out / "adapter.lta")
    return {"base": args.base, "finetuned": args.finetuned}


def cmd_sparsify(args, out: Path) -> dict:
    SPARSITY.require("sparsity", args.sparsity)
    adapter = load_adapter(args.adapter)
    tv = decode(adapter)
    mask = sparsify(tv, args.sparsity)
    save_mask(mask, out / "mask.bin", source=f"sparsify:{args.adapter}")
    return {"adapter": args.adapter, "sparsity": args.sparsity}


def cmd_train(args, out: Path) -> dict:
    config, run = _run_config(args, TrainCommandConfig)
    model = run.model.build(run.init_seed)
    train_config = run.train.replace(mask=load_mask(run.mask) if run.mask else None)
    train_data, _ = run.task.make()
    final, record = train(model, train_data, train_config)
    save_checkpoint(model.params, out / "initial.ckpt")
    save_checkpoint(final, out / "final.ckpt")
    _write_json(out / "run.json", record.to_json_dict())
    return config


def cmd_lota(args, out: Path) -> dict:
    config, run = _run_config(args, LotaCommandConfig)
    model, train_config = run.model.build(run.init_seed), run.train
    sparsity, fraction = float(run.sparsity), float(run.calibration_fraction)
    train_data, _ = run.task.make()
    result = lota(model, train_data, sparsity, train_config, fraction)
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
    return {**config, "sparsity": sparsity}


def cmd_lotto(args, out: Path) -> dict:
    config, run = _run_config(args, LottoCommandConfig)
    model, train_config = run.model.build(run.init_seed), run.train
    sparsity = float(run.sparsity)
    constraints = load_mask(run.initial_constraints) if run.initial_constraints else None
    datasets = [task.make()[0] for task in run.tasks]
    result = lotto(
        model, datasets, sparsity, train_config, initial_constraints=constraints
    )
    save_checkpoint(model.params, out / "initial.ckpt")
    save_checkpoint(result.w_final, out / "final.ckpt")
    for i, (mask, adapter) in enumerate(zip(result.masks, result.adapters)):
        save_mask(mask, out / f"task{i}.mask.bin", source=f"lotto:task{i}")
        save_adapter(adapter, out / f"task{i}.adapter.lta")
    save_mask(result.constraint_trace[-1], out / "constraints.mask.bin",
              source="lotto:union")
    _write_json(out / "run.json", [r.to_json_dict() for r in result.records])
    return {**config, "sparsity": sparsity}


def cmd_encode(args, out: Path) -> dict:
    base = load_checkpoint(args.base)
    delta = load_checkpoint(args.delta)
    base.layout.require_aligned(delta.layout, "base and delta")
    tv = TaskVector(entries=delta, base_digest=digest(base))
    save_adapter(encode(tv), out / "adapter.lta")
    return {"base": args.base, "delta": args.delta}


def cmd_decode(args, out: Path) -> dict:
    adapter = load_adapter(args.adapter)
    tv = decode(adapter)
    save_checkpoint(tv.entries, out / "delta.ckpt")
    return {"adapter": args.adapter}


def cmd_apply(args, out: Path) -> dict:
    base = load_checkpoint(args.base)
    adapter = load_adapter(args.adapter)
    result = apply_adapter(base, adapter, check_digest=not args.no_check_digest)
    save_checkpoint(result, out / "model.ckpt")
    return {"base": args.base, "adapter": args.adapter,
            "check_digest": not args.no_check_digest}


@dataclass(frozen=True)
class MergeEntry:
    """One adapter's weight and trim in `lota merge`; no trim keeps it whole."""

    weight: float = checked(real(), default=1.0)
    trim_keep_fraction: float | None = checked(optional(real("(0, 1]")), default=None)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "weight", float(self.weight))


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


def cmd_merge(args, out: Path) -> dict:
    config = _load_json(args.config)
    spec = from_json(MergeConfig, config, "config")
    base = load_checkpoint(spec.base)
    adapters = [load_adapter(p) for p in spec.adapters]
    # a sign-elect merge without entries is a LoTA merge: every adapter whole
    trim = 1.0 if spec.entries is None and spec.elect_signs else None
    entries = spec.entries or [MergeEntry(trim_keep_fraction=trim)] * len(adapters)
    fractions = [1.0 if e.trim_keep_fraction is None else e.trim_keep_fraction
                 for e in entries]
    scaling = float(spec.scaling)
    merged = _merge(base, adapters, fractions, [e.weight for e in entries],
                    spec.elect_signs, scaling)
    save_checkpoint(merged, out / "merged.ckpt")
    _write_json(out / "merge_spec.json", {
        "base_digest": digest(base).hex(), "elect_signs": spec.elect_signs,
        "scaling": scaling, "entries": [{"source": path, **dataclasses.asdict(e)}
                                        for path, e in zip(spec.adapters, entries)],
    })
    return config


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


def cmd_experiment(args, out: Path) -> dict:
    config = _load_json(args.config)
    if args.seed is not None:
        config["seeds"] = [args.seed]
    report = run_experiment(_experiment_spec_from_config(config))
    write_atomic(out / "report.json", (report.to_json() + "\n").encode())
    write_atomic(out / "report.csv", report.to_csv().encode())
    return config


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
    try:
        if hasattr(args, "out"):
            _publish(args)
        else:  # lota inspect prints, and writes no file
            args.fn(args)
        return 0
    except Exception as exc:  # mapped to documented exit codes
        return _print_error(exc)


def _publish(args) -> None:
    """Run an artifact command in staging, then move its files into --out."""
    started = time.perf_counter()
    out = Path(args.out)
    # in --out, or beside it while it is new: each move stays in one filesystem
    home = out if out.exists() else out.parent
    staging = home / f".{out.name}.{secrets.token_hex(4)}.staging"
    staging.mkdir(parents=True)
    try:
        config = args.fn(args, staging)
        outputs = sorted(p.name for p in staging.iterdir())
        _write_json(staging / "provenance.json", {
            "tool": "lota", "version": __version__, "subcommand": args.command,
            "config": config, "outputs": outputs,
            "wall_time_s": time.perf_counter() - started})
        out.mkdir(exist_ok=True)
        (out / "provenance.json").unlink(missing_ok=True)
        for name in (*outputs, "provenance.json"):
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
