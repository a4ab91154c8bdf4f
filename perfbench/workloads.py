"""The three workloads. Each is a closed loop in this one process.

A workload builds its inputs from the run seed in `setup()`, then the
runner calls `round(r)` until time is up. A round issues its ops one after
another and records each in the `Ledger` with its latency and outcome.
Inputs differ from round to round, so no op can be served from a cache
filled by an earlier round.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import checks


@dataclasses.dataclass
class Op:
    round: int
    kind: str
    seconds: float
    failure: str | None  # exception type, "exit N" or "check: <reason>"
    timed: bool = True  # counts toward round_s


class Ledger:
    """Every op a run attempted, with its latency and outcome."""

    def __init__(self):
        self.ops: list[Op] = []

    def add(self, r: int, kind: str, seconds: float, failure=None, timed=True):
        self.ops.append(Op(r, kind, seconds, failure, timed))

    @property
    def failed(self) -> int:
        return sum(op.failure is not None for op in self.ops)

    @property
    def wrong(self) -> int:
        """Ops that returned an output that failed a check."""
        return sum(
            op.failure is not None and op.failure.startswith("check:")
            for op in self.ops
        )

    def failure_types(self) -> Counter:
        return Counter(op.failure for op in self.ops if op.failure)

    def latencies(self, kind: str) -> list[float]:
        return [op.seconds for op in self.ops if op.kind == kind and not op.failure]

    def round_seconds(self, r: int) -> float | None:
        """Summed latency of a round's timed ops; None if any of them failed."""
        ops = [op for op in self.ops if op.round == r and op.timed]
        if not ops or any(op.failure for op in ops):
            return None
        return sum(op.seconds for op in ops)


def _round_seed(name: str, seed: int, r: int, part: int = 0) -> int:
    text = f"perfbench:{name}:{seed}:{r}:{part}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def _cli(argv: list[str]) -> str | None:
    """Run one `lota` command in this process; the failure, or None."""
    from lota import cli

    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.dispatch(argv)
    if code == 0:
        return None
    try:
        return json.loads(stderr.getvalue().splitlines()[-1])["error"]["type"]
    except (IndexError, KeyError, ValueError):
        return f"exit {code}"


def _first(reasons: list[str]) -> str | None:
    return f"check: {reasons[0]}" if reasons else None


def _mlp_reference(steps: int = 8000) -> None:
    """Plain-numpy SGD on a 16-96-48-4 tanh MLP, batch 32: no `lota` code.

    The same kind of work as a training round (small matrix products and
    Python overhead per step), so it slows with the machine as they do.
    """
    rng = np.random.default_rng(0)
    ws = [rng.standard_normal((a, b), dtype=np.float32) * np.float32(0.1)
          for a, b in ((16, 96), (96, 48), (48, 4))]
    x = rng.standard_normal((32, 16), dtype=np.float32)
    y = rng.integers(0, 4, 32)
    for _ in range(steps):
        hs = [x]
        for w in ws[:-1]:
            hs.append(np.tanh(hs[-1] @ w))
        z = hs[-1] @ ws[-1]
        g = np.exp(z - z.max(axis=1, keepdims=True))
        g /= g.sum(axis=1, keepdims=True)
        g[np.arange(32), y] -= 1.0
        g /= np.float32(32)
        for i in range(len(ws) - 1, -1, -1):
            grad = hs[i].T @ g
            if i:
                g = (g @ ws[i].T) * (1.0 - hs[i] ** 2)
            ws[i] -= np.float32(0.01) * grad


def _array_reference(n: int = 1_071_108, reps: int = 1) -> None:
    """Plain-numpy passes over a 1.07M-element vector: no `lota` code.

    The same kind of work as an adapter-store round: a global sort by
    magnitude, a gather, hashing and serialising the bytes.
    """
    x = np.random.default_rng(0).standard_normal(n, dtype=np.float32)
    for _ in range(reps):
        order = np.lexsort((np.arange(n), -np.abs(x)))
        kept = np.sort(order[: n // 10])
        values = x[kept]
        hashlib.sha256(values.tobytes()).digest()
        buf = io.BytesIO()
        np.save(buf, kept.astype(np.int32))
        np.save(buf, values)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, ledger: Ledger, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.ledger = ledger
        self.tiny = tiny
        self.tracer = None  # set by the runner for traced rounds

    def reference(self) -> float:
        """Seconds for this workload's fixed reference kernel, which runs
        no `lota` code: the machine's speed at the time, to measure rounds
        against."""
        start = time.perf_counter()
        self.reference_kernel()
        return time.perf_counter() - start

    def frozen_moved(self) -> int:
        return len(self.tracer.frozen_violations) if self.tracer else 0

    def checking(self):
        """Context for output checks: their calls into lota are not traced."""
        return self.tracer.pause() if self.tracer else contextlib.nullcontext()


class Experiment(Workload):
    """`lota experiment` on a default spec; one op per round."""

    kind = ""
    seeds_per_round = 1
    reference_kernel = staticmethod(_mlp_reference)

    def spec_for(self, seeds):
        from lota import harness

        factory = {
            "sparsity-ablation": harness.default_sparsity_spec,
            "merging": harness.default_merging_spec,
        }[self.kind]
        spec = factory(seeds=seeds)
        if self.tiny:
            tasks = {
                key: dataclasses.replace(getattr(spec, key), train_size=128, test_size=128)
                for key in ("task", "task_a", "task_b") if hasattr(spec, key)
            }
            spec = dataclasses.replace(
                spec, train={**spec.train, "epochs": 1, "calibration_epochs": 1},
                **tasks,
            )
        return spec

    def setup(self) -> None:
        self.spec = self.spec_for((0,) * self.seeds_per_round)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def round(self, r: int) -> dict:
        seeds = tuple(
            _round_seed(self.name, self.seed, r, i) for i in range(self.seeds_per_round)
        )
        spec = dataclasses.replace(self.spec, seeds=seeds)
        config = self.workdir / "experiment.json"
        config.write_text(json.dumps({"kind": self.kind, **spec.to_json_dict()}))
        out = self.workdir / f"round{r}"
        moved = self.frozen_moved()
        start = time.perf_counter()
        try:
            failure = _cli(["experiment", "--config", str(config), "--out", str(out)])
        except Exception as exc:  # an unmapped error: record it, keep running
            failure = type(exc).__name__
        seconds = time.perf_counter() - start
        result = {}
        if failure is None:
            blob = (out / "report.json").read_bytes()
            report = json.loads(blob)
            reasons = self.check(report, spec)
            if self.frozen_moved() > moved:
                reasons.append("masked train moved a frozen coordinate")
            failure = _first(reasons)
            result = {
                "utility": checks.mean_utility(report),
                "sha256": hashlib.sha256(blob).hexdigest(),
            }
        self.ledger.add(r, "experiment", seconds, failure)
        shutil.rmtree(out, ignore_errors=True)
        return result


class SparseSweep(Experiment):
    name = "sparse-sweep"
    kind = "sparsity-ablation"
    check = staticmethod(checks.check_sparsity_report)


class MergeTwoSeed(Experiment):
    name = "merge-2seed"
    kind = "merging"
    seeds_per_round = 2
    check = staticmethod(checks.check_merging_report)


class AdapterStore(Workload):
    """Publish, merge and reload K sparse adapters of a ~1M-parameter model."""

    name = "adapter-store"
    reference_kernel = staticmethod(_array_reference)
    tasks = 4
    sparsity = 0.9
    trim = 0.2

    def setup(self) -> None:
        from lota import ToyModel, digest, save_checkpoint

        widths = (16, 32, 32, 4) if self.tiny else (16, 1024, 1024, 4)
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, 1])
        self.base = ToyModel.initialize(
            widths, "tanh", "softmax-cross-entropy", int(rng.integers(2**31))
        ).params
        self.base_digest = digest(self.base)
        self.base_path = self.workdir / "base.ckpt"
        save_checkpoint(self.base, self.base_path)
        # task vectors whose magnitudes vary by row and by column, so the
        # global top-k keeps whole bands unevenly, as trained deltas do
        self.vectors = []
        for _ in range(self.tasks):
            entries = {}
            for name, arr in self.base.items():
                delta = rng.standard_normal(arr.shape, dtype=np.float32)
                for axis, size in enumerate(arr.shape):
                    scale = rng.lognormal(0.0, 1.0, size).astype(np.float32)
                    delta *= scale.reshape((-1,) + (1,) * (arr.ndim - axis - 1))
                entries[name] = delta * np.float32(1e-3)
            self.vectors.append(entries)
        self.adapter_paths = [self.workdir / f"task{i}.lta" for i in range(self.tasks)]
        self.merge_config = self.workdir / "merge.json"
        self.merge_config.write_text(json.dumps({
            "base": str(self.base_path),
            "adapters": [str(p) for p in self.adapter_paths],
        }))

    def _task_vectors(self, r: int):
        from lota import ParameterMap
        from lota.sparsity import TaskVector

        scale = np.float32(1.0 + r / 16.0)
        return [
            TaskVector(ParameterMap({n: a * scale for n, a in v.items()}), self.base_digest)
            for v in self.vectors
        ]

    def round(self, r: int) -> dict:
        from lota import (
            apply_mask, encode, merge_lota, save_adapter, save_mask, sparsify,
            ties_merge,
        )
        from lota.params import serialize_checkpoint

        tvs = self._task_vectors(r)
        digest = hashlib.sha256()
        adapters, expected = [], []
        for i, tv in enumerate(tvs):
            mask_path = self.workdir / f"task{i}.mask.bin"
            start = time.perf_counter()
            try:
                mask = sparsify(tv, self.sparsity)
                masked = apply_mask(tv, mask)
                adapter = encode(masked)
                save_adapter(adapter, self.adapter_paths[i])
                save_mask(mask, mask_path)
                failure = None
            except Exception as exc:
                failure = type(exc).__name__
            seconds = time.perf_counter() - start
            if failure is None:
                want = dict(masked.entries.items())
                with self.checking():
                    failure = _first(self._check_publish(mask, mask_path, adapter, want))
                adapters.append(adapter)
                expected.append(want)
                for path in (self.adapter_paths[i], mask_path, Path(f"{mask_path}.json")):
                    digest.update(path.read_bytes())
            self.ledger.add(r, "publish", seconds, failure)

        merged = None
        start = time.perf_counter()
        try:
            ties = ties_merge(self.base, tvs, [self.trim] * len(tvs))
            merged = merge_lota(self.base, adapters)
            failure = None if len(adapters) == self.tasks else "check: publish failed"
        except Exception as exc:
            failure = type(exc).__name__
        self.ledger.add(r, "merge", time.perf_counter() - start, failure)
        if failure is None:
            digest.update(serialize_checkpoint(ties))
            digest.update(serialize_checkpoint(merged))

        out = self.workdir / "reload"
        start = time.perf_counter()
        try:
            failure = _cli(["merge", "--config", str(self.merge_config), "--out", str(out)])
        except Exception as exc:
            failure = type(exc).__name__
        seconds = time.perf_counter() - start
        if failure is None:
            with self.checking():
                failure = _first(self._check_reload(out / "merged.ckpt", merged, expected))
            digest.update((out / "merged.ckpt").read_bytes())
        # reload stays out of round_s: it fails fast until adapters keep
        # their shapes, and a whole-round time would read that fix as a
        # slowdown
        self.ledger.add(r, "reload", seconds, failure, timed=False)
        return {"sha256": digest.hexdigest()}

    def _check_publish(self, mask, mask_path, adapter, want) -> list[str]:
        from lota import decode, load_mask

        n = self.base.total_elements
        reasons = []
        if mask.kept_count != checks.kept_count(self.sparsity, n):
            reasons.append(f"kept {mask.kept_count} of {n}")
        reasons += checks.same_tensors(
            want, dict(decode(adapter).entries.items()), "decode(encode(x))"
        )
        reasons += checks.same_tensors(
            dict(mask.items()), dict(load_mask(mask_path).items()), "mask file"
        )
        return reasons

    def _check_reload(self, merged_path, merged, expected) -> list[str]:
        if merged is None:
            return ["no in-memory merge to compare with"]
        reasons = checks.check_checkpoint_file(merged_path, dict(merged.items()))
        for path, want in zip(self.adapter_paths, expected):
            reasons += checks.check_adapter_file(path, want)
        return reasons


WORKLOADS = {w.name: w for w in (SparseSweep, MergeTwoSeed, AdapterStore)}
