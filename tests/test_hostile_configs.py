"""One field of a valid config, at any depth, made hostile.

The config twin of test_hostile_files. Each command is given a small valid
config with one field replaced by a hostile value, one required key
dropped, or one unknown key added. It must exit 1 with a JSON ConfigError
on stderr that names the field, before it reads a file, takes a step or
creates its --out directory. No file named in these configs exists, so a
command that got past its config checks would fail differently.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lota.cli import dispatch

MODEL = {"widths": [6, 16, 3], "activation": "tanh", "head": "softmax-cross-entropy"}


def task(seed, **params):
    return {
        "generator": "gaussian-cluster-classification", "input_dim": 6,
        "output_dim": 3, "train_size": 96, "test_size": 64, "noise": 0.4,
        "seed": seed, "task_id": f"t{seed}", "params": {"separation": 2.0, **params},
    }


TRAIN = {"learning_rate": 0.01, "batch_size": 32, "epochs": 2, "calibration_epochs": 1,
         "rmsprop_decay": 0.99, "rmsprop_epsilon": 1e-8, "clip_group_norm": 1.0}
RUN = {"model": MODEL, "train": {**TRAIN, "seed": 9}, "init_seed": 3}
EXPERIMENT = {"model": MODEL, "train": TRAIN, "seeds": [0, 1]}
PAIR = {"task_a": task(1, active_dims=[0, 1, 2]), "task_b": task(2, background=0.5)}

# command -> (subcommand, config)
CONFIGS = {
    "train": ("train", {**RUN, "task": task(1), "mask": "absent.bin"}),
    "lota": ("lota", {**RUN, "task": task(1), "sparsity": 0.8,
                      "calibration_fraction": 0.5}),
    "lotto": ("lotto", {**RUN, "tasks": [task(1), task(2)], "sparsity": 0.8,
                        "initial_constraints": "absent.bin"}),
    "merge": ("merge", {
        "base": "absent.ckpt", "adapters": ["a.lta", "b.lta"], "scaling": 1.0,
        "elect_signs": True,
        "entries": [{"weight": 1.0, "trim_keep_fraction": 0.5}, {"weight": 0.5}],
    }),
    "sequential": ("experiment", {
        "kind": "sequential", **EXPERIMENT, **PAIR,
        "method_pairs": ["fft->fft", "lota->lotto"], "sparsity": 0.9,
        "mix_fraction": 0.5, "require_interference": False,
        "interference_threshold": 0.1,
    }),
    "sparsity-ablation": ("experiment", {
        "kind": "sparsity-ablation", **EXPERIMENT, "task": task(1),
        "grid": [0.0, 0.9], "iterative_schedule": [0.5, 0.9],
    }),
    "calibration-ablation": ("experiment", {
        "kind": "calibration-ablation", **EXPERIMENT, "task": task(1, relabel_count=2),
        "fractions": [1.0, 0.5], "sparsity": 0.9, "base_task": task(1),
        "base_train": {"learning_rate": 0.01, "batch_size": 32, "epochs": 1},
    }),
    "merging": ("experiment", {
        "kind": "merging", **EXPERIMENT, **PAIR, "pairs": ["fft+fft", "lota+lota"],
        "fraction_grid": [0.5], "sparsity": 0.9, "scaling": 1.0,
    }),
}

HOSTILE = ["x", True, float("nan"), float("inf"), -float("inf"), -1, 2**70,
           [{"x": 1}], {"x": 1}]

# hostile values that a field admits, so the config stays valid; a field
# ending in [] is a list item
ADMITTED = {
    "task_id": ("x",), "mask": ("x",), "initial_constraints": ("x",),
    "base": ("x",), "adapters[]": ("x",),
    "require_interference": (True,), "elect_signs": (True,),
    **{key: (-1, 2**70) for key in ("scaling", "weight", "interference_threshold")},
    **{key: (2**70,) for key in ("learning_rate", "rmsprop_epsilon", "clip_group_norm")},
}

# keys with a default, which a valid config may leave out
OPTIONAL = {
    "activation", "head", "task_id", "params", "separation", "active_dims",
    "background", "relabel_count", "calibration_epochs", "rmsprop_decay",
    "rmsprop_epsilon", "clip_group_norm", "init_seed", "sparsity",
    "calibration_fraction", "mask", "initial_constraints", "scaling", "elect_signs",
    "entries", "weight", "trim_keep_fraction", "method_pairs", "mix_fraction",
    "require_interference", "interference_threshold", "grid", "iterative_schedule",
    "fractions", "base_task", "base_train", "pairs", "fraction_grid",
}


def paths(obj, prefix=()):
    """The path of every value inside `obj`."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def resolve(config, path):
    for key in path:
        config = config[key]
    return config


def field(path) -> str:
    """The last key on `path`."""
    return [key for key in path if isinstance(key, str)][-1]


MUTATIONS = {}
for name, (_, config) in CONFIGS.items():
    every = list(paths(config))
    objects = [()] + [p for p in every if isinstance(resolve(config, p), dict)]
    required = [p for p in every if isinstance(p[-1], str) and p[-1] not in OPTIONAL]
    MUTATIONS[name] = (every, objects, required)


def mutated(name, data):
    """A copy of the config with one mutation, and the field it names."""
    config = copy.deepcopy(CONFIGS[name][1])
    every, objects, required = MUTATIONS[name]
    kind = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if kind == "add":
        path = data.draw(st.sampled_from(objects))
        resolve(config, path)["zz_unknown"] = 1
        return config, "zz_unknown"
    if kind == "drop":
        path = data.draw(st.sampled_from(required))
        del resolve(config, path[:-1])[path[-1]]
        return config, path[-1]
    path = data.draw(st.sampled_from(every))
    value = data.draw(st.sampled_from(HOSTILE))
    admitted = ADMITTED.get(field(path) + ("[]" if isinstance(path[-1], int) else ""), ())
    assume(not any(type(a) is type(value) and a == value for a in admitted))
    resolve(config, path[:-1])[path[-1]] = value
    return config, field(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile-configs")


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_config_exits_1_naming_the_field(workdir, name, data):
    config, named = mutated(name, data)
    path, out = workdir / f"{name}.json", workdir / "out"
    path.write_text(json.dumps(config))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = dispatch([CONFIGS[name][0], "--config", str(path), "--out", str(out)])
    error = json.loads(stderr.getvalue())["error"]
    assert (code, error["type"]) == (1, "ConfigError"), error
    assert named in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_unmutated_configs_pass_their_checks(workdir, name):
    """Each base config is valid: a command that names absent files fails on
    them, and the others run."""
    command, config = CONFIGS[name]
    if command == "experiment":
        config = {**config, "seeds": [0]}
    path, out = workdir / f"{name}-valid.json", workdir / f"{name}-valid"
    path.write_text(json.dumps(config))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = dispatch([command, "--config", str(path), "--out", str(out)])
    if name in ("train", "lotto", "merge"):
        assert code == 1
        assert json.loads(stderr.getvalue())["error"]["type"] == "FileNotFoundError"
    else:
        assert code == 0, stderr.getvalue()
