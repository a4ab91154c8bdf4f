"""Field checks for every config dataclass, and building configs from JSON.

A config declares each field's check in its field metadata,
`x: float = checked(real("[0, 1)"), default=0.9)`, and calls
`check_fields(self)` first in `__post_init__`, so it checks itself however
it is built. `from_json` builds one from a JSON object and refuses unknown
and missing keys. Every integer check has an upper bound; the bounds cap
absurd values, they do not promise that a config fits in memory.
"""

from __future__ import annotations

import dataclasses
import numbers
import operator
import sys
import types
import typing
from dataclasses import dataclass

from .errors import ConfigError

SEED_MAX = 2**63 - 1  # the range of harness.derive_seed
DIM_MAX = 2**14  # a layer width, or a task's input or output dim
COUNT_MAX = 2**24  # a sample count, batch size or epoch count


def _finite_real(x) -> bool:
    """A finite real number; JSON's true and false load as bools, which are not.
    The comparison is exact for ints, so one too large for a float fails too."""
    return (
        isinstance(x, numbers.Real)
        and not isinstance(x, bool)
        and abs(x) <= sys.float_info.max
    )


@dataclass(frozen=True)
class Check:
    """A test of one value, and what a value that passes it is."""

    what: str
    test: typing.Callable[[object], bool]

    def require(self, name: str, value) -> None:
        if not self.test(value):
            raise ConfigError(f"{name} must be {self.what}: {value!r}")


def real(interval: str = "(-inf, inf)") -> Check:
    """A finite non-bool number in an interval written like "[0, 1)"."""
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    above = operator.lt if interval[0] == "(" else operator.le
    below = operator.lt if interval[-1] == ")" else operator.le
    return Check(f"a finite number in {interval}",
                 lambda x: _finite_real(x) and above(lo, x) and below(x, hi))


def integer(lo: int, hi: int) -> Check:
    return Check(f"an integer in [{lo}, {hi}]", lambda x: isinstance(
        x, numbers.Integral) and not isinstance(x, bool) and lo <= x <= hi)


def choice(options: typing.Iterable[str]) -> Check:
    options = tuple(options)
    return Check(f"one of {list(options)}", lambda x: isinstance(x, str) and x in options)


def seq(item: Check, min_len: int = 0) -> Check:
    """A list or tuple of at least `min_len` items, each passing `item`."""
    count = f"at least {min_len} " if min_len else ""
    return Check(f"a list of {count}items, each {item.what}", lambda x: isinstance(
        x, (list, tuple)) and len(x) >= min_len and all(item.test(v) for v in x))


def optional(check: Check) -> Check:
    return Check(f"null or {check.what}", lambda x: x is None or check.test(x))


BOOL = Check("true or false", lambda x: isinstance(x, bool))
STRING = Check("a string", lambda x: isinstance(x, str))  # a path or an id
OBJECT = Check("a JSON object", lambda x: isinstance(x, dict))


def checked(check: Check, **kwargs):
    """A dataclass field that `check_fields` tests with `check`."""
    return dataclasses.field(metadata={"check": check}, **kwargs)


def check_fields(config) -> None:
    """Raise a ConfigError naming the first field that fails its check."""
    for f in dataclasses.fields(config):
        if "check" in f.metadata:
            f.metadata["check"].require(f.name, getattr(config, f.name))


def check_keys(data: dict, checks: dict[str, Check], name: str) -> None:
    """Each key of `data` must be one of `checks`, its value passing that check."""
    for key, value in data.items():
        if key not in checks:
            raise ConfigError(f"unknown key {key!r} in {name}")
        checks[key].require(key, value)


def _is_config(hint) -> bool:
    """Whether `hint` is a config (a dataclass with checked fields), or holds one."""
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return any("check" in f.metadata for f in dataclasses.fields(hint))
    return any(_is_config(arg) for arg in typing.get_args(hint))


def _build(hint, value, name: str):
    """`value` as a field of type `hint` holds it: configs built, lists as tuples."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list: {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_build(item, v, f"{name}[{i}]") for i, v in enumerate(value))
    return from_json(hint, value, name) if _is_config(hint) else value


def from_json(cls, data, name: str):
    """`cls` built from the JSON object `data`, which `name` labels in errors.
    Its keys are the fields that carry a check or hold configs; a field with
    neither, such as a TrainConfig's mask, is set in code only."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object: {data!r}")
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)
              if "check" in f.metadata or _is_config(hints[f.name])}
    for key in data:
        if key not in fields:
            raise ConfigError(f"unknown key {key!r} in {name}")
    for key, f in fields.items():
        if key not in data and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing key {key!r} in {name}")
    return cls(**{key: _build(hints[key], v, f"{name}.{key}") for key, v in data.items()})
