"""The one owner of every value rule: each kind's check, config-text reader and
writer, and each bounded setting's bound. It imports nothing from vqebench, so
the simulator and the estimators ask it just as the config, the CLI and
`VQEBENCH_WORKERS` do, and a value means the same wherever it comes from."""

import math
import numbers

# Each kind by its annotation: its name in messages, the types it admits (a bool
# is never a number), its reader from config text (ValueError on text that is
# not one) and its writer, whose text the reader reads back as the same value.
_KINDS = {
    "float": ("float", numbers.Real, float, lambda value: repr(float(value))),
    "int": ("int", numbers.Integral, int, lambda value: str(int(value))),
    "bool": ("bool", bool, lambda text: bool(("false", "true").index(text.lower())), lambda value: str(value).lower()),
    "int | None": (
        "int or none",
        (numbers.Integral, type(None)),
        lambda text: None if text.lower() in ("none", "exact") else int(text),
        lambda value: "none" if value is None else str(int(value)),
    ),
}

# Each bounded setting's (">" or ">=", low), by key; a None value has no bound.
_BOUNDS = {
    "eta": (">", 0), "c": (">", 0), "b": (">", 0), "beta": (">", 0),
    "samples": (">=", 1), "shots": (">=", 1), "max_steps": (">=", 0), "blocking_multiplier": (">=", 0),
    "seeds": (">=", 0), "seed": (">=", 0), "--seeds": (">=", 1), "VQEBENCH_WORKERS": (">=", 1),
    "param_count": (">=", 0),
}


def check_value(key: str, kind: str, value) -> None:
    """Raise ValueError, naming `key`, unless `value` is a `kind` (float: finite) within key's bound."""
    name, types = _KINDS[kind][:2]
    if not isinstance(value, types) or isinstance(value, bool) != (kind == "bool"):
        raise ValueError(f"key {key!r} expects {name}, got {value!r}")
    if kind == "float":
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond float range, such as 10**400
            raise ValueError(f"{key} must be finite, got an int too large for a float") from None
        if not finite:
            raise ValueError(f"{key} must be finite, got {value}")
    if key in _BOUNDS and value is not None:
        op, low = _BOUNDS[key]
        if not (value > low if op == ">" else value >= low):
            raise ValueError(f"{key} must be {op} {low}, got {value}")


def read_value(key: str, kind: str, text: str):
    """The config text of `key` read as a `kind`; ValueError, naming `key`, if it is not one."""
    try:
        return _KINDS[kind][2](text)
    except ValueError:
        raise ValueError(f"key {key!r} expects {_KINDS[kind][0]}, got {text!r}") from None


def write_value(kind: str, value) -> str:
    """The config text that `read_value` reads back as `value`."""
    return _KINDS[kind][3](value)
