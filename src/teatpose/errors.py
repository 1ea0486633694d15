"""Exception types raised across the estimation pipeline."""

import math
from dataclasses import MISSING, fields, is_dataclass

import numpy as np


class TeatPoseError(Exception):
    """Base class for all library errors."""


class InvalidInputError(TeatPoseError, ValueError):
    """Malformed argument: bad shape, non-finite value, out-of-range parameter."""


class InsufficientPointsError(TeatPoseError):
    """Too few points to run the requested estimator."""


class AmbiguousAxisError(TeatPoseError):
    """Covariance structure does not single out one axis direction."""


class InvalidSceneError(InvalidInputError):
    """Scene description violates a geometric constraint."""


class CurveFitError(TeatPoseError):
    """Error-curve regression is underdetermined or degenerate."""


def _check_keys(d, what: str, allowed, required=()) -> dict:
    """Return the JSON object d, or raise naming a missing or unknown key."""
    if not isinstance(d, dict):
        raise InvalidInputError(
            f"{what}: expected a JSON object, got {type(d).__name__}")
    for problem, keys in (("missing", set(required) - set(d)),
                          ("unknown", set(d) - set(allowed))):
        if keys:
            raise InvalidInputError(
                f"{what}: {problem} key {', '.join(map(repr, sorted(keys)))}")
    return d


# JSON types a scalar field takes, and how to name them, by its annotation.
# bool is an int in Python, but true/false is never a number in a config file.
_JSON_TYPES = {"int": ((int,), "an integer"),
               "float": ((int, float), "a finite number"),
               "str": ((str,), "a string")}


def _check_types(cls, d: dict, what: str) -> None:
    """Raise naming a key of d whose value does not fit its field of cls.

    Python's json reads NaN and Infinity, so a float must also be finite.
    """
    kinds = {f.name: getattr(f.type, "__name__", f.type) for f in fields(cls)}
    for key, value in d.items():
        if kinds.get(key) not in _JSON_TYPES:
            continue
        allowed, name = _JSON_TYPES[kinds[key]]
        if (isinstance(value, bool) or not isinstance(value, allowed)
                or (isinstance(value, float) and not math.isfinite(value))):
            raise InvalidInputError(
                f"{what}: key {key!r} must be {name}, got {value!r}")


def _check_bound(obj, names, ok, bound: str, error=InvalidInputError) -> None:
    """Raise error naming the first field of obj in names whose value fails ok.

    Write ok as a comparison that NaN fails, e.g. `lambda v: v > 0`.
    """
    for name in names:
        value = getattr(obj, name)
        if not ok(value):
            raise error(f"{name} must be {bound}, got {value!r}")


def _is_int(value) -> bool:
    """True for a Python or NumPy integer; bool is an int in Python, but
    never a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value) -> None:
    """Raise InvalidInputError unless value is an integer >= 1."""
    if not (_is_int(value) and value >= 1):
        raise InvalidInputError(
            f"{name} must be an integer >= 1, got {value!r}")


def _check_vector(value, n: int, what: str, key: str) -> np.ndarray:
    """value as a float array of n finite numbers, or raise naming key."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = None
    if (a is None or a.shape != (n,) or a.dtype.kind not in "iuf"
            or not np.all(np.isfinite(a))
            or (isinstance(value, list)
                and any(isinstance(x, bool) for x in value))):
        raise InvalidInputError(f"{what}: key {key!r} must be a list of "
                                f"{n} finite numbers, got {value!r}")
    return a.astype(float)


def _dataclass_from_dict(cls, d, what: str):
    """Dataclass cls from JSON object d; nested dataclass fields recurse."""
    by_name = {f.name: f for f in fields(cls)}
    required = [name for name, f in by_name.items()
                if f.default is MISSING and f.default_factory is MISSING]
    _check_types(cls, _check_keys(d, what, by_name, required), what)
    kwargs = {}
    for name, value in d.items():
        part = by_name[name].default_factory
        kwargs[name] = (_dataclass_from_dict(part, value, name)
                        if is_dataclass(part) else value)
    return cls(**kwargs)
