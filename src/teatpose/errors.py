"""Exception types raised across the estimation pipeline."""

from dataclasses import MISSING, fields, is_dataclass


class TeatPoseError(Exception):
    """Base class for all library errors."""


class InvalidInputError(TeatPoseError, ValueError):
    """Malformed argument: bad shape, non-finite value, out-of-range parameter."""


class FrameMismatchError(TeatPoseError, ValueError):
    """Operation received a point cloud in the wrong coordinate frame."""


class EmptyMaskError(TeatPoseError):
    """Mask contour is degenerate (fewer than 3 vertices or zero area)."""


class InsufficientPointsError(TeatPoseError):
    """Too few points to run the requested estimator."""


class AmbiguousAxisError(TeatPoseError):
    """Covariance structure does not single out one axis direction."""


class InvalidSceneError(TeatPoseError, ValueError):
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


def _dataclass_from_dict(cls, d, what: str):
    """Dataclass cls from JSON object d; nested dataclass fields recurse."""
    by_name = {f.name: f for f in fields(cls)}
    required = [name for name, f in by_name.items()
                if f.default is MISSING and f.default_factory is MISSING]
    kwargs = {}
    for name, value in _check_keys(d, what, by_name, required).items():
        part = by_name[name].default_factory
        kwargs[name] = (_dataclass_from_dict(part, value, name)
                        if is_dataclass(part) else value)
    return cls(**kwargs)
