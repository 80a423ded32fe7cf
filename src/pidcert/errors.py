"""Exception hierarchy shared across the package, the one rule by which a
number is read from a config or a params dict (``as_number``), and the one
rule by which a vector of finite numbers is taken (``as_vector``, entry by
entry by ``as_number``'s rule), wherever a vector enters the package."""

import math

import numpy as np


class PidcertError(Exception):
    """Base class for all package errors."""


class UsageError(PidcertError):
    """Invalid arguments, inconsistent kinds, or malformed configuration."""


class DimensionError(UsageError):
    """Array shape does not match what the operation requires."""


class NumericalError(PidcertError):
    """An iterative numerical procedure failed to converge."""


class PlantError(PidcertError):
    """Plant evaluation produced invalid values (NaN/Inf) or violated bounds."""


class CertificateError(PidcertError):
    """A certificate construction or internal consistency check failed."""


class IntegrationError(PidcertError):
    """ODE integration failed (step underflow, solver breakdown)."""


def as_number(value, where: str, cast=float):
    """``cast(value)``; a bool, a value that is not a number, a non-finite
    value, or for ``int`` one that is not whole, is a UsageError that names
    ``where`` it was read."""
    try:
        number = cast(value)
        ok = (
            not isinstance(value, bool)
            and math.isfinite(number)
            and (cast is not int or number == float(value))
        )
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        kind = "an integer" if cast is int else "a finite number"
        raise UsageError(f"{where} must be {kind}, got {value!r}")
    return number


def as_vector(value, size: int, where: str) -> np.ndarray:
    """``value``, a number or a (nested) list or array of them, as a flat
    float copy; each entry is read by ``as_number``'s rule, and anything but
    ``size`` such entries is a UsageError that names ``where`` it was given."""
    entries = np.array(value, dtype=object).ravel().tolist()
    if len(entries) == size:
        try:
            return np.array([as_number(v, where) for v in entries], dtype=float)
        except UsageError:
            pass
    numbers = f"{size} finite number" + "s" * (size > 1)
    raise UsageError(f"{where} must be {numbers}, got {entries!r}")
