"""Exception types shared across the package."""


def require_keys(record: dict, keys, where: str) -> None:
    """Reject a JSON object that lacks one of ``keys``, naming where it came from."""
    for key in keys:
        if key not in record:
            raise ValueError(f"{where} has no {key!r} key")


class ModlabError(Exception):
    """Base class for modlab-specific failures."""


class DegenerateCurveError(ModlabError, ValueError):
    """Raised for operations that require a curve of positive length."""


class DomainError(ModlabError, ValueError):
    """Raised when a curve leaves the grid box."""


class CapacityError(ModlabError, ValueError):
    """Raised when an exact dual-ball enumeration would be intractable."""


class ScheduleError(ModlabError, RuntimeError):
    """Raised when no admissible Fuglede subsequence can be selected."""
