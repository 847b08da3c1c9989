"""Exception types shared across the package, the integer and real-number
predicates (a bool is neither), and the integer, number and boolean checks
that config validators raise :class:`InvalidConfig` from."""

from numbers import Integral, Real


class CellensError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(CellensError):
    """A Cholesky-style factorization hit a non-positive pivot.

    Signals a degenerate (exactly collinear) set of variables; callers in
    the selection loop reject the offending proposal rather than aborting.
    """


class RankDeficient(CellensError):
    """A least-squares design is singular within tolerance."""


class DegenerateColumn(CellensError):
    """A column has zero robust scale (constant or near-constant).

    Carries the offending column index (and optionally a name) so callers
    can report which predictor to drop.
    """

    def __init__(self, column: int, name: str | None = None):
        self.column = column
        self.name = name
        label = name if name is not None else f"column {column}"
        super().__init__(f"degenerate column: {label} has zero robust scale")


class NonFiniteValue(CellensError):
    """An input column holds a NaN or infinite cell.

    Numbers columns as :class:`DegenerateColumn` does: 0 is the response,
    ``j`` is predictor ``x_j``.
    """

    def __init__(self, column: int, name: str | None = None):
        self.column = column
        self.name = name
        label = name if name is not None else f"column {column}"
        super().__init__(f"non-finite input: {label} has a NaN or infinite cell")


class TooFewColumns(CellensError):
    """Cell prediction needs at least two columns."""


class InvalidConfig(CellensError):
    """A configuration value is inconsistent or out of range."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not, although Python
    counts it as one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether ``value`` is a real number; a bool is not, although Python
    counts it as one."""
    return isinstance(value, Real) and not isinstance(value, bool)


def require_integers(config, names: tuple[str, ...]) -> None:
    """Raise InvalidConfig unless every named field of ``config`` is an
    integer (:func:`is_integer`)."""
    for name in names:
        value = getattr(config, name)
        if not is_integer(value):
            raise InvalidConfig(f"{name}={value!r} must be an integer")


def require_numbers(config, names: tuple[str, ...],
                    sequences: tuple[str, ...] = ()) -> None:
    """Raise InvalidConfig unless every named field of ``config`` is a real
    number (:func:`is_number`); a field also named in ``sequences`` must
    instead be a tuple or list of them, whose entries are checked one by
    one.

    Booleans, strings and (outside ``sequences``) tuples and lists are
    rejected, naming the field (and the entry).
    """
    for name in names:
        value = getattr(config, name)
        if name not in sequences:
            entries = [(None, value)]
        elif isinstance(value, (tuple, list)):
            entries = enumerate(value)
        else:
            raise InvalidConfig(f"{name}={value!r} must be a list of numbers")
        for i, entry in entries:
            if not is_number(entry):
                label = name if i is None else f"{name}[{i}]"
                raise InvalidConfig(f"{label}={entry!r} must be a number")


def require_booleans(config, names: tuple[str, ...]) -> None:
    """Raise InvalidConfig unless every named field of ``config`` is a bool."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, bool):
            raise InvalidConfig(f"{name}={value!r} must be a boolean")


class ShapeMismatch(CellensError):
    """Array dimensions do not agree with the expected layout."""


class WorkerLost(CellensError):
    """A replication pool's worker process ended abruptly (killed, or out of
    memory) during a run; the pool is discarded and the next run starts a
    fresh one."""


class SelftestFailed(CellensError):
    """A built-in property suite failed; the runner exits with code 3."""


class EmptyTruth(CellensError):
    """Selection scoring requires a non-empty true active set."""


class InvariantViolation(CellensError):
    """A numerical invariant of the path state failed beyond tolerance."""
