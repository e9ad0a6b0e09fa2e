"""Exception types shared across the package.

Three failure families, kept distinct so the CLI can map them to exit codes:
bad mathematical input (DomainError), bad usage of an API or command
(UsageError), and work that would exceed a configured size limit
(ResourceLimitError).  A map refuses a sequence outside its domain through
`require`, which names the sequence.  Broken internal invariants raise
AssertionError through `invariant`, which, unlike an `assert` statement,
survives ``python -O``.
"""


class DomainError(ValueError):
    """A value is outside the mathematical domain of an operation.

    Examples: a sequence fails a class membership test required by a map,
    or a marker statistic is requested for a sequence where it is undefined.
    """


class UsageError(ValueError):
    """The caller asked for something the API does not offer.

    Examples: an unknown statistic name, a class name that does not exist,
    or evaluating a series in a variable it does not track.
    """


class ResourceLimitError(RuntimeError):
    """An enumeration or computation would exceed the configured size limit."""


def invariant(condition, *message) -> None:
    """Raise AssertionError(*message) unless condition holds."""
    if not condition:
        raise AssertionError(*message)


def require(condition, refusal: str, s, *values) -> None:
    """Refuse s unless condition holds: raise DomainError with refusal, its
    {} fields filled by values, followed by s.  The text is formatted only
    on refusal."""
    if not condition:
        raise DomainError(f"{refusal.format(*values)} {tuple(s)!r}")
