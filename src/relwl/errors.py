"""Exception hierarchy shared across the package."""


class RelwlError(Exception):
    """Base class for all errors raised by this package."""


class TripleFileError(RelwlError):
    """A flat graph file could not be parsed; message carries file and line."""


class ValidationError(RelwlError):
    """Structurally well-formed input that violates a documented invariant."""


class UnknownEntityError(RelwlError, KeyError):
    """Lookup of a node, relation, or color label that does not exist."""

    def __str__(self) -> str:  # KeyError quotes its args; keep plain text
        return Exception.__str__(self)


class PreconditionError(RelwlError):
    """An operation was called on data missing a required ingredient."""


class NodeBudgetError(RelwlError):
    """A construction would exceed the configured node budget.

    Raised by unravelling trees beyond the budget's node count, and by
    arity-2 refinement tests whose node pairs plus the codes of one round
    (one per pair row and fact, twice for ``rwl2``) exceed the budget.
    """


class FormulaSyntaxError(RelwlError):
    """Formula text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
