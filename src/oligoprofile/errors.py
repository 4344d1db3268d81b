"""Exception hierarchy shared across the package, and the one check of a
count or size argument.

Everything raised on purpose derives from OligoError so the CLI can map
library failures to a single exit code. InternalInvariantError is reserved
for conditions the algorithms guarantee; seeing one is a bug, not bad input.

int_at_least checks every count and size: catalogue sizes, age_predictor,
profile, the witness constructors, compositions, compositions_count,
tree_count, local_order_count, random_poset, exhaustive_posets, both glue
samplers and the fibered_order block size.
"""


class OligoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSubsetError(OligoError):
    """Subset passed to an induced-substructure operation is malformed."""


class ParameterError(OligoError):
    """Bad parameter for a catalogue entry, sampler or constructor."""


class DomainError(OligoError):
    """Input outside the mathematical domain of an operation."""


class ResourceError(OligoError):
    """A configured budget (subset count, recursion depth) was exceeded."""


class FragmentPairError(OligoError):
    """Two overlapping fragments do not fit any recognised overlap shape."""


class InconsistentFragmentsError(OligoError):
    """A fragment set admits no coherent linear or circular arrangement."""


class InternalInvariantError(OligoError):
    """A property the algorithm is supposed to guarantee failed to hold."""


def int_at_least(who: str, what: str, value: int, least: int) -> int:
    """value, once it is an int (a bool is not one) and at least least;
    ParameterError naming who and what otherwise."""
    if type(value) is not int:
        raise ParameterError(f"{who} needs an int {what}, got {value!r}")
    if value < least:
        raise ParameterError(f"{who} needs {what} >= {least}, got {value}")
    return value
