"""Exception hierarchy shared across the package, the one check of a
count or size argument, and the one check of a cap.

Everything raised on purpose derives from OligoError so the CLI can map
library failures to a single exit code. InternalInvariantError is reserved
for conditions the algorithms guarantee; seeing one is a bug, not bad input.

int_at_least checks every count and size: catalogue sizes, age_predictor,
profile, the witness constructors, compositions, compositions_count,
tree_count, local_order_count, random_poset, exhaustive_posets, both glue
samplers and the fibered_order block size.

at_most checks every cap, with one ResourceError text, "who: value what,
over the cap of cap": structures.evaluated_tuples, profile's budget and
its running total of tuples, the witness constructors' scaffold points
and members, glue, FinitePoset.from_json_dict, exhaustive_posets and the
growth command's --n-max.
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
    """A value passed its cap, through errors.at_most: a sample's tuples, a
    profile's budget or its samples' tuples, a witness scaffold's points
    or family's members, glue's incidences, a JSON poset's points,
    exhaustive_posets' size or growth's --n-max."""


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


def at_most(who: str, what: str, value: int, cap: int) -> int:
    """value, once it is at most cap; ResourceError naming who, value,
    what and cap otherwise."""
    if value > cap:
        raise ResourceError(f"{who}: {value} {what}, over the cap of {cap}")
    return value
