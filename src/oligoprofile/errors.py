"""Exception hierarchy shared across the package.

Everything raised on purpose derives from OligoError so the CLI can map
library failures to a single exit code. InternalInvariantError is reserved
for conditions the algorithms guarantee; seeing one is a bug, not bad input.
"""


class OligoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSubsetError(OligoError):
    """Subset passed to an induced-substructure operation is malformed."""


class SignatureMismatchError(OligoError):
    """Two structures were compared across different signatures."""


class ParameterError(OligoError):
    """Bad parameter for a catalogue entry, sampler or constructor."""


class DomainError(OligoError):
    """Input outside the mathematical domain of an operation."""


class SaturationError(OligoError):
    """Profile code sets kept drifting when the sampled model was enlarged.

    lacking holds, for each consecutive pair of sizes, the number of codes
    only the smaller sample has and the number only the larger one has.
    """

    def __init__(
        self,
        entry_id: str,
        n: int,
        counts: tuple[int, ...],
        sizes: tuple[int, ...],
        lacking: tuple[tuple[int, int], ...],
    ):
        self.entry_id = entry_id
        self.n = n
        self.counts = counts
        self.sizes = sizes
        self.lacking = lacking
        pairs = ", ".join(
            f"{a}->{b}: {only_a} lost, {only_b} new"
            for (a, b), (only_a, only_b) in zip(zip(sizes, sizes[1:]), lacking)
        )
        super().__init__(
            f"profile of {entry_id!r} at n={n} did not stabilise: "
            f"counts {counts} at sampler sizes {sizes}; codes by size step {pairs}"
        )


class ResourceError(OligoError):
    """A configured budget (subset count, recursion depth) was exceeded."""


class FragmentPairError(OligoError):
    """Two overlapping fragments do not fit any recognised overlap shape."""


class InconsistentFragmentsError(OligoError):
    """A fragment set admits no coherent linear or circular arrangement."""


class InternalInvariantError(OligoError):
    """A property the algorithm is supposed to guarantee failed to hold."""
