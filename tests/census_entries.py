"""Read the census entries of `semigroup.enumerate_by_genus` in the tests.

An entry is one int, `generators | gaps << SHIFT`, with bit s of each
half set iff s is a minimal generator, resp. a gap.
"""

from itertools import compress, count

from twogen.semigroup import SHIFT, bit_flags


def pack(generator_mask, gap_mask):
    """The census entry of a generator mask and a gap mask."""
    return generator_mask | gap_mask << SHIFT


def unpack(entry):
    """(generator mask, gap mask) of a census entry."""
    return entry & ((1 << SHIFT) - 1), entry >> SHIFT


def decode(entry):
    """(generators, gaps) of a census entry, each an increasing tuple."""
    return tuple(tuple(compress(count(), bit_flags(mask))) for mask in unpack(entry))
