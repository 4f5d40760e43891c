"""The flags a sweep takes, built from a list of numbers, for tests that
name the numbers they sweep."""


def flags_of(numbers) -> bytearray:
    """A bytearray over 0..max(numbers) with byte n set to 1 exactly when n
    is one of the nonnegative `numbers`; a repeated number is set once."""
    numbers = list(numbers)
    flags = bytearray(max(numbers, default=-1) + 1)
    for n in numbers:
        flags[n] = 1
    return flags
