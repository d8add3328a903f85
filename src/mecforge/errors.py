"""The package's errors: one class per outcome the CLI tells apart.

Each class carries the exit code `mecforge.cli.main` returns for it.
Every validation check raises `MecforgeError` with a message naming the
value at fault; the subclasses mark the outcomes that are not invalid input.
"""


class MecforgeError(ValueError):
    """Invalid parameters or input."""

    exit_code = 2


class TooLarge(MecforgeError):
    """An exhaustive-enumeration or size guard was exceeded."""

    exit_code = 5


class NotPowerOfTwo(MecforgeError):
    """A metric was asked of an S-box whose size is not a power of two >= 2:
    `analysis.dap` raises it.  `analyze_sbox` reports such a metric as None,
    and `analyze` exits with this code when its report has one."""

    exit_code = 4


class IOFailure(MecforgeError):
    """An input could not be read or an output written."""

    exit_code = 3
