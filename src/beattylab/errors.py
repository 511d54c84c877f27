"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto exit codes: ParameterError -> 2,
BoundaryAmbiguous -> 3, GuardViolation -> 4. Exit code 1 is the CLI's own
cross-check disagreement (lemma2 --mobius-variant) and has no class here.
"""


class BeattyLabError(Exception):
    """Base class for all beattylab errors."""


class ParameterError(BeattyLabError):
    """Invalid argument: out of domain, malformed spec string, bad range."""


class BoundaryAmbiguous(BeattyLabError):
    """A floor/fractional verdict could not be certified.

    Raised only for continued-fraction generators whose prefix (or the
    precision cap) is insufficient to separate the value from an integer
    or interval endpoint. Rational and quadratic generators always
    resolve exactly and never raise this.
    """


class GuardViolation(BeattyLabError):
    """A desk-scale enumeration guard was exceeded (input too large)."""
