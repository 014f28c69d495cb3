"""Exception types shared across the pipeline layers.

Algebra-level misuse (dimension mismatch, bad fractions, empty bundles)
raises plain ValueError/KeyError; the classes below exist so the CLI can
map failures to distinct exit codes.
"""


class ConfigurationError(Exception):
    """Corpus layout, model/corpus mismatch, or option combinations that cannot work."""


class DataError(Exception):
    """Input data that cannot be processed (unreadable files, degenerate samples)."""


class TextTooShortError(DataError):
    """Normalized text yields fewer symbols than one n-gram window.

    ``group`` is the index of the text's group in a call that encodes
    several groups at once, or None.
    """

    def __init__(self, message: str, group: int | None = None):
        super().__init__(message)
        self.group = group
