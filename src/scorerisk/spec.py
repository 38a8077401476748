"""The spec grammar shared by the risk-measure and score catalogs.

A spec is a kind, then ``:`` and one number if the kind takes one:
``el``, ``es:0.1``, ``pinball:0.05``. Each catalog lists its kinds once,
in the ``GRAMMAR`` string that its error messages and the CLI help
print; `parse` reads from it which kinds take a parameter and calls the
maker of the same name, which checks the parameter's range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class Spec:
    """A catalog entry: its kind and its one parameter, or None.

    Catalogs subclass it with makers and methods but no fields, so they
    inherit its frozen fields, equality (within one class) and hash."""

    kind: str
    param: float | None

    GRAMMAR = ""  # "kind | kind:<name> | ...", one entry per maker
    NOUN = ""  # what error messages call an entry

    @classmethod
    def parse(cls, text: str):
        """Build from a CLI/config string, e.g. ``pinball:0.05``."""
        parts = text.strip().lower().split(":")
        kind = parts[0]
        grammar = dict(entry.partition(":")[::2] for entry in cls.GRAMMAR.split(" | "))
        if kind not in grammar:
            raise ValidationError(f"unknown {cls.NOUN} {text!r}; expected {cls.GRAMMAR}")
        if not grammar[kind]:
            if len(parts) != 1:
                raise ValidationError(f"{cls.NOUN} {kind!r} takes no parameter")
            return getattr(cls, kind)()
        if len(parts) != 2:
            raise ValidationError(f"{cls.NOUN} {kind!r} needs one parameter: {cls.GRAMMAR}")
        try:
            param = float(parts[1])
        except ValueError:
            raise ValidationError(f"bad {cls.NOUN} parameter in {text!r}") from None
        return getattr(cls, kind)(param)

    def spec_string(self) -> str:
        """The text `parse` reads back to this entry: ``:g``'s short form
        (``barron:1``, ``es:0.1``) where it holds the parameter exactly,
        else the shortest round-trip text (``es:0.1234567``)."""
        if self.param is None:
            return self.kind
        text = f"{self.param:g}"
        return f"{self.kind}:{text if float(text) == self.param else repr(self.param)}"
