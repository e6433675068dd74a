"""The verdict of a list of named axiom checks.

Every checker returns a Checks: each check name maps to None when it passed
or to the witness of its first failure.  A check that never ran (e.g. d^2 = 0
below degree 2) has no name at all.  In a report each name becomes
{"first_failure": None | repr(witness), "pass": bool}.
"""

from __future__ import annotations


class Checks:
    __slots__ = ("first",)

    def __init__(self, holds=None):
        """`holds` maps names to booleans, as record_all takes them."""
        self.first = {}
        if holds:
            self.record_all(holds)

    def record(self, name: str, failure=None) -> None:
        """Add `name`; only its first non-None failure is kept."""
        if self.first.get(name) is None:
            self.first[name] = failure

    def record_all(self, holds) -> None:
        """Record each name of `holds`; a false one fails with its own name
        as witness."""
        for name, ok in holds.items():
            self.record(name, None if ok else name)

    @property
    def failed(self) -> list[str]:
        """Names of the failed checks, in the order they were recorded."""
        return [name for name, witness in self.first.items() if witness is not None]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_obj(self) -> dict:
        return {
            name: {"first_failure": None if witness is None else repr(witness),
                   "pass": witness is None}
            for name, witness in sorted(self.first.items())
        }

    def __repr__(self):
        return f"Checks({self.first!r})"
