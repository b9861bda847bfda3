from __future__ import annotations

from dataclasses import dataclass

import pytest

from tridrive.errors import FormatError
from tridrive.jsonio import fields_from_json


@dataclass
class _Counted:
    x: int = 0


@dataclass
class _Named:
    x: str = ""


def test_each_class_is_checked_against_its_own_hints():
    # Same field name, different types: whichever class is parsed first, the
    # other must not be checked against its hints.
    for _ in range(2):
        assert fields_from_json(_Counted, {"x": 3}, "counted") == {"x": 3}
        assert fields_from_json(_Named, {"x": "s"}, "named") == {"x": "s"}
        with pytest.raises(FormatError, match="^counted: x must be an integer, got 's'$"):
            fields_from_json(_Counted, {"x": "s"}, "counted")
        with pytest.raises(FormatError, match="^named: x must be a string, got 3$"):
            fields_from_json(_Named, {"x": 3}, "named")
