"""The public names: what the package exports and what the README lists."""

import functools
import pathlib
import re

import mqunits

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def resolves(name):
    """Whether name, dotted or not, is mqunits or an attribute path on it."""
    path = name.split(".")
    if path[0] == "mqunits":
        path = path[1:]
    try:
        functools.reduce(getattr, path, mqunits)
    except AttributeError:
        return False
    return True


def test_every_exported_name_resolves():
    assert [name for name in mqunits.__all__ if not hasattr(mqunits, name)] == []


def test_every_name_of_the_readme_library_section_resolves():
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    names = re.findall(r"`([^`]+)`", section)
    assert "kuroda_h2" in names and "verify_pair" in names
    assert [name for name in names if not resolves(name)] == []
