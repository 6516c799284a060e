"""DESIGN.md's contract table names tests that exist.

Each row of the "Contracts" section lists the tests that pin it as
pytest ids (``tests/<path>.py::<Class>::<test>``). A renamed or deleted
test must not leave a contract silently unpinned.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_ID = re.compile(r"`(tests/[\w/]+\.py(?:::\w+)+)`")


def _contract_rows() -> list[str]:
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 8. Contracts", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    return rows[1:]  # drop the header row


def _resolve(test_id: str):
    path, *names = test_id.split("::")
    obj = importlib.import_module(path[: -len(".py")].replace("/", "."))
    for name in names:
        obj = getattr(obj, name)
    return obj


def test_every_contract_is_pinned_by_a_test():
    rows = _contract_rows()
    assert len(rows) == 8
    for row in rows:
        assert TEST_ID.findall(row), f"contract without a test: {row[:60]}"


def test_every_listed_test_exists():
    for row in _contract_rows():
        for test_id in TEST_ID.findall(row):
            assert callable(_resolve(test_id)), test_id
