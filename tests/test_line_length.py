"""Every line of the package and of its tests fits in 100 columns."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_COLUMNS = 100


def test_no_line_over_100_columns():
    long = [f"{path.relative_to(ROOT)}:{number}: {len(line)} columns"
            for folder in ("src", "tests") for path in sorted((ROOT / folder).rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert not long, "\n".join(long)
