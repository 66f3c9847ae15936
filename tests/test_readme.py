"""The README's library example runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # k_max=100 clamps the heaviest users of the hour-long sample
    with pytest.warns(UserWarning, match="clamped"):
        exec(compile(code, str(README), "exec"), {})
