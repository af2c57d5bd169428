"""The README's Library-use examples run as written.

Its ``python`` code blocks run in order in one namespace, as a reader
would paste them, so a later block may use the names of an earlier one.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3, f"{len(blocks)} python blocks in README.md"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].all_satisfied
