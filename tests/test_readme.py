"""README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name} (## Library)", "exec"), {})
    # the example asserts the null space against the closed form itself; its
    # first print is the concurrence it quotes
    assert capsys.readouterr().out.startswith("0.245")
