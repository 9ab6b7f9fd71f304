import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # The example is the README's promise of the public API: run it as
    # written, so a renamed or re-signed call fails here.
    text = README.read_text()
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    drop, energy = (float(x) for x in lines[2].split())
    assert drop > 0.0 and energy > 0.0
