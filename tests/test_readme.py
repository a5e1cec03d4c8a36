import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    phi_max, outcome = capsys.readouterr().out.split()
    assert float(phi_max) > 0
    assert outcome in ("Success", "Failure")
