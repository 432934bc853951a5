"""The README stays runnable: its command lines parse and its library
snippet executes."""
import re
import shlex
from pathlib import Path

from gridest.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      flags=re.S | re.M)


def _gridest_lines():
    """Every `gridest ...` line of the sh blocks, continuations joined."""
    lines = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gridest"]:
                lines.append(words[1:])
    return lines


def test_command_lines_parse():
    lines = _gridest_lines()
    assert lines
    for argv in lines:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README line does not parse: gridest "
                                 f"{shlex.join(argv)}") from None


def test_library_snippet_runs(capsys):
    (snippet,) = _blocks("python")
    exec(compile(snippet, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "inertia estimate:" in out and "posterior std:" in out
