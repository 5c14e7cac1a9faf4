"""README's examples run as shown: the library quick start, and the demo
script with the transcript README prints for it."""

import re
from pathlib import Path

from multigb.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```\w*\n(.*?)^```", README, re.S | re.M)


def block_after(heading: str) -> str:
    """The body of the first fenced block below ``heading``."""
    start = README.index(f"\n{heading}\n")
    return re.search(r"^```\w*\n(.*?)^```", README[start:], re.S | re.M)[1]


def reads_as(shown: list, lines: list) -> bool:
    """Whether ``lines`` read as ``shown``, where a ``...`` line stands for
    any number of lines."""
    pattern = "".join("(?:.*\n)*?" if s.strip() == "..." else re.escape(s) + "\n"
                      for s in shown)
    return re.fullmatch(pattern, "".join(f"{line}\n" for line in lines)) \
        is not None


def test_reads_as_skips_ellipsis_lines():
    assert reads_as(["a", "  ...", "d"], ["a", "b", "c", "d"])
    assert reads_as(["a", "...", "b"], ["a", "b"])
    assert not reads_as(["a", "d"], ["a", "b", "d"])
    assert not reads_as(["a", "..."], ["b", "a"])


def test_library_quick_start_runs():
    code = block_after("## Library quick start")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # a line commented with a quoted value states what its expression gives
    stated = re.findall(r'^(\S.*?)\s+# "(\w+)"', code, re.M)
    assert stated
    for expression, value in stated:
        assert eval(expression, namespace) == value, expression


def test_demo_script_prints_its_readme_transcript(tmp_path, capsys):
    # the transcript block follows the block of the script it runs
    k = next(k for k, body in enumerate(BLOCKS)
             if body.startswith("$ multigb demo.mgs\n"))
    script, shown = BLOCKS[k - 1], BLOCKS[k].splitlines()
    echo = shown.index("$ echo $?")
    path = tmp_path / "demo.mgs"
    path.write_text(script)
    assert str(main([str(path)])) == shown[echo + 1]
    assert reads_as(shown[1:echo], capsys.readouterr().out.splitlines())
