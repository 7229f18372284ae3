"""The README's Library and CLI blocks run, and each of their comments is the value of its line."""

import ast
import io
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import shapewilf

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading: str, language: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading) :]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_values():
    source = code_block("## Library", "python")
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for statement in ast.parse(source).body:
        line = statement.end_lineno
        if isinstance(statement, ast.Expr):
            assert line in comments, f"line {line} shows a value without its comment"
            expected = ast.literal_eval(comments.pop(line))
            value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
            assert value == expected, f"line {line}: {value!r} != {expected!r}"
            checked += 1
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    assert comments == {}, f"comments on lines that show no value: {comments}"
    assert checked, "the Library block shows no value"


def test_readme_cli_block_outputs():
    # Each "# -> N" comment is its command's whole stdout, and every command exits 0.
    src = str(Path(shapewilf.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for line in code_block("## CLI", "sh").replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "shapewilf", line
        result = subprocess.run([sys.executable, "-m", "shapewilf", *argv],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, f"{line}: exit {result.returncode}\n{result.stderr}"
        if comment.strip().startswith("->"):
            assert result.stdout == comment.strip()[2:].strip() + "\n", line
            outputs.append(result.stdout.strip())
    assert outputs == ["18", "429", "67853", "21"]
