"""The README's Library block runs, and each of its comments is the value of its line."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_values():
    source = library_block()
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
