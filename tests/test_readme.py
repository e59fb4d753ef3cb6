"""The README's library example runs, and each result its comments state holds."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# A comment that starts with a literal states the value of its line.
STATED = re.compile(r"#\s*(True|False|-?\d+(?:\.\d*)?(?:e-?\d+)?)\b")


def readme_example():
    """The README's one ```python block."""
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    return block


def stated_values(source):
    """Per line number, the literal its comment starts with."""
    stated = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and (match := STATED.match(token.string)):
            stated[token.start[0]] = ast.literal_eval(match.group(1))
    return stated


def test_the_readme_example_runs_and_each_stated_value_holds():
    source = readme_example()
    stated = stated_values(source)
    namespace = {}
    checked = 0
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        if statement.end_lineno in stated:
            assert isinstance(statement, ast.Expr), code
            value = eval(code, namespace)
            expected = stated[statement.end_lineno]
            assert value == expected and type(value) is type(expected), (code, value)
            checked += 1
        else:
            exec(code, namespace)
    # Two lines state True, three 0.0 and one 1.0.
    assert checked == len(stated) == 6
