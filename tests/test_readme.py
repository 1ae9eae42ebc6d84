"""The README's library quick tour runs and prints what its comments say."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def shown(value):
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def test_quick_tour_values_match_comments():
    text = README.read_text(encoding="utf-8")
    block = (text.split("## Library quick tour", 1)[1]
             .split("```python\n", 1)[1].split("```", 1)[0])
    namespace, checked, pending = {}, [], None
    for line in block.splitlines():
        code, _, comment = (s.strip() for s in line.partition("#"))
        if not code:
            if comment and pending is not None:
                # the value of a long call is noted on the next line
                checked.append((pending, comment))
                pending = None
            continue
        try:
            expr = compile(ast.parse(code, mode="eval"), "README", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expr, namespace)
        if comment:
            checked.append((value, comment))
        else:
            pending = value
    assert len(checked) == 7
    for value, comment in checked:
        assert shown(value) == comment
