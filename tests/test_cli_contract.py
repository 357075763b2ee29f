"""The front end's exit-code contract, and the README's command examples."""

import shlex
from pathlib import Path

from hypothesis import given, settings, strategies as st

from kmink import expr
from tests.test_suites_cli import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"

# The grammar's alphabet: every symbol and function name, an unknown name,
# numbers of at most 3, every punctuation mark and a character the lexer
# rejects.  Tokens are joined by spaces, so two numbers never merge into a
# larger one.  A soup of at most 10 tokens nests at most two powers: the
# 11 tokens of "((box^3)^3)^3" would take minutes.
ALPHABET = sorted(expr._SYMBOLS) + sorted(expr._FUNCTIONS) + [
    "foo", "0", "1", "2", "3", "1/2", "2i", "1/0"] + list("+-*^()[]{},;@")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=10))
def test_parse_and_eval_exit_0_or_2(tokens):
    text = " ".join(tokens)
    for command in ("parse", "eval"):
        code, out, err = run_cli(command, text)
        assert code in (0, 2), (command, text)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (
                command, text, err)
        elif command == "parse":
            assert expr.parse(out) == expr.parse(text), text


def test_readme_command_examples():
    """Each `kmink parse` and `kmink eval` line of the README's "Command
    line" block runs, and each `eval` prints its `#` comment."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines()
             if line.startswith(("kmink parse", "kmink eval"))]
    assert len(lines) == 5
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code, out, err = run_cli(*argv)
        assert code == 0, (line, err)
        if argv[0] == "eval":
            assert out == line.split("#", 1)[1].strip() + "\n", line
