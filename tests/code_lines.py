"""Count the code lines of Python sources: lines that hold a token other than
a comment, and no docstring. Usage: python tests/code_lines.py PATH..."""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    docs = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with path.open("rb") as fh:
        toks = [t for t in tokenize.tokenize(fh.readline) if t.type not in SKIP]
    return len({n for t in toks for n in range(t.start[0], t.end[0] + 1)} - docs)


if __name__ == "__main__":
    files = [f for p in map(Path, sys.argv[1:]) for f in ([p] if p.is_file() else p.rglob("*.py"))]
    print(sum(map(code_lines, files)))
