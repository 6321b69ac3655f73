"""Count the code lines of Python files, the size measure the change log uses.

A code line holds at least one token of a statement.  Comments, blank
lines and statement-level strings (docstrings) are left out.

    python tools/code_lines.py src/rtea/*.py

prints each file's count and then the total.
"""

import sys
import tokenize

# tokens that are not code: layout, comments and the stream's ends
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
          tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    rows, statement = set(), []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in LAYOUT:
                continue
            if tok.type != tokenize.NEWLINE:
                statement.append(tok)
                continue
            if not all(t.type == tokenize.STRING for t in statement):
                rows.update(t.start[0] for t in statement)
            statement = []
    return len(rows)


if __name__ == "__main__":
    total = 0
    for path in sys.argv[1:]:
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
