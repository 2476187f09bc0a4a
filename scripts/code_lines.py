#!/usr/bin/env python3
"""Code lines of each `src/mvbetti` module, and their total.

A code line is a source line that holds at least one token other than a
comment, a docstring or line structure (newlines, indents, dedents), as
`tokenize` splits the file; so blank lines, comment lines and the lines of
a docstring do not count, and a statement split over several lines counts
each of them.  A docstring is a string that is a statement of its own, at
the start of a logical line and followed by its end.  Prints one line per
module and the total; it checks nothing:

    python scripts/code_lines.py
"""

import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mvbetti"
# Line structure, after comments and blank-line NL tokens are dropped; a
# logical line starts after any of them but the end marker.
STRUCTURE = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
STARTS = STRUCTURE - {tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a code token."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in STRUCTURE:
            continue
        if (tok.type == tokenize.STRING and (i == 0 or tokens[i - 1].type in STARTS)
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()
