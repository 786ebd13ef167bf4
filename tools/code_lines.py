"""Count the code lines of the opnorm package, by the tokenizer.

    python tools/code_lines.py            # src/opnorm
    python tools/code_lines.py some/dir   # every *.py file directly in it

A code line is a physical line that holds part of a token of a statement.
Blank lines, comment lines and docstring lines do not count: a docstring is
a logical line made of string literals alone, so module, class and function
docstrings, and any other bare string statement, are left out.  A line
counts once however many tokens it holds, and a token that spans lines,
such as a multi-line string in an expression, counts each of them.

Every file counts, the package's ``__init__.py`` (its re-exports) and
``__main__.py`` included, as in the figures that ROADMAP.md quotes.  Prints
one line per file, count then name, and the total last.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one Python source."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    folder = Path(args[0]) if args else ROOT / "src" / "opnorm"
    total = 0
    for path in sorted(folder.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
