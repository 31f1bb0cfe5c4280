"""Count the code lines of src/passgain: lines holding a token, less docstrings,
comments and blank lines.  Prints one line per module, then the total.

Run from the repository root:

    python .github/code_lines.py
"""

import ast
import glob
import io
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

total = 0
for path in sorted(glob.glob("src/passgain/*.py")):
    text = open(path).read()
    docs = {line for node in ast.walk(ast.parse(text))
            if isinstance(node, DEFINITIONS) and ast.get_docstring(node, clean=False) is not None
            for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    code = {line for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type not in SKIP for line in range(tok.start[0], tok.end[0] + 1)}
    total += len(code - docs)
    print(f"{len(code - docs):6d} {path} (code lines)")
print(f"{total:6d} total (code lines)")
